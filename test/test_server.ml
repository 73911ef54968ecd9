(* The federation server, bottom up: the JSON codec, the bounded admission
   queue and the metrics registry as units (counter exactness under
   concurrent hammering included), then the serve loop end to end over a
   unix socket — differential row identity against one-shot runs,
   concurrent multi-tenant clients with exact admission/rejection
   accounting, deterministic deadline rejections, snapshot warm restarts,
   and the HTTP-ish observability endpoints. *)

open Disco_core
open Disco_wrapper
open Disco_mediator
open Disco_server

let bits = Int64.bits_of_float

(* --- fixtures ------------------------------------------------------------------- *)

let make_mediator ?(history = History.Off) () =
  let med = Mediator.create ~history_mode:history () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  med

let fresh_socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "disco-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?history ?med ?(queue_depth = 64) ?(workers = 2) ?default_deadline_ms
    ?snapshot_path ?(snapshot_every = 0) f =
  let med = match med with Some m -> m | None -> make_mediator ?history () in
  let addr = Server.Unix_socket (fresh_socket_path ()) in
  let config =
    { Server.addr;
      queue_depth;
      workers;
      default_deadline_ms;
      snapshot_path;
      snapshot_every;
      verify = true }
  in
  let srv = Server.create ~config med in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv addr med)

let queries =
  [ "select e.name from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id and \
     d.budget > 100000";
    "select l.id from Listing l where l.rating >= 2" ]

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let status j =
  match Json.string_member "status" j with
  | Some s -> s
  | None -> Alcotest.failf "no status in %s" (Json.to_string j)

let int_field name j =
  match Json.int_member name j with
  | Some i -> i
  | None -> Alcotest.failf "no int %S in %s" name (Json.to_string j)

(* --- json ------------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.String "a\"b\\c\nd\te\x01f");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.1);
        ("tiny", Json.Float 5e-324);
        ("neg", Json.Float (-1.5));
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]) ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
    Alcotest.(check string) "roundtrip preserves structure" (Json.to_string v)
      (Json.to_string v');
    (* %.17g keeps float bits exactly *)
    (match (Json.float_member "f" v', Json.float_member "tiny" v') with
     | Some f, Some tiny ->
       Alcotest.(check int64) "0.1 bits" (bits 0.1) (bits f);
       Alcotest.(check int64) "denormal bits" (bits 5e-324) (bits tiny)
     | _ -> Alcotest.fail "float members lost")

let test_json_unicode_and_errors () =
  (match Json.parse {|{"u":"café ✓"}|} with
   | Ok j ->
     Alcotest.(check (option string)) "escapes decode to UTF-8"
       (Some "caf\xc3\xa9 \xe2\x9c\x93") (Json.string_member "u" j)
   | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  (* an astral character escaped as a surrogate pair (how Python's
     json.dumps sends it) is the same string as the raw UTF-8 *)
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok j ->
        Alcotest.(check (option string)) ("surrogate pair " ^ text)
          (Some "\xf0\x9f\x98\x80") (Json.string_member "u" j)
      | Error e -> Alcotest.failf "surrogate pair parse failed: %s" e)
    [ {|{"u":"\ud83d\ude00"}|}; {|{"u":"\uD83D\uDE00"}|}; "{\"u\":\"\xf0\x9f\x98\x80\"}" ];
  (match Json.parse {|{"u":"\u00e9\u0041\uffff"}|} with
   | Ok j ->
     Alcotest.(check (option string)) "BMP escapes" (Some "\xc3\xa9A\xef\xbf\xbf")
       (Json.string_member "u" j)
   | Error e -> Alcotest.failf "BMP escapes failed: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed json %S" bad
      | Error e ->
        let rec at i = i + 6 <= String.length e && (String.sub e i 6 = "offset" || at (i + 1)) in
        if not (at 0) then
          Alcotest.failf "error %S for %S names no offset" e bad)
    [ "{"; "[1,"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2";
      (* a lone or misordered surrogate *)
      {|"\ude00"|}; {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00\ud83d"|};
      {|"\ud83d\ud83d"|};
      (* an escape that is not four hex digits *)
      {|"\u1_23"|}; {|"\u+123"|}; {|"\u12"|}; {|"\uzzzz"|}; {|"\ud83d\u12"|} ]

(* --- admission ------------------------------------------------------------------- *)

let test_admission_bounds_and_order () =
  let q = Admission.create ~depth:3 in
  Alcotest.(check int) "depth clamps up from zero" 1
    (Admission.depth (Admission.create ~depth:0));
  List.iter
    (fun i -> Alcotest.(check bool) "within depth" true (Admission.try_push q i))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "fourth refused" false (Admission.try_push q 4);
  Alcotest.(check (option int)) "fifo" (Some 1) (Admission.pop q);
  Alcotest.(check bool) "slot freed" true (Admission.try_push q 5);
  Admission.close q;
  Alcotest.(check bool) "closed refuses" false (Admission.try_push q 6);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Admission.pop q);
  Alcotest.(check (option int)) "drains after close" (Some 3) (Admission.pop q);
  Alcotest.(check (option int)) "drains after close" (Some 5) (Admission.pop q);
  Alcotest.(check (option int)) "then exhausted" None (Admission.pop q);
  let c = Admission.counters q in
  Alcotest.(check int) "pushed" 4 c.Admission.pushed;
  Alcotest.(check int) "rejected" 2 c.Admission.rejected;
  Alcotest.(check int) "popped" 4 c.Admission.popped

(* 8 domains flood a bounded queue with no consumer: exactly [depth] pushes
   can win, every other attempt must be counted rejected — no lost or
   double-counted admissions under contention. *)
let test_admission_concurrent_flood () =
  let depth = 16 and domains = 8 and per = 100 in
  let q = Admission.create ~depth in
  let go = Atomic.make false in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            let won = ref 0 in
            for i = 1 to per do
              if Admission.try_push q ((d * per) + i) then incr won
            done;
            !won))
  in
  Atomic.set go true;
  let won = List.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
  Alcotest.(check int) "exactly depth admissions" depth won;
  let c = Admission.counters q in
  Alcotest.(check int) "pushed = winners" depth c.Admission.pushed;
  Alcotest.(check int) "every loser rejected"
    ((domains * per) - depth)
    c.Admission.rejected;
  let drained = ref 0 in
  Admission.close q;
  let rec drain () =
    match Admission.pop q with
    | Some _ ->
      incr drained;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "nothing lost in the queue" depth !drained

(* --- metrics --------------------------------------------------------------------- *)

let test_metrics_invariants () =
  let m = Metrics.create () in
  for _ = 1 to 10 do
    Metrics.on_received m
  done;
  for _ = 1 to 8 do
    Metrics.on_admitted m
  done;
  Metrics.on_rejected_queue m;
  Metrics.on_rejected_queue m;
  List.iteri
    (fun i f -> f m ~latency_ms:(float_of_int (i + 1)))
    [ Metrics.on_completed; Metrics.on_completed; Metrics.on_completed;
      Metrics.on_completed; Metrics.on_degraded; Metrics.on_failed ];
  Metrics.on_rejected_deadline m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "received partitions" s.Metrics.received
    (s.Metrics.admitted + s.Metrics.rejected_queue);
  Alcotest.(check int) "admitted partitions" s.Metrics.admitted
    (s.Metrics.completed + s.Metrics.degraded + s.Metrics.failed
    + s.Metrics.rejected_deadline + s.Metrics.in_flight);
  Alcotest.(check int) "one in flight" 1 s.Metrics.in_flight;
  Alcotest.(check int) "six samples" 6 s.Metrics.samples;
  Alcotest.(check bool) "percentiles ordered" true
    (s.Metrics.p50_ms <= s.Metrics.p95_ms
    && s.Metrics.p95_ms <= s.Metrics.p99_ms
    && s.Metrics.p99_ms <= s.Metrics.max_ms);
  Alcotest.(check (float 1e-9)) "max" 6. s.Metrics.max_ms

let test_metrics_reservoir_bounded () =
  (* capacity floors at 1024 (the initial buffer) *)
  let m = Metrics.create ~latency_capacity:1024 () in
  for i = 1 to 10_000 do
    Metrics.on_received m;
    Metrics.on_admitted m;
    Metrics.on_completed m ~latency_ms:(float_of_int i)
  done;
  let s = Metrics.snapshot m in
  Alcotest.(check bool) "samples bounded by capacity" true
    (s.Metrics.samples <= 1024 && s.Metrics.samples > 0);
  Alcotest.(check int) "counts still exact" 10_000 s.Metrics.completed;
  Alcotest.(check bool) "percentiles in range" true
    (s.Metrics.p50_ms >= 1. && s.Metrics.p99_ms <= 10_000.)

(* --- serve loop: differential identity ------------------------------------------- *)

(* The server's answers must be bit-identical to one-shot runs: same rows
   in the same order (same JSON rendering) and the same measured cost
   vector, because execution is serialized over the same deterministic
   mediator construction. *)
let test_serve_differential_identity () =
  let reference = make_mediator () in
  with_server (fun _srv addr _med ->
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iteri
            (fun i sql ->
              let resp = Client.query ~id:(Json.Int i) c sql in
              Alcotest.(check string) "ok" "ok" (status resp);
              let expected = Mediator.run_query reference sql in
              let expected_rows =
                Json.List
                  (List.map Protocol.json_of_tuple expected.Mediator.rows)
              in
              Alcotest.(check string)
                (Printf.sprintf "rows of %S bit-identical" sql)
                (Json.to_string expected_rows)
                (Json.to_string (field "rows" resp));
              Alcotest.(check int) "row_count"
                (List.length expected.Mediator.rows)
                (int_field "row_count" resp);
              (match Json.float_member "measured_ms" resp with
               | Some measured ->
                 Alcotest.(check int64) "measured cost bits"
                   (bits expected.Mediator.measured.Disco_exec.Run.total_time)
                   (bits measured)
               | None -> Alcotest.fail "no measured_ms"))
            queries))

(* --- serve loop: concurrent multi-tenant clients --------------------------------- *)

let test_serve_concurrent_tenants () =
  let reference = make_mediator () in
  let expected =
    List.map
      (fun sql ->
        let a = Mediator.run_query reference sql in
        ( sql,
          Json.to_string
            (Json.List (List.map Protocol.json_of_tuple a.Mediator.rows)) ))
      queries
  in
  let tenants = 6 and rounds = 2 in
  with_server ~workers:4 (fun srv addr med ->
      let mismatches = Array.make tenants 0 in
      let failures = Array.make tenants 0 in
      let threads =
        List.init tenants (fun tn ->
            Thread.create
              (fun () ->
                let c = Client.connect_retry addr in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    for _ = 1 to rounds do
                      List.iter
                        (fun (sql, want) ->
                          let resp =
                            Client.query
                              ~tenant:(Printf.sprintf "tenant-%d" tn) c sql
                          in
                          if status resp <> "ok" then
                            failures.(tn) <- failures.(tn) + 1
                          else if
                            Json.to_string (field "rows" resp) <> want
                          then mismatches.(tn) <- mismatches.(tn) + 1)
                        expected
                    done))
              ())
      in
      List.iter Thread.join threads;
      let total a = Array.fold_left ( + ) 0 a in
      Alcotest.(check int) "every query answered ok" 0 (total failures);
      Alcotest.(check int)
        "every answer bit-identical to the one-shot reference" 0
        (total mismatches);
      (* exact accounting: the server agrees with what the clients saw *)
      let sent = tenants * rounds * List.length queries in
      let s = Metrics.snapshot (Server.metrics srv) in
      Alcotest.(check int) "received = sent" sent s.Metrics.received;
      Alcotest.(check int) "all admitted" sent s.Metrics.admitted;
      Alcotest.(check int) "all completed" sent s.Metrics.completed;
      Alcotest.(check int) "none in flight" 0 s.Metrics.in_flight;
      let a = Server.admission_counters srv in
      Alcotest.(check int) "admission pushed" sent a.Admission.pushed;
      Alcotest.(check int) "admission popped" sent a.Admission.popped;
      Alcotest.(check int) "admission rejected" 0 a.Admission.rejected;
      (* one history partition per tenant, each fed by its own traffic *)
      let mj = Server.metrics_json srv in
      let stats = field "stats" mj in
      Alcotest.(check int) "one partition per tenant" tenants
        (int_field "tenants" stats);
      ignore med)

(* --- serve loop: rejections ------------------------------------------------------ *)

let test_serve_deadline_rejection () =
  with_server (fun srv addr _med ->
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* a zero budget has always expired by dequeue time: rejected
             deterministically, without execution *)
          let resp =
            Client.query ~id:(Json.Int 9) ~deadline_ms:0. c (List.hd queries)
          in
          Alcotest.(check string) "rejected" "rejected" (status resp);
          Alcotest.(check (option string)) "reason" (Some "deadline")
            (Json.string_member "reason" resp);
          Alcotest.(check (option string)) "id echoed" None
            (if Json.member "id" resp = Some (Json.Int 9) then None
             else Some "id lost");
          let s = Metrics.snapshot (Server.metrics srv) in
          Alcotest.(check int) "counted as deadline rejection" 1
            s.Metrics.rejected_deadline;
          Alcotest.(check int) "not completed" 0 s.Metrics.completed;
          (* the connection survives a rejection *)
          let resp = Client.query c (List.hd queries) in
          Alcotest.(check string) "next query fine" "ok" (status resp)))

(* A [lang_match] whose callers block until the gate is released: the
   query calling it holds the execution lock while it waits. *)
type gate = {
  gm : Mutex.t;
  gc : Condition.t;
  mutable entered : bool;
  mutable released : bool;
}

let gated_mediator g =
  let adt =
    { Demo.lang_match with
      Disco_exec.Adt.impl =
        (fun a v ->
          Mutex.protect g.gm (fun () ->
              g.entered <- true;
              Condition.broadcast g.gc;
              while not g.released do
                Condition.wait g.gc g.gm
              done);
          Demo.lang_match.Disco_exec.Adt.impl a v) }
  in
  let med = Mediator.create () in
  List.iter
    (fun (w : Wrapper.t) ->
      Mediator.register med
        (if w.Wrapper.name = "files" then { w with Wrapper.adts = [ adt ] } else w))
    (Demo.make ~sizes:Demo.small_sizes ());
  med

(* Query B reaches the second worker while query A holds the execution
   lock, and its deadline passes before A finishes: B is rejected when it
   gets the lock, not run. The gate opens only after B's deadline, so the
   outcome does not depend on timing. *)
let test_serve_deadline_waiting_for_lock () =
  let g = { gm = Mutex.create (); gc = Condition.create (); entered = false; released = false } in
  with_server ~med:(gated_mediator g) ~workers:2 (fun srv addr _med ->
      let ask ?deadline_ms sql out =
        Thread.create
          (fun () ->
            let c = Client.connect_retry addr in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> out := Some (Client.query ?deadline_ms c sql)))
          ()
      in
      let a_resp = ref None and b_resp = ref None in
      let a =
        ask "select d.doc_id from Document d where lang_match(d.lang, \"en\")" a_resp
      in
      let entered () = Mutex.protect g.gm (fun () -> g.entered) in
      while not (entered () || Option.is_some !a_resp) do
        Thread.delay 0.001
      done;
      Alcotest.(check bool) "A holds the lock, blocked in the ADT" true (entered ());
      let deadline_ms = 200. in
      let b = ask ~deadline_ms (List.hd queries) b_resp in
      (* the second worker has taken B off the queue and waits for the lock *)
      while (Server.admission_counters srv).Admission.popped < 2 do
        Thread.delay 0.001
      done;
      Thread.delay ((deadline_ms /. 1000.) +. 0.1);
      Mutex.protect g.gm (fun () ->
          g.released <- true;
          Condition.broadcast g.gc);
      Thread.join a;
      Thread.join b;
      Alcotest.(check string) "A ok" "ok" (status (Option.get !a_resp));
      let b = Option.get !b_resp in
      Alcotest.(check string) "B rejected" "rejected" (status b);
      Alcotest.(check (option string)) "reason" (Some "deadline")
        (Json.string_member "reason" b);
      let s = Metrics.snapshot (Server.metrics srv) in
      Alcotest.(check int) "deadline rejections" 1 s.Metrics.rejected_deadline;
      Alcotest.(check int) "completed" 1 s.Metrics.completed;
      Alcotest.(check int) "none in flight" 0 s.Metrics.in_flight;
      Alcotest.(check int) "admitted partitions exactly" s.Metrics.admitted
        (s.Metrics.completed + s.Metrics.degraded + s.Metrics.failed
        + s.Metrics.rejected_deadline + s.Metrics.in_flight))

(* Flood a tiny server from concurrent clients. Whether any individual
   push wins is timing-dependent; what must be exact is the accounting:
   every request is answered, every answer is ok or queue_full, and the
   server's counters match the clients' tallies precisely. *)
let test_serve_backpressure_accounting () =
  with_server ~queue_depth:1 ~workers:1 (fun srv addr _med ->
      let clients = 8 and per = 15 in
      let ok = Array.make clients 0 in
      let rejected = Array.make clients 0 in
      let other = Array.make clients 0 in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                let c = Client.connect_retry addr in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    for _ = 1 to per do
                      let resp = Client.query c (List.hd queries) in
                      match
                        (status resp, Json.string_member "reason" resp)
                      with
                      | "ok", _ -> ok.(i) <- ok.(i) + 1
                      | "rejected", Some "queue_full" ->
                        rejected.(i) <- rejected.(i) + 1
                      | _ -> other.(i) <- other.(i) + 1
                    done))
              ())
      in
      List.iter Thread.join threads;
      let total a = Array.fold_left ( + ) 0 a in
      let sent = clients * per in
      Alcotest.(check int) "no unexpected statuses" 0 (total other);
      Alcotest.(check int) "every request answered" sent
        (total ok + total rejected);
      let s = Metrics.snapshot (Server.metrics srv) in
      Alcotest.(check int) "received = sent" sent s.Metrics.received;
      Alcotest.(check int) "completions match client view" (total ok)
        s.Metrics.completed;
      Alcotest.(check int) "rejections match client view" (total rejected)
        s.Metrics.rejected_queue;
      Alcotest.(check int) "received partitions exactly" s.Metrics.received
        (s.Metrics.admitted + s.Metrics.rejected_queue);
      Alcotest.(check int) "none in flight at rest" 0 s.Metrics.in_flight;
      let a = Server.admission_counters srv in
      Alcotest.(check int) "admission rejections agree" (total rejected)
        a.Admission.rejected)

(* --- snapshot warm restart ------------------------------------------------------- *)

let test_snapshot_warm_restart () =
  let snap = Filename.temp_file "disco-snap" ".bin" in
  Sys.remove snap;
  let sources = [ "relstore"; "objstore"; "files"; "web" ] in
  let adjusts1, clock1, records1 =
    let result = ref (([] : (string * float) list), 0., 0) in
    with_server ~history:(History.Adjust { smoothing = 0.6 }) ~snapshot_path:snap
      (fun srv addr med ->
        let c = Client.connect_retry addr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            List.iter
              (fun tenant ->
                List.iter
                  (fun sql ->
                    Alcotest.(check string) "warmup ok" "ok"
                      (status (Client.query ~tenant c sql)))
                  queries)
              [ "acme"; "globex" ];
            (match Json.string_member "status" (Client.snapshot c) with
             | Some "ok" -> ()
             | _ -> Alcotest.fail "snapshot op failed");
            let stats = field "stats" (Server.metrics_json srv) in
            result :=
              ( List.map
                  (fun s ->
                    (s, Registry.adjust (Mediator.registry med) ~source:s))
                  sources,
                Mediator.now med,
                int_field "history_records" stats )));
    !result
  in
  Alcotest.(check bool) "traffic trained the factors" true
    (List.exists (fun (_, f) -> f <> 1.) adjusts1);
  Alcotest.(check bool) "records were kept" true (records1 > 0);
  (* a brand-new process: fresh mediator, same snapshot path *)
  with_server ~history:(History.Adjust { smoothing = 0.6 }) ~snapshot_path:snap
    (fun srv addr med ->
      List.iter
        (fun (s, f1) ->
          Alcotest.(check int64)
            (Printf.sprintf "adjust factor of %s restored exactly" s)
            (bits f1)
            (bits (Registry.adjust (Mediator.registry med) ~source:s)))
        adjusts1;
      Alcotest.(check int64) "simulated clock restored" (bits clock1)
        (bits (Mediator.now med));
      let stats = field "stats" (Server.metrics_json srv) in
      Alcotest.(check int) "history records restored" records1
        (int_field "history_records" stats);
      Alcotest.(check int) "both tenants restored" 2 (int_field "tenants" stats);
      (* and the warm server still answers *)
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check string) "warm server serves" "ok"
            (status (Client.query ~tenant:"acme" c (List.hd queries)))));
  if Sys.file_exists snap then Sys.remove snap

(* --- HTTP endpoints and lifecycle ------------------------------------------------ *)

let http_get addr path =
  let (Server.Unix_socket sock_path | Server.Tcp { host = sock_path; _ }) =
    addr
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  let out = Printf.sprintf "GET %s HTTP/1.0\r\n" path in
  ignore (Unix.write_substring fd out 0 (String.length out));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec read_all () =
    match Unix.read fd chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read_all ()
    | exception Unix.Unix_error _ -> ()
  in
  read_all ();
  Unix.close fd;
  Buffer.contents buf

let test_http_endpoints () =
  with_server (fun _srv addr _med ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      let metrics = http_get addr "/metrics" in
      Alcotest.(check bool) "200 with metrics body" true
        (contains metrics "HTTP/1.0 200 OK" && contains metrics "\"admission\"");
      let health = http_get addr "/health" in
      Alcotest.(check bool) "200 with health body" true
        (contains health "HTTP/1.0 200 OK" && contains health "\"sources\"");
      let missing = http_get addr "/nope" in
      Alcotest.(check bool) "404 otherwise" true
        (contains missing "HTTP/1.0 404"))

(* Regression: requests were read with an unbounded [input_line], so a
   client sending a long line without a newline made the server buffer all
   of it. A line past 1 MiB gets the typed error and its connection is
   closed, while other clients are still served. *)
let test_request_line_bound () =
  with_server (fun _srv addr _med ->
      let (Server.Unix_socket sock_path | Server.Tcp { host = sock_path; _ }) =
        addr
      in
      (* the server closes mid-line: the writer gets EPIPE, not the signal *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock_path);
      (* a server that keeps the connection open fails the test, not hangs it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let line = Bytes.make ((2 * 1024 * 1024) + 1) 'x' in
      Bytes.set line (Bytes.length line - 1) '\n';
      let writer =
        Thread.create
          (fun () ->
            try ignore (Unix.write fd line 0 (Bytes.length line))
            with Unix.Unix_error _ -> ())
          ()
      in
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let rec read_all () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Closed
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_all ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Closed
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Open
      in
      let closed = read_all () in
      Unix.shutdown fd Unix.SHUTDOWN_ALL;
      Thread.join writer;
      Unix.close fd;
      let reply = Buffer.contents buf in
      (match Json.parse (String.trim reply) with
       | Ok j ->
         Alcotest.(check string) "typed error" "error" (status j);
         Alcotest.(check (option string)) "names the limit"
           (Some "request line longer than 1048576 bytes")
           (Json.string_member "error" j)
       | Error e -> Alcotest.failf "reply %S is not one JSON line: %s" reply e);
      Alcotest.(check bool) "connection closed" true (closed = `Closed);
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check string) "another client is answered" "ok"
            (status (Client.query c (List.hd queries)))))

(* A query field with a value outside its type is refused by name, not
   read as its default: an unknown objective used to be planned for total
   time, a non-numeric deadline ignored and a non-string tenant sent to the
   default tenant. Well-formed values of the three are still answered. *)
let test_malformed_query_fields () =
  with_server (fun _srv addr _med ->
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let sql = ("sql", Json.String "select e.id from Employee e") in
          let send extra = Client.request c (Json.Obj (("op", Json.String "query") :: sql :: extra)) in
          List.iter
            (fun (name, v) ->
              let reply = send [ (name, v) ] in
              Alcotest.(check string) (name ^ " refused") "error" (status reply);
              Alcotest.(check (option string)) (name ^ " named")
                (Some (Printf.sprintf "malformed %S" name))
                (Json.string_member "error" reply))
            [ ("objective", Json.String "fastest");
              ("objective", Json.Int 1);
              ("deadline_ms", Json.String "soon");
              ("tenant", Json.Int 7) ];
          Alcotest.(check string) "well-formed fields answered" "ok"
            (status
               (send
                  [ ("objective", Json.String "first");
                    ("deadline_ms", Json.Int 60_000);
                    ("tenant", Json.String "t1") ]))))

(* [History.count] is the record count without copying the list: equal to
   [List.length (records h)] after observations, after [forget] and after
   a snapshot restore, and free to call. *)
let test_history_count () =
  let med = make_mediator ~history:(History.Adjust { smoothing = 0.5 }) () in
  let h = Mediator.history med in
  let check what h =
    Alcotest.(check int) what (List.length (History.records h)) (History.count h)
  in
  check "empty" h;
  List.iter (fun sql -> ignore (Mediator.run_query med sql)) queries;
  check "after observations" h;
  Alcotest.(check bool) "records were kept" true (History.count h > 0);
  let words () =
    Gc.minor ();
    ignore (Gc.major_slice 0);
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let n = ref 0 in
  for _ = 1 to 1000 do n := !n + History.count h done;
  let allocated = words () -. before in
  ignore (Sys.opaque_identity !n);
  (* the two [quick_stat] records of the measurement itself *)
  if allocated > 64. then
    Alcotest.failf "1,000 calls of History.count allocated %.0f words" allocated;
  let state = Snapshot.capture med ~tenants:[ ("default", h) ] in
  let restored =
    Snapshot.restore (make_mediator ())
      ~fresh_tenant:(fun _ -> History.create (Mediator.registry med))
      state
  in
  List.iter (fun (_, h') -> check "after restore" h') restored;
  Alcotest.(check int) "restore replays every record" (History.count h)
    (List.fold_left (fun acc (_, h') -> acc + History.count h') 0 restored);
  History.forget h;
  check "after forget" h;
  Alcotest.(check int) "forget empties" 0 (History.count h)

(* Every byte of a snapshot with history records flipped with each of the
   masks 0x01, 0x80 and 0xff: every damaged file must load as [Error] —
   never crash the process, never load silently. A version-1 file (no
   digest) is refused by its version. *)
let test_snapshot_corruption_sweep () =
  let med = make_mediator ~history:(History.Adjust { smoothing = 0.6 }) () in
  List.iter (fun sql -> ignore (Mediator.run_query med sql)) queries;
  let state = Snapshot.capture med ~tenants:[ ("default", Mediator.history med) ] in
  Alcotest.(check bool) "the snapshot holds history records" true
    (List.exists (fun ts -> ts.Snapshot.records <> []) state.Snapshot.tenants);
  let path = Filename.temp_file "disco-test" ".snap" in
  let damaged = path ^ ".damaged" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; damaged ])
    (fun () ->
      Snapshot.save ~path state;
      (match Snapshot.load ~path with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "the intact snapshot was refused: %s" e);
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let write text = Out_channel.with_open_bin damaged (fun oc -> output_string oc text) in
      let loaded = ref [] in
      String.iteri
        (fun pos c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string bytes in
              Bytes.set b pos (Char.chr (Char.code c lxor mask));
              write (Bytes.to_string b);
              match Snapshot.load ~path:damaged with
              | Error _ -> ()
              | Ok _ -> loaded := (pos, mask) :: !loaded)
            [ 0x01; 0x80; 0xff ])
        bytes;
      (match !loaded with
       | [] -> ()
       | l ->
         Alcotest.failf "%d of %d damaged snapshots loaded, e.g. byte %d ^ 0x%02x"
           (List.length l) (3 * String.length bytes) (fst (List.hd l)) (snd (List.hd l)));
      let v1 = Buffer.create 64 in
      Buffer.add_string v1 "disco-snapshot\n";
      Buffer.add_int32_be v1 1l;
      Buffer.add_string v1 (Marshal.to_string state []);
      write (Buffer.contents v1);
      match Snapshot.load ~path:damaged with
      | Error e ->
        Alcotest.(check string) "version-1 file refused by its version"
          "snapshot version 1, expected 2" e
      | Ok _ -> Alcotest.fail "a version-1 snapshot loaded")

(* A snapshot file that is there but refused is moved to [<path>.rejected]
   before the server starts, with one warning naming both paths; the
   server comes up cold and its shutdown snapshot lands at [path], not
   over the refused bytes. *)
let test_snapshot_refused_kept () =
  let med = make_mediator ~history:(History.Adjust { smoothing = 0.6 }) () in
  List.iter (fun sql -> ignore (Mediator.run_query med sql)) queries;
  let path = Filename.temp_file "disco-test" ".snap" in
  let rejected = path ^ ".rejected" in
  Snapshot.save ~path (Snapshot.capture med ~tenants:[ ("default", Mediator.history med) ]);
  let flipped =
    let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x80));
    Bytes.to_string b
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc flipped);
  let warnings = ref [] in
  let report _src level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun msg ->
            if level = Logs.Warning then warnings := msg :: !warnings;
            over ();
            k ())
          fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level;
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; rejected ])
    (fun () ->
      with_server ~history:(History.Adjust { smoothing = 0.6 }) ~snapshot_path:path
        (fun srv _ _ ->
          Alcotest.(check int) "started cold" 0
            (int_field "history_records" (field "stats" (Server.metrics_json srv))));
      Alcotest.(check string) "the refused bytes are kept" flipped
        (In_channel.with_open_bin rejected In_channel.input_all);
      Alcotest.(check bool) "the shutdown snapshot went to the path" true
        (Result.is_ok (Snapshot.load ~path));
      match !warnings with
      | [ w ] ->
        let mentions p =
          let n = String.length p in
          let rec at i = i + n <= String.length w && (String.sub w i n = p || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) ("the warning names both paths: " ^ w) true
          (mentions ("ignoring snapshot " ^ path) && mentions rejected)
      | ws -> Alcotest.failf "%d warnings, expected 1" (List.length ws))

let test_shutdown_op () =
  let med = make_mediator () in
  let addr = Server.Unix_socket (fresh_socket_path ()) in
  let srv = Server.create ~config:(Server.default_config addr) med in
  Server.start srv;
  let c = Client.connect_retry addr in
  Alcotest.(check string) "shutdown acknowledged" "ok"
    (status (Client.shutdown c));
  Client.close c;
  let deadline = Unix.gettimeofday () +. 10. in
  while Server.running srv && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done;
  Alcotest.(check bool) "server stopped" false (Server.running srv);
  (* idempotent: a second stop is a no-op *)
  Server.stop srv

(* --- static-check findings: one encoding on the wire and in the CLI --------- *)

let test_invalid_plan_findings () =
  (* corrupt the model as test_verify's run_query ~verify test does: the
     served query is rejected with exactly verify_plan's error findings,
     each encoded by json_of_finding, scope included *)
  let med = make_mediator () in
  let sql = "select e.name from Employee e where e.salary > 5000" in
  let plan, _ = Mediator.plan_query med sql in
  ignore
    (Registry.add_query_rule (Mediator.registry med) ~source:"mediator" plan
       [ (Disco_costlang.Ast.Total_time, Float.neg_infinity) ]);
  let errors = Disco_analysis.Finding.errors (Mediator.verify_plan med plan) in
  Alcotest.(check bool) "the corruption is found" true (errors <> []);
  with_server ~med (fun _srv addr _med ->
      let c = Client.connect_retry addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let resp = Client.query ~id:(Json.Int 1) c sql in
          Alcotest.(check string) "rejected" "rejected" (status resp);
          Alcotest.(check (option string)) "reason" (Some "invalid_plan")
            (Json.string_member "reason" resp);
          let findings = field "findings" resp in
          Alcotest.(check string) "findings = json_of_finding (verify_plan)"
            (Json.to_string (Json.List (List.map Protocol.json_of_finding errors)))
            (Json.to_string findings);
          match findings with
          | Json.List (f :: _) ->
            Alcotest.(check (option string)) "scope on the wire" (Some "query")
              (Json.string_member "scope" f)
          | _ -> Alcotest.fail "no findings"))

let test_finding_roundtrip () =
  let f =
    { Disco_analysis.Finding.severity = Warning;
      tag = "t";
      source = Some "s\"rc";
      operator = None;
      scope = Some Scope.Query;
      loc = Some { Disco_costlang.Ast.line = 3; col = 14 };
      where = "rule scan(C)";
      msg = "a \"quoted\" name,\na second line, a \x01 and a \\" }
  in
  let j = Protocol.json_of_finding f in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "finding does not parse back: %s" e
  | Ok j' ->
    Alcotest.(check string) "same value" (Json.to_string j) (Json.to_string j');
    Alcotest.(check (option string)) "message" (Some f.msg)
      (Json.string_member "msg" j');
    Alcotest.(check (option string)) "source" (Some "s\"rc")
      (Json.string_member "source" j');
    Alcotest.(check bool) "absent operator is null" true
      (Json.member "operator" j' = Some Json.Null);
    Alcotest.(check (option int)) "col" (Some 14) (Json.int_member "col" j')

let () =
  Alcotest.run "server"
    [ ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode + errors" `Quick
            test_json_unicode_and_errors ] );
      ( "admission",
        [ Alcotest.test_case "bounds and order" `Quick
            test_admission_bounds_and_order;
          Alcotest.test_case "concurrent flood" `Quick
            test_admission_concurrent_flood ] );
      ( "metrics",
        [ Alcotest.test_case "invariants" `Quick test_metrics_invariants;
          Alcotest.test_case "reservoir bounded" `Quick
            test_metrics_reservoir_bounded ] );
      ( "serve",
        [ Alcotest.test_case "differential identity" `Quick
            test_serve_differential_identity;
          Alcotest.test_case "concurrent tenants" `Quick
            test_serve_concurrent_tenants;
          Alcotest.test_case "deadline rejection" `Quick
            test_serve_deadline_rejection;
          Alcotest.test_case "deadline while waiting for the lock" `Quick
            test_serve_deadline_waiting_for_lock;
          Alcotest.test_case "backpressure accounting" `Quick
            test_serve_backpressure_accounting ] );
      ( "snapshot",
        [ Alcotest.test_case "warm restart" `Quick test_snapshot_warm_restart;
          Alcotest.test_case "history count" `Quick test_history_count;
          Alcotest.test_case "corrupted files refused" `Quick
            test_snapshot_corruption_sweep;
          Alcotest.test_case "refused file kept" `Quick test_snapshot_refused_kept ] );
      ( "endpoints",
        [ Alcotest.test_case "http" `Quick test_http_endpoints;
          Alcotest.test_case "request line bound" `Quick test_request_line_bound;
          Alcotest.test_case "malformed query fields" `Quick test_malformed_query_fields;
          Alcotest.test_case "shutdown op" `Quick test_shutdown_op ] );
      ( "findings",
        [ Alcotest.test_case "invalid_plan encoding" `Quick
            test_invalid_plan_findings;
          Alcotest.test_case "finding round-trip" `Quick test_finding_roundtrip ] ) ]
