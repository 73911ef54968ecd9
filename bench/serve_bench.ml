(* disco serve under closed-loop multi-client load.

   A fresh server (its own mediator and unix socket) takes a fixed workload
   from C concurrent clients, each running as its own tenant: every client
   blocks on its previous answer before sending the next — the closed-loop
   model, so offered load tracks service rate and the numbers are
   throughput (QPS) and latency percentiles rather than queue growth.
   Queries are serialized on the server's execution lock.

   Two assertions ride along:
   - exact accounting: the server's completed/rejected counters must equal
     what the clients observed, and received must equal queries sent;
   - warm restart: a server stopped with a snapshot and restarted as a new
     process-equivalent (fresh mediator, same path) must come back with
     bit-identical adjustment factors and clock, and all history records.

   The trailing BENCH JSON record carries QPS and latency percentiles for
   archived CI artifacts. *)

open Disco_core
open Disco_wrapper
open Disco_mediator
open Disco_server

let bits = Int64.bits_of_float

let workload =
  [ "select e.name from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id and \
     d.budget > 100000";
    "select t.id from Project p, Task t where t.project_id = p.id";
    "select l.id from Listing l where l.rating >= 2" ]

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "disco-bench-%d-%d.sock" (Unix.getpid ()) !n)

let make_mediator ?(history = History.Off) ~smoke () =
  let sizes = if smoke then Demo.small_sizes else Demo.default_sizes in
  let med = Mediator.create ~history_mode:history () in
  List.iter (Mediator.register med) (Demo.make ~sizes ());
  med

let start_server ?snapshot_path med =
  let addr = Server.Unix_socket (socket_path ()) in
  let config =
    { (Server.default_config addr) with
      Server.queue_depth = 256;
      workers = 4;
      snapshot_path;
      snapshot_every = 0 }
  in
  let srv = Server.create ~config med in
  Server.start srv;
  (srv, addr)

(* C clients, each its own connection and tenant, each sending the whole
   workload [rounds] times, blocking on every answer. Returns the client-
   side tallies and the wall-clock seconds of the full run. *)
let closed_loop ~clients ~rounds addr =
  let ok = Array.make clients 0 in
  let rejected = Array.make clients 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            let c = Client.connect_retry addr in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                for _ = 1 to rounds do
                  List.iter
                    (fun sql ->
                      let resp =
                        Client.query ~tenant:(Printf.sprintf "client-%d" i) c sql
                      in
                      match Json.string_member "status" resp with
                      | Some "ok" -> ok.(i) <- ok.(i) + 1
                      | Some "rejected" -> rejected.(i) <- rejected.(i) + 1
                      | _ -> ())
                    workload
                done))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let total a = Array.fold_left ( + ) 0 a in
  (total ok, total rejected, wall)

let run_point ~smoke ~clients ~rounds =
  let med = make_mediator ~smoke () in
  let srv, addr = start_server med in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let ok, rejected, wall = closed_loop ~clients ~rounds addr in
      let m = Metrics.snapshot (Server.metrics srv) in
      let sent = clients * rounds * List.length workload in
      let counters_match =
        m.Metrics.received = sent
        && m.Metrics.completed = ok
        && m.Metrics.rejected_queue + m.Metrics.rejected_deadline = rejected
        && m.Metrics.in_flight = 0
      in
      (ok, rejected, wall, m, counters_match))

(* Warm restart: train adjustment factors through the server, snapshot,
   then bring up a fresh mediator from the same path and compare bits. *)
let warm_restart_exercise ~smoke () =
  let snap = Filename.temp_file "disco-serve-bench" ".snap" in
  Sys.remove snap;
  let sources = [ "relstore"; "objstore"; "files"; "web" ] in
  let med1 = make_mediator ~history:(History.Adjust { smoothing = 0.6 }) ~smoke () in
  let srv1, addr1 = start_server ~snapshot_path:snap med1 in
  let trained =
    Fun.protect
      ~finally:(fun () -> Server.stop srv1)
      (fun () ->
        ignore (closed_loop ~clients:2 ~rounds:2 addr1);
        ( List.map
            (fun s -> (s, Registry.adjust (Mediator.registry med1) ~source:s))
            sources,
          Mediator.now med1 ))
  in
  (* Server.stop wrote the final snapshot; restart "the process" *)
  let med2 = make_mediator ~history:(History.Adjust { smoothing = 0.6 }) ~smoke () in
  let srv2, _addr2 = start_server ~snapshot_path:snap med2 in
  let restored_ok =
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv2;
        if Sys.file_exists snap then Sys.remove snap)
      (fun () ->
        let factors1, clock1 = trained in
        List.for_all
          (fun (s, f1) ->
            bits f1 = bits (Registry.adjust (Mediator.registry med2) ~source:s))
          factors1
        && bits clock1 = bits (Mediator.now med2))
  in
  restored_ok

let print ?(smoke = false) ?json_path () =
  Util.section "serve: closed-loop multi-client server throughput";
  let clients = if smoke then 4 else 8 in
  let rounds = if smoke then 15 else 40 in
  Fmt.pr "  %d clients (one tenant each), %d queries per client@." clients
    (rounds * List.length workload);
  let ok, rejected, wall, m, counters_match = run_point ~smoke ~clients ~rounds in
  Util.table
    [ "queries"; "rejected"; "wall s"; "qps"; "p50 ms"; "p95 ms"; "p99 ms";
      "max ms" ]
    [ [ string_of_int ok;
        string_of_int rejected;
        Util.f2 wall;
        Util.f1 (float_of_int ok /. wall);
        Util.f2 m.Metrics.p50_ms;
        Util.f2 m.Metrics.p95_ms;
        Util.f2 m.Metrics.p99_ms;
        Util.f2 m.Metrics.max_ms ] ];
  Fmt.pr "  exact accounting (client view = server counters): %s@."
    (if counters_match then "ok" else "MISMATCH");
  let warm_ok = warm_restart_exercise ~smoke () in
  Fmt.pr "  warm restart (factors + clock bit-identical after reload): %s@."
    (if warm_ok then "ok" else "MISMATCH");
  if not (counters_match && warm_ok) then exit 1;
  Util.bench_json ?json_path ~bench:"serve"
    [ Fmt.str {|"qps":%.1f|} (float_of_int ok /. wall);
      Fmt.str {|"p50_ms":%.3f|} m.Metrics.p50_ms;
      Fmt.str {|"p99_ms":%.3f|} m.Metrics.p99_ms;
      Fmt.str {|"clients":%d|} clients;
      Fmt.str {|"queries":%d|} (clients * rounds * List.length workload);
      Fmt.str {|"counters_match":%b|} counters_match;
      Fmt.str {|"warm_restart_ok":%b|} warm_ok ]
