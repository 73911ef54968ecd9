(* disco serve: the long-running multi-tenant federation front end.

   One process owns one mediator. Each client connection gets a reader
   thread that parses line-delimited JSON requests; queries pass through
   the bounded {!Admission} queue (backpressure: a full queue is an
   immediate structured rejection, not unbounded latency) into a small
   worker pool. Workers serialize execution on [exec_lock] — [run_query]
   mutates the simulated clock, wrapper buffers and the active history
   partition, so one query runs at a time, start to finish, on one domain.
   That serialization is also what makes server answers bit-identical to
   one-shot runs. Reader threads answer metrics and health requests
   without it, while a query runs, so what they read (plan cache, health,
   history counts, admission queue, metrics) keeps its own lock.

   Multi-tenancy is history partitioning: each tenant gets its own
   {!History.t} (created on first use or restored from a snapshot), swapped
   in under [exec_lock] before the query runs. Tenants share the catalog,
   the plan cache, breaker state and registry-level statistics feedback —
   the mediator is common infrastructure; what is isolated is whose
   measured traffic trains which historical-cost partition.

   Observability: [{"op":"metrics"}] / [{"op":"health"}] over the
   protocol, or plain [GET /metrics] / [GET /health] on the same socket
   for curl. Deadlines are wall-clock budgets from receipt; a query whose
   deadline lapses while queued, or while it waits for [exec_lock], is
   rejected without execution. *)

open Disco_core
open Disco_mediator

let src = Logs.Src.create "disco.server" ~doc:"federation server"

module Log = (val Logs.src_log src : Logs.LOG)

type addr = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  addr : addr;
  queue_depth : int;
  workers : int;
  default_deadline_ms : float option;
  snapshot_path : string option;
  snapshot_every : int;
  verify : bool;
      (* whole-plan verification at query admission: an invalid chosen plan
         is rejected with a typed protocol error instead of executed *)
}

let default_config addr =
  { addr;
    queue_depth = 64;
    workers = 2;
    default_deadline_ms = None;
    snapshot_path = None;
    snapshot_every = 32;
    verify = true }

(* A connection is shared between its reader thread and any queued jobs
   still carrying replies to it; the fd closes when the last reference
   drops, so a worker can never write into a recycled descriptor. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wlock : Mutex.t;
  conn_lock : Mutex.t;
  mutable refs : int;
  mutable fd_closed : bool;
}

type job = {
  id : Json.t;
  tenant : string;
  sql : string;
  objective : Optimizer.objective;
  deadline : float option;  (* absolute wall-clock seconds *)
  received_at : float;
  conn : conn;
}

type t = {
  med : Mediator.t;
  config : config;
  queue : job Admission.t;
  metrics : Metrics.t;
  tenants : (string, History.t) Hashtbl.t;
  tenants_lock : Mutex.t;
  exec_lock : Mutex.t;  (* serializes set_history + run_query + snapshot *)
  mutable listen_fd : Unix.file_descr option;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  mutable conns : conn list;  (* open connections, for shutdown *)
  conns_lock : Mutex.t;
  mutable executed : int;  (* queries finished, drives periodic snapshots *)
  mutable invalid_plans : int;  (* queries rejected by plan verification *)
}

(* --- connections ------------------------------------------------------- *)

let conn_of_fd fd =
  { fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    conn_lock = Mutex.create ();
    refs = 1;  (* the reader thread's reference *)
    fd_closed = false }

let conn_incref c = Mutex.protect c.conn_lock (fun () -> c.refs <- c.refs + 1)

let conn_decref t c =
  let close_now =
    Mutex.protect c.conn_lock (fun () ->
        c.refs <- c.refs - 1;
        if c.refs = 0 && not c.fd_closed then begin
          c.fd_closed <- true;
          true
        end
        else false)
  in
  if close_now then begin
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Mutex.protect t.conns_lock (fun () ->
        t.conns <- List.filter (fun c' -> c' != c) t.conns)
  end

let send_line c (j : Json.t) =
  let line = Json.to_string j ^ "\n" in
  Mutex.protect c.wlock (fun () ->
      try
        output_string c.oc line;
        flush c.oc
      with Sys_error _ | Unix.Unix_error _ -> ())
  (* a vanished client is its own problem; the server carries on *)

let send_raw c (s : string) =
  Mutex.protect c.wlock (fun () ->
      try
        output_string c.oc s;
        flush c.oc
      with Sys_error _ | Unix.Unix_error _ -> ())

(* --- tenants ----------------------------------------------------------- *)

let tenant_history t tenant =
  Mutex.protect t.tenants_lock (fun () ->
      match Hashtbl.find_opt t.tenants tenant with
      | Some h -> h
      | None ->
        let h = Mediator.fresh_history t.med in
        Hashtbl.replace t.tenants tenant h;
        h)

let tenant_list t =
  Mutex.protect t.tenants_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tenants [])

(* --- snapshots --------------------------------------------------------- *)

let save_snapshot_locked t path =
  let s = Snapshot.capture t.med ~tenants:(tenant_list t) in
  Snapshot.save ~path s;
  Log.debug (fun m ->
      m "snapshot: %d tenants to %s" (List.length s.Snapshot.tenants) path)

let save_snapshot t =
  match t.config.snapshot_path with
  | None -> None
  | Some path ->
    Mutex.protect t.exec_lock (fun () -> save_snapshot_locked t path);
    Some path

let restore_snapshot t =
  match t.config.snapshot_path with
  | None -> false
  | Some path ->
    (match Snapshot.load ~path with
     | Error e ->
       (* a file that is there but refused is moved aside before anything
          can snapshot over it: the shutdown snapshot would otherwise
          replace the only copy of the learned state with a cold one *)
       if Sys.file_exists path then begin
         let rejected = path ^ ".rejected" in
         match Sys.rename path rejected with
         | () ->
           Log.warn (fun m ->
               m "ignoring snapshot %s: %s; moved it to %s" path e rejected)
         | exception Sys_error r ->
           Log.warn (fun m ->
               m "ignoring snapshot %s: %s; could not move it to %s: %s" path e rejected r)
       end;
       false
     | Ok s ->
       let tenants =
         Snapshot.restore t.med
           ~fresh_tenant:(fun _ -> Mediator.fresh_history t.med)
           s
       in
       Mutex.protect t.tenants_lock (fun () ->
           List.iter (fun (name, h) -> Hashtbl.replace t.tenants name h) tenants);
       Log.info (fun m ->
           m "warm start: %d tenants, %d records from %s"
             (List.length tenants)
             (List.fold_left (fun acc (_, h) -> acc + History.count h) 0 tenants)
             path);
       true)

(* --- observability ----------------------------------------------------- *)

let metrics_json t : Json.t =
  let m = Metrics.snapshot t.metrics in
  let a = Admission.counters t.queue in
  let pc = Plancache.counters (Mediator.plancache t.med) in
  let os = Mediator.optimizer_stats t.med in
  let tenants = tenant_list t in
  let history_records =
    List.fold_left (fun acc (_, h) -> acc + History.count h) 0 tenants
  in
  Json.Obj
    [ ("status", Json.String "ok");
      ("server", Metrics.to_json m);
      ( "admission",
        Json.Obj
          [ ("depth", Json.Int (Admission.depth t.queue));
            ("queued", Json.Int (Admission.length t.queue));
            ("pushed", Json.Int a.Admission.pushed);
            ("rejected", Json.Int a.Admission.rejected);
            ("popped", Json.Int a.Admission.popped) ] );
      ( "plancache",
        Json.Obj
          [ ("enabled", Json.Bool (Mediator.cache_enabled t.med));
            ("hits", Json.Int pc.Plancache.hits);
            ("misses", Json.Int pc.Plancache.misses);
            ("stale", Json.Int pc.Plancache.stale);
            ("evictions", Json.Int pc.Plancache.evictions);
            ("entries", Json.Int pc.Plancache.entries) ] );
      ( "verify",
        Json.Obj
          [ ("enabled", Json.Bool t.config.verify);
            ("invalid_plans", Json.Int t.invalid_plans) ] );
      ( "stats",
        Json.Obj
          [ ( "feedback",
              Json.Bool
                (match Mediator.stats_mode t.med with
                 | Mediator.Stats_off -> false
                 | Mediator.Stats_feedback _ -> true) );
            ("generation", Json.Int (Registry.generation (Mediator.registry t.med)));
            ("history_records", Json.Int history_records);
            ("tenants", Json.Int (List.length tenants)) ] );
      (* cumulative plan-search cost (DESIGN.md §15): the width above which
         queries plan greedily, and how much work plan search does *)
      ( "optimizer",
        Json.Obj
          [ ("enum_threshold", Json.Int Optimizer.default_enum_threshold);
            ("plans_considered", Json.Int os.Optimizer.plans_considered);
            ("plans_aborted", Json.Int os.Optimizer.plans_aborted);
            ("csg_cmp_pairs", Json.Int os.Optimizer.csg_cmp_pairs);
            ("dp_entries", Json.Int os.Optimizer.dp_entries) ] ) ]

let health_json t : Json.t =
  Protocol.json_of_health ~now:(Mediator.now t.med)
    (Health.report (Mediator.health t.med))

(* --- query execution --------------------------------------------------- *)

let expired job ~now =
  match job.deadline with None -> false | Some d -> now >= d

(* The deadline is checked once the job holds [exec_lock]: a job that
   waited behind a running query is judged after that wait, not before. *)
let execute t (job : job) =
  let response =
    Mutex.protect t.exec_lock (fun () ->
        if expired job ~now:(Unix.gettimeofday ()) then begin
          Metrics.on_rejected_deadline t.metrics;
          Protocol.rejected_response ~id:job.id ~reason:"deadline"
        end
        else begin
          Mediator.set_history t.med (tenant_history t job.tenant);
          match
            Mediator.run_query ~objective:job.objective
              ~verify:t.config.verify t.med job.sql
          with
          | answer ->
            let wall_ms = (Unix.gettimeofday () -. job.received_at) *. 1000. in
            Metrics.on_completed t.metrics ~latency_ms:wall_ms;
            t.executed <- t.executed + 1;
            (match t.config.snapshot_path with
             | Some path
               when t.config.snapshot_every > 0
                    && t.executed mod t.config.snapshot_every = 0 ->
               (try save_snapshot_locked t path
                with e ->
                  Log.warn (fun m ->
                      m "snapshot failed: %s" (Printexc.to_string e)))
             | _ -> ());
            Protocol.ok_response ~id:job.id ~answer
              ~estimated_ms:(Estimator.total_time answer.Mediator.estimate)
              ~wall_ms
          | exception Mediator.Degraded report ->
            let wall_ms = (Unix.gettimeofday () -. job.received_at) *. 1000. in
            Metrics.on_degraded t.metrics ~latency_ms:wall_ms;
            t.executed <- t.executed + 1;
            Protocol.degraded_response ~id:job.id ~report ~wall_ms
          | exception Mediator.Invalid_plan findings ->
            let wall_ms = (Unix.gettimeofday () -. job.received_at) *. 1000. in
            Metrics.on_failed t.metrics ~latency_ms:wall_ms;
            t.invalid_plans <- t.invalid_plans + 1;
            Log.warn (fun m ->
                m "query %s rejected: invalid plan (%d findings)"
                  (Json.to_string job.id) (List.length findings));
            Protocol.invalid_plan_response ~id:job.id findings
          | exception e ->
            let wall_ms = (Unix.gettimeofday () -. job.received_at) *. 1000. in
            Metrics.on_failed t.metrics ~latency_ms:wall_ms;
            t.executed <- t.executed + 1;
            Protocol.error_response ~id:job.id (Printexc.to_string e)
        end)
  in
  send_line job.conn response

let worker_loop t =
  let rec loop () =
    match Admission.pop t.queue with
    | None -> ()  (* closed and drained *)
    | Some job ->
      (try execute t job
       with e ->
         Log.err (fun m -> m "worker: %s" (Printexc.to_string e)));
      conn_decref t job.conn;
      loop ()
  in
  loop ()

(* --- request dispatch -------------------------------------------------- *)

let handle_query t conn ~id ~tenant ~sql ~objective ~deadline_ms =
  Metrics.on_received t.metrics;
  let received_at = Unix.gettimeofday () in
  let deadline_ms =
    match deadline_ms with None -> t.config.default_deadline_ms | d -> d
  in
  let deadline = Option.map (fun d -> received_at +. (d /. 1000.)) deadline_ms in
  let job = { id; tenant; sql; objective; deadline; received_at; conn } in
  conn_incref conn;
  if Admission.try_push t.queue job then Metrics.on_admitted t.metrics
  else begin
    conn_decref t conn;
    Metrics.on_rejected_queue t.metrics;
    send_line conn (Protocol.rejected_response ~id ~reason:"queue_full")
  end

let handle_request t conn line =
  match Protocol.parse_request line with
  | Error e ->
    send_line conn (Protocol.error_response ~id:Json.Null e);
    `Continue
  | Ok (Protocol.Query { id; tenant; sql; objective; deadline_ms }) ->
    handle_query t conn ~id ~tenant ~sql ~objective ~deadline_ms;
    `Continue
  | Ok Protocol.Metrics ->
    send_line conn (metrics_json t);
    `Continue
  | Ok Protocol.Health ->
    send_line conn (health_json t);
    `Continue
  | Ok Protocol.Snapshot ->
    (match save_snapshot t with
     | Some path ->
       send_line conn
         (Json.Obj
            [ ("status", Json.String "ok"); ("snapshot", Json.String path) ])
     | None ->
       send_line conn
         (Protocol.error_response ~id:Json.Null "no snapshot path configured"));
    `Continue
  | Ok Protocol.Ping ->
    send_line conn
      (Json.Obj [ ("status", Json.String "ok"); ("pong", Json.Bool true) ]);
    `Continue
  | Ok Protocol.Shutdown ->
    send_line conn (Json.Obj [ ("status", Json.String "ok") ]);
    `Shutdown
  | Ok (Protocol.Http_get path) ->
    (match path with
     | "/metrics" -> send_raw conn (Protocol.http_response (metrics_json t))
     | "/health" -> send_raw conn (Protocol.http_response (health_json t))
     | _ -> send_raw conn (Protocol.http_not_found path));
    `Close

(* --- lifecycle --------------------------------------------------------- *)

let stop t =
  if t.running then begin
    t.running <- false;
    (* the accept loop notices [running] within its select timeout; closing
       the listen socket also prevents any further accepts *)
    (match t.listen_fd with
     | Some fd ->
       t.listen_fd <- None;
       (try Unix.close fd with Unix.Unix_error _ -> ())
     | None -> ());
    Admission.close t.queue;
    List.iter Thread.join t.worker_threads;
    t.worker_threads <- [];
    (match t.accept_thread with
     | Some th ->
       t.accept_thread <- None;
       Thread.join th
     | None -> ());
    (* unblock lingering readers: their read hits EOF and they drop
       their connection reference *)
    let conns = Mutex.protect t.conns_lock (fun () -> t.conns) in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    (match t.config.snapshot_path with
     | Some path ->
       (try Mutex.protect t.exec_lock (fun () -> save_snapshot_locked t path)
        with e ->
          Log.warn (fun m -> m "final snapshot failed: %s" (Printexc.to_string e)))
     | None -> ());
    Log.info (fun m -> m "server stopped")
  end

(* The longest request line the server reads, about 900 times the longest
   benchmark request (a 1.1 KB 24-way join). *)
let max_line_bytes = 1 lsl 20

(* [input_line] that buffers at most [max_line_bytes]: the line without its
   newline (an unterminated last line included), [`Eof], or [`Too_long]. *)
let read_request_line ic buf =
  Buffer.clear buf;
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents buf)
    | c when Buffer.length buf < max_line_bytes ->
      Buffer.add_char buf c;
      go ()
    | _ -> `Too_long
    | exception End_of_file ->
      if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
  in
  go ()

let reader_loop t conn =
  let buf = Buffer.create 1024 in
  let rec loop () =
    match read_request_line conn.ic buf with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | `Eof -> ()
    | `Too_long ->
      (* answer, then close: the rest of the line is never read *)
      send_line conn
        (Protocol.error_response ~id:Json.Null
           (Printf.sprintf "request line longer than %d bytes" max_line_bytes))
    | `Line line ->
      if String.trim line = "" then loop ()
      else
        (match handle_request t conn line with
         | `Continue -> if t.running then loop ()
         | `Close -> ()
         | `Shutdown ->
           (* a reader cannot join the thread pool it runs under *)
           ignore (Thread.create (fun () -> stop t) ()))
  in
  loop ();
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  conn_decref t conn

let accept_loop t listen_fd =
  while t.running do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      (match Unix.accept listen_fd with
       | exception Unix.Unix_error _ -> ()
       | fd, _ ->
         let conn = conn_of_fd fd in
         Mutex.protect t.conns_lock (fun () -> t.conns <- conn :: t.conns);
         ignore (Thread.create (fun () -> reader_loop t conn) ()))
    | exception Unix.Unix_error _ -> ()
  done

let listen_socket = function
  | Unix_socket path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp { host; port } ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let create ?(config = default_config (Unix_socket "/tmp/disco.sock")) med =
  { med;
    config;
    queue = Admission.create ~depth:config.queue_depth;
    metrics = Metrics.create ();
    tenants = Hashtbl.create 8;
    tenants_lock = Mutex.create ();
    exec_lock = Mutex.create ();
    listen_fd = None;
    running = false;
    accept_thread = None;
    worker_threads = [];
    conns = [];
    conns_lock = Mutex.create ();
    executed = 0;
    invalid_plans = 0 }

let start t =
  if t.running then invalid_arg "Server.start: already running";
  ignore (restore_snapshot t);
  let fd = listen_socket t.config.addr in
  t.listen_fd <- Some fd;
  t.running <- true;
  t.worker_threads <-
    List.init (max 1 t.config.workers) (fun _ ->
        Thread.create (fun () -> worker_loop t) ());
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t fd) ());
  Log.info (fun m ->
      m "serving on %s (%d workers, queue %d)"
        (match t.config.addr with
         | Unix_socket p -> p
         | Tcp { host; port } -> Printf.sprintf "%s:%d" host port)
        (max 1 t.config.workers)
        (Admission.depth t.queue))

let running t = t.running
let mediator t = t.med
let metrics t = t.metrics
let admission_counters t = Admission.counters t.queue
let config t = t.config

let wait t =
  let rec loop () =
    if t.running then begin
      Thread.delay 0.1;
      loop ()
    end
  in
  loop ()
