(* An in-process `disco serve` and the two load generators that drive it,
   each over two connections (one client thread and one tenant each):

   - a closed loop, where each client sends its next query when the
     previous answer is back, giving the saturated rate;
   - an open loop, where queries are due on a seeded Poisson schedule
     whatever the server's state, and each one is timed from when it was
     due, so a stall also counts against the queries queued behind it.

   A closed-loop round keeps its replies for checking after the round, so
   the saturated rate is the server's alone. *)

open Disco_server

let clients = 2

type reply = {
  sql : string;
  due : float;  (** when the query was due, s (the send time in a closed loop) *)
  sent : float;
  received : float;
  response : (Json.t, string) result;
}

let sockets = ref 0

(* The socket lives in the working directory: the benchmark writes nowhere
   else. *)
let start med =
  incr sockets;
  let path = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !sockets in
  let config =
    { (Server.default_config (Server.Unix_socket path)) with Server.workers = 2; verify = true }
  in
  let srv = Server.create ~config med in
  Server.start srv;
  (srv, path)

let stop (srv, path) =
  Server.stop srv;
  try Sys.remove path with Sys_error _ -> ()

let send conn ~tenant sql ~due =
  let sent = Unix.gettimeofday () in
  let response =
    match Client.query ~tenant conn sql with
    | j -> Ok j
    | exception (Failure e | Sys_error e) -> Error e
  in
  { sql; due; sent; received = Unix.gettimeofday (); response }

(* Run [work i conn] on client i's own thread and connection; an exception
   in a client (it could not connect, say) is raised again here. *)
let on_clients path work =
  let out = Array.make clients [] and failed = ref None in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            try
              let conn = Client.connect_retry (Server.Unix_socket path) in
              Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> out.(i) <- work i conn)
            with e -> failed := Some e)
          ())
  in
  List.iter Thread.join threads;
  Option.iter raise !failed;
  List.concat (Array.to_list out)

let tenant i = Printf.sprintf "tenant-%d" i

(* One closed-loop round: client i sends the queries at positions i, i + 2,
   ... of [queries]. Returns the replies and the round's wall seconds. *)
let closed_round (_, path) queries =
  let t0 = Unix.gettimeofday () in
  let replies =
    on_clients path (fun i conn ->
        let acc = ref [] in
        Array.iteri
          (fun k sql ->
            if k mod clients = i then
              acc := send conn ~tenant:(tenant i) sql ~due:(Unix.gettimeofday ()) :: !acc)
          queries;
        !acc)
  in
  (replies, Unix.gettimeofday () -. t0)

(* The open loop: arrivals at [rate] per second for [seconds], drawn from
   [st], dealt to the clients in turn; [next_sql] gives each query. Each
   reply goes through [check] on arrival, as a client consumes its answer,
   so the load keeps only what [check] returns. *)
let open_loop (_, path) ~st ~rate ~seconds ~next_sql ~check =
  let arrivals =
    let rec go t acc =
      let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
      if t >= seconds then List.rev acc else go t ((t, next_sql ()) :: acc)
    in
    Array.of_list (go 0. [])
  in
  let start = Unix.gettimeofday () +. 0.01 in
  on_clients path (fun i conn ->
      let acc = ref [] in
      Array.iteri
        (fun k (at, sql) ->
          if k mod clients = i then begin
            let due = start +. at in
            let wait = due -. Unix.gettimeofday () in
            if wait > 0. then Thread.delay wait;
            acc := check (send conn ~tenant:(tenant i) sql ~due) :: !acc
          end)
        arrivals;
      !acc)

type checked = {
  ok : bool;  (** answered, and the answer matches the oracle *)
  latency_ms : float;  (** from due to received *)
  wire_ms : float;  (** client round trip minus the server's own time *)
  lateness_ms : float;  (** how late the generator sent *)
  in_server_ms : float;
  measured_ms : float;
  estimated_ms : float;
}

let check expected r =
  let ms x = 1000. *. x in
  let base =
    { ok = false;
      latency_ms = ms (r.received -. r.due);
      wire_ms = nan;
      lateness_ms = ms (r.sent -. r.due);
      in_server_ms = nan;
      measured_ms = nan;
      estimated_ms = nan }
  in
  match r.response with
  | Error _ -> base
  | Ok j ->
    let num k = Option.value ~default:nan (Json.float_member k j) in
    let ok =
      Json.string_member "status" j = Some "ok"
      &&
      match Json.member "rows" j with
      | Some (Json.List rows) -> Answer.matches_json (Hashtbl.find expected r.sql) rows
      | _ -> false
    in
    let in_server = num "wall_ms" in
    { base with
      ok;
      wire_ms = ms (r.received -. r.sent) -. in_server;
      in_server_ms = in_server;
      measured_ms = num "measured_ms";
      estimated_ms = num "estimated_ms" }
