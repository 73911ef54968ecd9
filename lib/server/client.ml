(* A blocking one-request-one-response client for the serve protocol,
   shared by the CLI ([disco metrics]), the closed-loop bench driver and
   the server tests. One [t] is one connection; it is not thread-safe —
   concurrent load comes from many clients, matching the closed-loop
   benchmark model. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect_tcp ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let inet =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  Unix.connect fd (Unix.ADDR_INET (inet, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let connect = function
  | Server.Unix_socket path -> connect_unix path
  | Server.Tcp { host; port } -> connect_tcp ~host ~port

(* Retry briefly: tests and the bench start the server in the background
   and connect as soon as possible. *)
let connect_retry addr =
  let rec go n =
    match connect addr with
    | c -> c
    | exception Unix.Unix_error _ when n > 1 ->
      Thread.delay 0.1;
      go (n - 1)
  in
  go 50

let close t =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t (j : Json.t) : Json.t =
  output_string t.oc (Json.to_string j ^ "\n");
  flush t.oc;
  match input_line t.ic with
  | line ->
    (match Json.parse line with
     | Ok j -> j
     | Error e -> failwith ("client: bad response json: " ^ e))
  | exception End_of_file -> failwith "client: connection closed by server"

let query ?id ?tenant ?objective ?deadline_ms t sql : Json.t =
  let fields =
    List.concat
      [ [ ("op", Json.String "query"); ("sql", Json.String sql) ];
        (match id with Some i -> [ ("id", i) ] | None -> []);
        (match tenant with
         | Some te -> [ ("tenant", Json.String te) ]
         | None -> []);
        (match objective with
         | Some `First -> [ ("objective", Json.String "first") ]
         | Some `Total -> [ ("objective", Json.String "total") ]
         | None -> []);
        (match deadline_ms with
         | Some d -> [ ("deadline_ms", Json.Float d) ]
         | None -> []) ]
  in
  request t (Json.Obj fields)

let op t name = request t (Json.Obj [ ("op", Json.String name) ])
let metrics t = op t "metrics"
let health t = op t "health"
let snapshot t = op t "snapshot"
let shutdown t = op t "shutdown"
