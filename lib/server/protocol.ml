(* The serve-loop wire protocol: one JSON object per line, both ways.

   Requests:
     {"op":"query","sql":"select ...","id":7,"tenant":"acme",
      "objective":"total","deadline_ms":2000}     id/tenant/... optional
     {"op":"metrics"}   {"op":"health"}   {"op":"snapshot"}   {"op":"ping"}
     {"op":"shutdown"}

   Plain HTTP GETs are also accepted on the same socket for the two
   observability endpoints — [GET /health] and [GET /metrics] answer a
   minimal HTTP/1.0 response with the same JSON body and close the
   connection — so a curl-shaped client needs no protocol support.

   Responses to queries:
     {"id":7,"status":"ok","rows":[{...}],"row_count":3,
      "measured_ms":41.2,"estimated_ms":44.0,"replans":0,"wall_ms":1.9}
     {"id":7,"status":"degraded","failures":[...],"replans":2}
     {"id":7,"status":"rejected","reason":"queue_full"}
     {"id":7,"status":"rejected","reason":"deadline"}
     {"id":7,"status":"rejected","reason":"invalid_plan","findings":[...]}
     {"id":7,"status":"error","error":"..."} *)

open Disco_common
open Disco_costlang
open Disco_core
open Disco_analysis
open Disco_exec
open Disco_mediator

type request =
  | Query of {
      id : Json.t;             (* echoed verbatim; Null when absent *)
      tenant : string;         (* "" = the anonymous default tenant *)
      sql : string;
      objective : Optimizer.objective;
      deadline_ms : float option;
    }
  | Metrics
  | Health
  | Snapshot
  | Ping
  | Shutdown
  | Http_get of string  (* path; answer HTTP-ish and close *)

let default_tenant = "default"

let parse_request (line : string) : (request, string) result =
  let line = String.trim line in
  if line = "" then Error "empty request"
  else if String.length line >= 4 && String.sub line 0 4 = "GET " then begin
    (* "GET /metrics HTTP/1.1" or just "GET /metrics" *)
    let rest = String.sub line 4 (String.length line - 4) in
    let path =
      match String.index_opt rest ' ' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    Ok (Http_get path)
  end
  else
    match Json.parse line with
    | Error e -> Error ("bad json: " ^ e)
    | Ok j ->
      (match Json.string_member "op" j with
       | Some "metrics" -> Ok Metrics
       | Some "health" -> Ok Health
       | Some "snapshot" -> Ok Snapshot
       | Some "ping" -> Ok Ping
       | Some "shutdown" -> Ok Shutdown
       | Some "query" | None ->
         (match Json.string_member "sql" j with
          | None -> Error "query without \"sql\""
          | Some sql ->
            let objective =
              match Json.string_member "objective" j with
              | Some "first" -> Optimizer.First_tuple
              | Some "total" | None -> Optimizer.Total_time
              | Some _ -> Optimizer.Total_time
            in
            Ok
              (Query
                 { id = Option.value ~default:Json.Null (Json.member "id" j);
                   tenant =
                     Option.value ~default:default_tenant
                       (Json.string_member "tenant" j);
                   sql;
                   objective;
                   deadline_ms = Json.float_member "deadline_ms" j }))
       | Some op -> Error (Printf.sprintf "unknown op %S" op))

(* --- response rendering -------------------------------------------------------- *)

let json_of_constant : Constant.t -> Json.t = function
  | Constant.Null -> Json.Null
  | Constant.Bool b -> Json.Bool b
  | Constant.Int i -> Json.Int i
  | Constant.Float f -> Json.Float f
  | Constant.String s -> Json.String s

let json_of_tuple (tu : Tuple.t) : Json.t =
  Json.Obj
    (Array.to_list
       (Array.map2
          (fun attr v -> (attr, json_of_constant v))
          tu.Tuple.attrs tu.Tuple.values))

let json_of_submit_failure (f : Run.submit_failure) : Json.t =
  Json.Obj
    [ ("source", Json.String f.Run.source);
      ("attempts", Json.Int f.Run.attempts);
      ("elapsed_ms", Json.Float f.Run.elapsed_ms);
      ("reason", Json.String (Run.reason_to_string f.Run.reason)) ]

let ok_response ~id ~(answer : Mediator.answer) ~estimated_ms ~wall_ms : Json.t =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "ok");
      ("rows", Json.List (List.map json_of_tuple answer.Mediator.rows));
      ("row_count", Json.Int (List.length answer.Mediator.rows));
      ("measured_ms", Json.Float answer.Mediator.measured.Run.total_time);
      ("estimated_ms", Json.Float estimated_ms);
      ("replans", Json.Int answer.Mediator.replans);
      ("wall_ms", Json.Float wall_ms) ]

let degraded_response ~id ~(report : Mediator.report) ~wall_ms : Json.t =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "degraded");
      ("replans", Json.Int report.Mediator.replans);
      ("failures",
       Json.List (List.map json_of_submit_failure report.Mediator.failures));
      ("unavailable",
       Json.List
         (List.map
            (fun (s, at) ->
              Json.Obj
                [ ("source", Json.String s); ("retry_at_ms", Json.Float at) ])
            report.Mediator.unavailable));
      ("wall_ms", Json.Float wall_ms) ]

let rejected_response ~id ~reason : Json.t =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "rejected");
      ("reason", Json.String reason) ]

(* The one encoding of a static-check finding: every field, [null] when
   absent, for [disco lint --json], [disco verify --json] and the wire. *)
let json_of_finding (f : Finding.t) : Json.t =
  let str = Option.fold ~none:Json.Null ~some:(fun s -> Json.String s) in
  let pos get = Option.fold ~none:Json.Null ~some:(fun p -> Json.Int (get p)) f.loc in
  Json.Obj
    [ ("severity", Json.String (Finding.severity_name f.severity));
      ("tag", Json.String f.tag);
      ("source", str f.source);
      ("operator", str f.operator);
      ("scope", str (Option.map Scope.to_string f.scope));
      ("where", Json.String f.where);
      ("line", pos (fun p -> p.Ast.line));
      ("col", pos (fun p -> p.Ast.col));
      ("msg", Json.String f.msg) ]

let invalid_plan_response ~id findings : Json.t =
  Json.Obj
    [ ("id", id);
      ("status", Json.String "rejected");
      ("reason", Json.String "invalid_plan");
      ("findings", Json.List (List.map json_of_finding findings)) ]

let error_response ~id msg : Json.t =
  Json.Obj
    [ ("id", id); ("status", Json.String "error"); ("error", Json.String msg) ]

let json_of_health_state : Health.state -> Json.t = function
  | Health.Closed -> Json.String "closed"
  | Health.Open { until } ->
    Json.Obj [ ("open", Json.Obj [ ("until_ms", Json.Float until) ]) ]
  | Health.Half_open { probing } ->
    Json.Obj [ ("half_open", Json.Obj [ ("probing", Json.Bool probing) ]) ]

let json_of_health ~now (rows : Health.row list) : Json.t =
  Json.Obj
    [ ("status", Json.String "ok");
      ("clock_ms", Json.Float now);
      ("sources",
       Json.List
         (List.map
            (fun (r : Health.row) ->
              Json.Obj
                [ ("source", Json.String r.Health.source);
                  ("state", json_of_health_state r.Health.row_state);
                  ("ok", Json.Int r.Health.ok);
                  ("failed", Json.Int r.Health.failed);
                  ("retried", Json.Int r.Health.retried);
                  ("consecutive", Json.Int r.Health.consecutive);
                  ("probes", Json.Int r.Health.probed);
                  ("last_error",
                   match r.Health.error with
                   | None -> Json.Null
                   | Some e -> Json.String e) ])
            rows)) ]

let http_response (body : Json.t) : string =
  let payload = Json.to_string body ^ "\n" in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: \
     %d\r\nConnection: close\r\n\r\n%s"
    (String.length payload) payload

let http_not_found (path : string) : string =
  let payload =
    Json.to_string
      (Json.Obj
         [ ("status", Json.String "error");
           ("error", Json.String (Printf.sprintf "no such endpoint %s" path)) ])
    ^ "\n"
  in
  Printf.sprintf
    "HTTP/1.0 404 Not Found\r\nContent-Type: application/json\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length payload) payload
