(** The serve-loop wire protocol: one JSON object per line in each
    direction, plus plain [GET /health] / [GET /metrics] HTTP lines for
    curl-shaped clients (answered with a minimal HTTP/1.0 response, then
    the connection closes). *)

open Disco_exec
open Disco_mediator

type request =
  | Query of {
      id : Json.t;    (** echoed verbatim in the response; [Null] if absent *)
      tenant : string;
      sql : string;
      objective : Optimizer.objective;
      deadline_ms : float option;
          (** wall-clock budget from receipt; expired-in-queue queries are
              rejected without execution *)
    }
  | Metrics
  | Health
  | Snapshot   (** persist a warm-restart snapshot now *)
  | Ping
  | Shutdown
  | Http_get of string

val parse_request : string -> (request, string) result
(** A query needs a string ["sql"]. Its optional fields are absent or
    well-formed: ["objective"] is ["first"] or ["total"] (the default),
    ["tenant"] a string (default ["default"]) and ["deadline_ms"] a
    number. Any other value of one of them is an [Error] naming the field,
    never its default. *)

(** {1 Response rendering} *)

val json_of_tuple : Tuple.t -> Json.t
(** An object mapping qualified attribute names to values — the row shape
    the differential tests compare bit-for-bit against locally executed
    queries. *)

val ok_response :
  id:Json.t -> answer:Mediator.answer -> estimated_ms:float -> wall_ms:float ->
  Json.t

val degraded_response : id:Json.t -> report:Mediator.report -> wall_ms:float -> Json.t

val rejected_response : id:Json.t -> reason:string -> Json.t
(** [reason] is ["queue_full"] (backpressure) or ["deadline"]. *)

val json_of_finding : Disco_analysis.Finding.t -> Json.t
(** The one JSON encoding of a static-check finding, shared by the wire,
    [disco lint --json] and [disco verify --json]:
    [{"severity","tag","source","operator","scope","where","line","col",
    "msg"}], every key present, [null] when absent. *)

val invalid_plan_response : id:Json.t -> Disco_analysis.Finding.t list -> Json.t
(** The typed rejection for plans failing whole-plan verification:
    [{"status":"rejected","reason":"invalid_plan","findings":[...]}], each
    finding encoded by {!json_of_finding}. *)

val error_response : id:Json.t -> string -> Json.t

val json_of_health : now:float -> Health.row list -> Json.t

val http_response : Json.t -> string
(** A complete HTTP/1.0 [200] response with a JSON body. *)

val http_not_found : string -> string
