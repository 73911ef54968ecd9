(** Blocking client for the serve protocol — one connection, one request in
    flight. Used by [disco metrics], the closed-loop bench driver and the
    server tests; drive concurrency by opening several clients. *)

type t

val connect : Server.addr -> t
val connect_retry : Server.addr -> t
(** Retries refused connections (50 × 100 ms) — for clients racing
    a server that is still binding its socket. *)

val close : t -> unit

val request : t -> Json.t -> Json.t
(** Send one request object, wait for the one-line response.
    @raise Failure on EOF or malformed response. *)

val query :
  ?id:Json.t -> ?tenant:string -> ?objective:[ `First | `Total ] ->
  ?deadline_ms:float -> t -> string -> Json.t

val metrics : t -> Json.t
val health : t -> Json.t
val snapshot : t -> Json.t
val shutdown : t -> Json.t
