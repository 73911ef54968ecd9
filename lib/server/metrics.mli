(** Server metrics: query counters and latency percentiles under one lock,
    exposed only as immutable snapshots (the {!Disco_mediator.Plancache}
    discipline), so continuous polling never observes torn counts.

    Invariants of every snapshot:
    [received = admitted + rejected_queue] and
    [admitted = completed + degraded + failed + rejected_deadline +
    in_flight]. *)

type t

val create : ?latency_capacity:int -> unit -> t
(** [latency_capacity] bounds retained latency samples (default 65536);
    beyond it a decimating reservoir keeps percentiles representative at
    constant memory. *)

val on_received : t -> unit
(** A query request was parsed. *)

val on_admitted : t -> unit
(** It entered the admission queue. *)

val on_rejected_queue : t -> unit
(** Backpressure: the bounded queue was full. *)

val on_rejected_deadline : t -> unit
(** Its deadline expired before it ran: while it waited in the queue or
    for the query ahead of it to finish. *)

val on_completed : t -> latency_ms:float -> unit
val on_degraded : t -> latency_ms:float -> unit
val on_failed : t -> latency_ms:float -> unit

type snapshot = {
  uptime_s : float;
  received : int;
  admitted : int;
  rejected_queue : int;
  rejected_deadline : int;
  completed : int;
  degraded : int;
  failed : int;
  in_flight : int;
  samples : int;  (** latency samples the percentiles are computed from *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

val snapshot : t -> snapshot

val to_json : snapshot -> Json.t
