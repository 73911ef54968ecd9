(** The persistent multi-tenant federation server behind [disco serve].

    One process owns one {!Disco_mediator.Mediator.t}. Client connections
    speak the line-delimited JSON {!Protocol} (plus plain [GET /health] /
    [GET /metrics] for curl). Queries pass the bounded {!Admission} queue —
    a full queue is an immediate [rejected/queue_full] answer, the server's
    backpressure point — and execute one at a time on an internal lock,
    which keeps server answers bit-identical to one-shot runs. Each tenant
    gets its own history partition; catalog, plan cache and breaker state
    are shared.
    With a snapshot path configured, learned state (histories, adjustment
    factors, the simulated clock) persists across restarts. *)

open Disco_mediator

type addr = Unix_socket of string | Tcp of { host : string; port : int }

type config = {
  addr : addr;
  queue_depth : int;           (** admission bound (≥ 1) *)
  workers : int;               (** dequeueing threads (≥ 1) *)
  default_deadline_ms : float option;
      (** applied to queries that set no [deadline_ms] of their own *)
  snapshot_path : string option;
  snapshot_every : int;
      (** executed queries between periodic snapshots; [0] disables the
          period (explicit [{"op":"snapshot"}] and shutdown still save) *)
  verify : bool;
      (** whole-plan verification at query admission
          ({!Mediator.run_query}'s [verify]): an invalid chosen plan is
          rejected with the typed [invalid_plan] protocol error instead of
          executed *)
}

val default_config : addr -> config
(** queue 64, 2 workers, no deadline, no snapshotting, verification on. *)

type t

val create : ?config:config -> Mediator.t -> t
(** The mediator must already have its wrappers registered. *)

val start : t -> unit
(** Restore the snapshot (if configured and present), bind, and spawn the
    accept loop and workers. Returns immediately. A snapshot file that is
    present but refused by {!Snapshot.load} is renamed to
    [<path>.rejected], with one warning (log source [disco.server]) naming
    both paths, and the server starts cold: the next snapshot cannot
    overwrite the refused bytes. *)

val stop : t -> unit
(** Stop accepting, drain the admission queue, join the workers, close
    client connections, and take a final snapshot. Idempotent. *)

val running : t -> bool

val wait : t -> unit
(** Block until {!stop} — the foreground [disco serve] loop. *)

val metrics_json : t -> Json.t

val mediator : t -> Mediator.t
val metrics : t -> Metrics.t
val admission_counters : t -> Admission.counters
val config : t -> config
