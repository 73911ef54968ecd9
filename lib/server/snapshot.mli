(** Warm-restart snapshots of the server's learned state: per-tenant
    history records, per-source adjustment factors and the simulated
    clock. {!restore} replays every record through
    {!Disco_core.History.observe} on a fresh mediator — re-deriving
    query-scope rules, selectivity corrections and drift streaks — then
    pins the adjustment factors and clock to their snapshotted values. *)

open Disco_core
open Disco_mediator

type tenant_state = { tenant : string; records : History.record list }

type state = {
  saved_at : float;   (** Unix time of the save *)
  clock_ms : float;   (** the mediator's simulated clock *)
  generation : int;   (** registry generation at save, informational *)
  tenants : tenant_state list;
  adjusts : (string * float) list;
}

val capture : Mediator.t -> tenants:(string * History.t) list -> state

val save : path:string -> state -> unit
(** Write-to-temp + atomic rename; a crash mid-save never corrupts an
    existing snapshot. *)

val load : path:string -> (state, string) result
(** Refuses files without the snapshot magic, with a different layout
    version, or whose payload does not match the digest written with it,
    instead of crashing on [Marshal] or loading a damaged state. *)

val restore :
  Mediator.t -> fresh_tenant:(string -> History.t) -> state ->
  (string * History.t) list
(** Replay into fresh per-tenant partitions (allocated by [fresh_tenant]),
    then pin adjustment factors and the clock. Returns the rebuilt tenant
    table, sorted by tenant name. *)
