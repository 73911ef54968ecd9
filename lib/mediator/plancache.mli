(** Cross-query plan cache, invalidated by the registry generation.

    One table (one FIFO capacity bound, one lock, one counter set) holds the
    results of plan searches, keyed on the resolved join spec and the
    objective variable, and one {!entry} per complete plan, keyed on the
    plan and the objective variable: its estimated cost, a verified flag
    and, for a plan the mediator chose, its {!estimates} record. Keys
    compare structurally ({!Disco_algebra.Plan.equal},
    {!Disco_algebra.Pred.equal}). Optimizer candidates and annotations
    never enter it.

    Each entry is stamped with the {!Disco_core.Registry.generation} in
    force when it was computed; a lookup under a newer generation drops the
    entry instead of serving it, so model writes — an export's
    (re-)registration, a rule added, calibration adjustment,
    historical-tuning feedback (paper §4.3) — can never be shadowed by an
    old cached plan or cost. *)

open Disco_algebra
open Disco_core

type t

(** Hit/miss/eviction counters over the lookups of both kinds, exposed for
    the CLI, the cache bench and the server's metrics endpoint. An
    immutable snapshot taken in one critical section: [hits + misses]
    always equals the lookups performed before the snapshot, even under
    concurrent traffic. *)
type counters = {
  hits : int;
  misses : int;     (** includes stale lookups *)
  stale : int;      (** entries dropped because the model changed *)
  evictions : int;  (** entries dropped by the capacity bound *)
  entries : int;    (** table size at snapshot time *)
}

val create : ?capacity:int -> unit -> t
(** An empty cache holding at most [capacity] (default 4096) entries. *)

(** The estimates a chosen plan's run needs, recorded so that a repeated
    query estimates nothing: the root's five cost variables with their
    provenance ({!Disco_core.Estimator.root_vars}), and each submit's
    history estimate — TotalTime and CountObject of its subplan, [None]
    for a model error — in translation order (right child first). A few
    words per submit; the annotation tree itself is never kept. *)
type estimates = {
  revision : int;  (** the {!Registry.revision} they were computed at *)
  root : (Disco_costlang.Ast.cost_var * (float * Estimator.provenance)) list;
  submits : (float * float) option array;
}

val current : Registry.t -> estimates -> bool
(** The record's one validity rule: the registry's {!Registry.revision} is
    still the one it was computed at, so every estimate it holds equals a
    fresh one bit for bit. *)

(** A whole-plan entry: everything the cache knows about one decorated plan
    under one objective, read with one {!lookup} and written with one
    {!store}. *)
type entry = {
  cost : float;  (** the plan's estimated cost under the objective *)
  verified : bool;
      (** the plan passed whole-plan verification at the entry's
          generation *)
  estimates : estimates option;
      (** for a plan the mediator chose and ran, its estimate record, valid
          only while {!current} *)
}

val lookup :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> entry option
(** [plan]'s entry under [objective], if present and stored under the
    registry's current generation. A stale entry is dropped and reported as
    a miss. The verified flag and the record live and die with the entry:
    a generation bump or an eviction drops them. *)

val store :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> entry -> unit
(** Make [entry] [plan]'s entry under [objective], stamped with the current
    generation. An existing entry is replaced in place (it keeps its place
    in the FIFO order); a new one evicts the oldest entries if the capacity
    is reached. Not a lookup: the counters other than [evictions] do not
    move. *)

val find : t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> float option
(** The cost of {!lookup}'s entry. *)

val add : t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> float -> unit
(** {!store} of an entry holding only a cost: not verified, no record. *)

val search :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Optimizer.spec ->
  (unit -> Estimator.ann) -> [ `Cached of Plan.t | `Searched of Estimator.ann ]
(** The result of a plan search over [spec]: the cached join tree at the
    current generation, else the annotation the last argument's search
    returns, whose plan is recorded (the annotation itself never enters
    the cache). The key is every spec field the search reads but
    [can_join], which only registration sets, and registration moves the
    generation. A search reads no source availability, so neither does a
    hit: the mediator refuses a query over an unavailable source before
    it looks anything up. *)

val counters : t -> counters
(** A consistent snapshot of the counters, taken under the cache lock. *)

val size : t -> int

val clear : t -> unit
(** Drop all entries and reset the counters. *)

val pp_counters : Format.formatter -> t -> unit
