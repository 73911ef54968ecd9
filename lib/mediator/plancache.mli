(** Cross-query plan cache, invalidated by the registry generation.

    One table (one FIFO capacity bound, one lock, one counter set) holds the
    results of plan searches, keyed on the resolved join spec and the
    objective variable, and the estimated costs of complete plans, keyed on
    the plan and the objective variable. Keys compare structurally
    ({!Disco_algebra.Plan.equal}, {!Disco_algebra.Pred.equal}). Optimizer
    candidates never enter it. A whole-plan entry also carries a verified
    flag and, for a plan the mediator chose, its {!estimates} record.

    Each entry is stamped with the {!Disco_core.Registry.generation} in
    force when it was computed; a lookup under a newer generation drops the
    entry instead of serving it, so model writes — rule registration, [let]
    updates, calibration adjustment, historical-tuning feedback (paper
    §4.3) — can never be shadowed by an old cached plan or cost. *)

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

val find : t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> float option
(** The cached cost of [plan] under [objective], if present and computed
    under the registry's current generation. A stale entry is dropped and
    reported as a miss. *)

val add : t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t -> float -> unit
(** Record a freshly computed cost, stamped with the current generation,
    evicting the oldest entries if the capacity is reached. *)

val search :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var ->
  available:(string -> bool) -> Optimizer.spec -> (unit -> Plan.t * float) ->
  Plan.t * float
(** The result of a plan search over [spec]: the cached one at the current
    generation, else what the last argument's search returns, recorded.
    The key is every spec field the search reads but [can_join], which
    only registration sets, and registration moves the generation. A hit
    consults [available] as the search's fail-fast check does
    ({!Optimizer.require_available}). *)

val ensure_verified :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t ->
  (unit -> unit) -> unit
(** Run the last argument — a whole-plan verification that raises on an
    invalid plan — unless [plan]'s cost entry under [objective] is flagged
    verified at the current generation; when it returns, flag the entry.
    The flag is gone after any generation bump or once the entry is
    evicted, and without an entry every call verifies. *)

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

val estimates :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t ->
  estimates option
(** The record on [plan]'s cost entry under [objective], if the entry is of
    the current generation and the record {!current}. Not a lookup: the
    counters do not move. The record is gone with its entry — after a
    generation bump or an eviction. *)

val set_estimates :
  t -> Registry.t -> objective:Disco_costlang.Ast.cost_var -> Plan.t ->
  estimates -> unit
(** Put a record on [plan]'s cost entry under [objective] if one exists at
    the current generation; without an entry, nothing is stored. Not a
    lookup. *)

val counters : t -> counters
(** A consistent snapshot of the counters, taken under the cache lock. *)

val size : t -> int

val clear : t -> unit
(** Drop all entries and reset the counters. *)

val pp_counters : Format.formatter -> t -> unit
