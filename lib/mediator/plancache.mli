(** Cross-query plan cache, invalidated by the registry generation.

    One table (one FIFO capacity bound, one lock, one counter set) holds the
    results of plan searches, keyed on the resolved join spec and the
    objective variable, and the estimated costs of complete plans, keyed on
    the plan and the objective variable. Keys compare structurally
    ({!Disco_algebra.Plan.equal}, {!Disco_algebra.Pred.equal}). Optimizer
    candidates never enter it.

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

val counters : t -> counters
(** A consistent snapshot of the counters, taken under the cache lock. *)

val size : t -> int

val clear : t -> unit
(** Drop all entries and reset the counters. *)

val pp_counters : Format.formatter -> t -> unit
