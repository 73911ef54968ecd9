(** The mediator query optimizer (paper §2.2): enumerates access plans — join
    orders (bushy, both orientations) and operator placement (wrapper-side
    subtrees under [submit] vs mediator-side composition) — and selects the
    plan with the lowest estimated TotalTime under the blended cost model.

    {!enumerate} exhaustively generates complete plans (used by the
    validation benches, in particular the branch-and-bound ablation of
    §4.3.2); {!optimize} is the DP used during normal query processing, with
    three engines behind one interface (see DESIGN.md §15): the original
    subset-size DP, DPccp (connected-subgraph / connected-complement
    enumeration over the join graph, bit-identical results at a fraction of
    the enumeration work), and a greedy GOO + bounded-improvement path for
    federations too wide for exact enumeration. *)

open Disco_algebra
open Disco_core

(** One base relation of the query, with its selection pushed down and the
    attributes the rest of the query needs from it. The capability flags come
    from the wrapper's registration (paper §2.1). *)
type base = {
  ref_ : Plan.collection_ref;
  pred : Pred.t;                 (** local selection; [True] if none *)
  project : string list option;  (** [None]: keep all attributes *)
  can_select : bool;
  can_project : bool;
}

type spec = {
  bases : base list;
  joins : (string * string * Pred.t) list;
      (** join predicates, each connecting two aliases *)
  can_join : string -> bool;
      (** whether a source can execute joins (capability, paper §2.1) *)
}

val base_plan : base -> Plan.t
(** The wrapper-side plan of one base relation (scan, pushed selection,
    width projection) — restricted to the operators the wrapper supports. *)

val base_residual : base -> Pred.t
(** The part of the base selection a capability-limited wrapper cannot
    execute; the mediator applies it above the submit. *)

val submit_base : base -> Plan.t
(** A single base relation as a complete mediator-side plan: submit the
    wrapper-capable part and apply the residual above it. *)

val max_enumerate_width : int
(** Width limit of {!enumerate} (10 relations): the generated plan count is
    super-exponential in the number of relations. *)

val max_split_width : int
(** Width limit of the subset-DP engine (20 relations): it materializes
    2^(n-1) splits per subset as bit masks, which is hopeless long before
    [1 lsl n] stops being defined at the word size. Wider federations must
    use the [Dpccp] or [Greedy] engines of {!optimize}. *)

val max_graph_width : int
(** Width limit of the [Dpccp] engine (61 relations): alias subsets are
    represented as bits of one OCaml int. *)

val enumerate : spec -> Plan.t list
(** All complete mediator-side plans joining every base (exponential — small
    queries only). No cross products: a disconnected join graph yields plans
    only for the connected parts, and none overall.
    @raise Disco_common.Err.Plan_error above {!max_enumerate_width}
    relations. *)

(** Counters filled during cost-based selection (the T5 ablation and the
    joins bench). [csg_cmp_pairs] counts the enumeration work: subset splits
    examined by the subset DP, csg–cmp pairs generated by DPccp, pair
    evaluations by the greedy engine — the one counter that separates the
    engines, since all exact engines cost exactly the same candidates.
    [dp_entries] counts candidate entries installed into DP tables (or kept
    as greedy merge results); it is identical between [Dp] and [Dpccp] and
    serves as a cheap bit-identity witness. *)
type stats = {
  mutable plans_considered : int;
  mutable plans_aborted : int;
  mutable formula_evals : int;
  mutable csg_cmp_pairs : int;
  mutable dp_entries : int;
}

val new_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Add a partial's counters into [into]. Parallel selection gives every
    domain slot its own [stats] and merges the partials exactly once, in
    slot order, at the fork/join barrier — counters are never mutated from
    two domains. *)

(** What the optimizer minimizes: the time to the complete answer (default),
    or the time to the first object (the paper's TimeFirst — interactive
    clients). Pipelined strategies tend to win the latter; blocking ones
    (hash joins, sorts) the former. *)
type objective = Total_time | First_tuple

(** The join-enumeration engine of {!optimize}:
    - [Dp] — the original subset-size DP: every alias subset, every
      2^(k-1) split. Exponential in width; at most {!max_split_width}
      relations.
    - [Dpccp] — connected-subgraph / connected-complement enumeration over
      the join graph. Generates exactly the splits the subset DP costs, in
      the same order, so the chosen plan, cost, [plans_considered] and
      [dp_entries] are bit-identical to [Dp]; only [csg_cmp_pairs]
      (enumeration work) collapses. At most {!max_graph_width} relations.
    - [Greedy] — GOO-style cheapest-connected-pair merging followed by
      bounded iterative improvement (exact DPccp re-optimization on windows
      of at most the threshold, under a deterministic pair budget).
      Polynomial; plans are valid but not guaranteed optimal.
    - [Auto] — [Dpccp] up to the threshold, [Greedy] beyond (default). *)
type enum_mode = Dp | Dpccp | Greedy | Auto

val default_enum_threshold : int
(** Auto handoff width between exact DPccp and greedy (12 relations). *)

val enum_mode_to_string : enum_mode -> string

val cost_of :
  ?bound:float -> ?objective:objective -> ?memo:Estimator.memo ->
  ?cache:Plancache.t -> ?shard:int -> Registry.t -> stats -> Plan.t ->
  float option
(** Estimated cost of a complete plan under the objective; [bound] enables
    the early-abort heuristic of §4.3.2 (TotalTime only) and [None] reports
    an abort. [memo] shares subtree annotations with earlier estimates of
    the same optimizer run; [cache] consults and feeds the cross-query
    {!Plancache}. Neither changes computed costs — only what is recomputed.
    Aborted estimates are never cached. Counters land in exactly the
    [stats] record passed here — parallel callers hand each domain its own
    and merge with {!merge_stats}. [shard] is the VM slot-cache shard
    (see {!Disco_core.Estimator.estimate}); a [memo] must stay within one
    shard. *)

val choose :
  ?prune:bool -> ?objective:objective -> ?memo:Estimator.memo ->
  ?cache:Plancache.t -> ?domains:int -> Registry.t -> ?stats:stats ->
  Plan.t list -> (Plan.t * float) option
(** Cheapest plan of an explicit list, with branch-and-bound pruning against
    the best cost so far (default on). [domains] (default 1) costs
    contiguous chunks of the list concurrently; the chunk winners reduce
    under the sequential keep-the-earlier tie-break, so the chosen plan and
    cost are bit-identical at any domain count ([memo] then serves chunk 0;
    the other chunks get fresh memos). With pruning, [plans_aborted] may
    differ across domain counts — bounds are chunk-local — but the winner
    cannot. *)

val optimize :
  ?objective:objective -> ?memo:bool -> ?cache:Plancache.t ->
  ?available:(string -> bool) -> ?domains:int -> ?stats:stats ->
  ?enum:enum_mode -> Registry.t -> spec ->
  Plan.t * float
(** Dynamic programming over alias subsets, keeping the best candidate per
    site (one per source for unwrapped subplans, one mediator-side). [memo]
    (default on) shares subtree annotations across the run, so the DP never
    re-runs the estimator on an already-costed subtree; [cache] carries
    complete-plan costs across queries. Both are value-preserving: the chosen
    plan and cost are identical with and without them. [available] (default:
    everything) excludes sources — e.g. those with an open circuit breaker —
    from planning; a query touching an excluded single-sourced relation
    fails up front with a named diagnosis, as does a disconnected join graph
    (the error lists its connected components).

    [enum] selects the engine (default [Auto]: exact [Dpccp] up to
    {!default_enum_threshold} relations and [Greedy] beyond). [Dp] and
    [Dpccp] return bit-identical plans, costs and [plans_considered] at any
    domain count; [Greedy] returns a valid plan whose cost the joins bench
    tracks against the exact engines.

    [domains] (default 1) distributes each subset size across a domain pool
    (subsets of one size are mutually independent); every slot costs with
    its own estimator memo, stats and VM shard, and the per-subset results
    are installed at the size barrier in enumeration order. The chosen plan,
    its cost, the DP table and the merged [plans_considered] /
    [plans_aborted] are bit-identical at any domain count; [formula_evals]
    depends on the memo configuration (per-slot memos change what is
    recomputed, never a value). [stats] receives the merged counters of the
    run.
    @raise Disco_common.Err.Plan_error on an empty or disconnected query,
    when exclusions leave some relation without a source, or when the
    selected engine's width limit is exceeded. *)
