(** The mediator query optimizer (paper §2.2): enumerates access plans — join
    orders (bushy, both orientations) and operator placement (wrapper-side
    subtrees under [submit] vs mediator-side composition) — and selects the
    plan with the lowest estimated TotalTime under the blended cost model.

    {!enumerate} exhaustively generates complete plans (used by the
    validation benches, in particular the branch-and-bound ablation of
    §4.3.2, and as the oracle the exact engine is tested against);
    {!optimize} is what normal query processing runs. It picks one of two
    engines by query width (see DESIGN.md §15): {!dpccp}, an exact DP over
    the connected subsets of the join graph, and {!greedy}, a GOO +
    bounded-improvement path for federations too wide for exact
    enumeration. *)

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

val submit_base : base -> Plan.t
(** A single base relation as a complete mediator-side plan: submit the
    wrapper-capable part and apply the residual above it. *)

val max_graph_width : int
(** Width limit of {!dpccp} (61 relations): alias subsets are represented
    as bits of one OCaml int. *)

val enumerate : spec -> Plan.t list
(** All complete mediator-side plans joining every base (exponential — small
    queries only). No cross products: a disconnected join graph yields plans
    only for the connected parts, and none overall.
    @raise Disco_common.Err.Plan_error above {!max_enumerate_width}
    relations. *)

(** Counters filled during cost-based selection (the T5 ablation and the
    joins bench). [csg_cmp_pairs] counts the enumeration work: csg–cmp
    pairs generated by {!dpccp}, pair evaluations by {!greedy}.
    [dp_entries] counts candidate entries installed into DP tables (or kept
    as greedy merge results). *)
type stats = {
  mutable plans_considered : int;
  mutable plans_aborted : int;
  mutable formula_evals : int;
  mutable csg_cmp_pairs : int;
  mutable dp_entries : int;
}

val new_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Add [stats]' counters into [into]. A search fills its own record and
    merges it into the caller's exactly once, when it finishes or fails. *)

(** What the optimizer minimizes: the time to the complete answer (default),
    or the time to the first object (the paper's TimeFirst — interactive
    clients). Pipelined strategies tend to win the latter; blocking ones
    (hash joins, sorts) the former. *)
type objective = Total_time | First_tuple

val objective_var : objective -> Disco_costlang.Ast.cost_var
(** The cost variable an objective minimizes ([TotalTime] or [TimeFirst]). *)

val cost_le : float -> float -> bool
(** The order every plan selection compares costs in: [<=] on numbers, with
    NaN after every number, so a plan whose formulas evaluate to NaN never
    displaces a finite one. Exactly [<=] when neither cost is NaN. *)

val default_enum_threshold : int
(** Widest query {!optimize} plans exactly with {!dpccp} (12 relations);
    wider ones go to {!greedy}. *)

val cost_of :
  ?bound:float -> ?objective:objective -> Registry.t -> stats -> Plan.t ->
  float option
(** Estimated cost of a complete plan under the objective, from a fresh
    annotation ({!Estimator.build}); [bound] enables the early-abort
    heuristic of §4.3.2 (TotalTime only) and [None] reports an abort.
    Counters land in exactly the [stats] record passed here. {!choose}
    costs with it, and it is the fresh reference a search's returned cost
    is tested against; query processing never calls it (the mediator costs
    a chosen plan on the search's own annotation). *)

val choose :
  ?prune:bool -> ?objective:objective -> Registry.t -> ?stats:stats ->
  Plan.t list -> (Plan.t * float) option
(** Cheapest plan of an explicit list under {!cost_le}, with
    branch-and-bound pruning against the best cost so far (default on).
    Each plan is estimated afresh with {!cost_of}, sharing nothing with
    the others or with a search. Ties keep the earlier plan. With
    [~prune:false] over {!enumerate}'s list this is the exhaustive oracle
    {!dpccp} is tested against. *)

type engine =
  ?objective:objective -> ?stats:stats -> Registry.t -> spec -> Estimator.ann * float
(** A plan search: the annotation of the cheapest plan it finds joining
    every base of the spec (its [node] is the plan, a mediator-side one in
    the mediator's rule context), with its estimated cost under
    [objective] (default [Total_time]).

    Each candidate is one new annotation node over its inputs' annotations
    ({!Estimator.extend}), so costing it evaluates that node and nothing
    below it; a search keeps no other cache. A wrapper-side candidate (a
    subplan still inside one source) is annotated in that source's rule
    context, the one its submit gives it, so its wrapper's rules rank it;
    a mediator-side candidate in the mediator's. The returned annotation is
    the winner's own: every variable it holds equals what a fresh
    {!Estimator.build} of its plan computes, so the returned cost is the
    one a fresh {!cost_of} of the returned plan gives, to the bit, and a
    caller can extend it ({!Estimator.extend}) instead of annotating the
    plan again. The result depends only on the spec, the objective and
    the registry generation: a search never reads source availability,
    which the mediator decides before any search runs. A disconnected
    join graph fails up front with a named diagnosis (the error lists its
    connected components). [stats] receives the counters of the run.
    @raise Disco_common.Err.Plan_error on an empty or disconnected
    query. *)

val optimize : engine
(** The search normal query processing runs: {!dpccp} up to
    {!default_enum_threshold} relations, {!greedy} beyond. *)

val dpccp : engine
(** Exact dynamic programming over the connected subsets of the join graph
    (Moerkotte & Neumann's DPccp), keeping the best candidate per site (one
    per source for unwrapped subplans, one mediator-side). It costs only
    the (left, right) pairs whose sides are both connected and joined by a
    predicate, and returns the same cost as the cheapest plan of
    {!enumerate}.
    @raise Disco_common.Err.Plan_error also above {!max_graph_width}
    relations. *)

val greedy : engine
(** GOO-style cheapest-connected-pair merging followed by bounded iterative
    improvement (exact DPccp re-optimization on windows of at most
    {!default_enum_threshold} relations, under a deterministic pair budget).
    Polynomial; plans are valid but not guaranteed optimal — the joins
    bench tracks their cost against {!dpccp}. *)
