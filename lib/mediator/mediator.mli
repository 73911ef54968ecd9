(** The mediator facade: registration phase (paper Fig 1) and query
    processing phase (Fig 2).

    {!register} uploads a wrapper's schemas, statistics and cost rules into
    the catalog and rule registry; {!run_query} parses a declarative query,
    optimizes it under the blended cost model, executes the chosen plan —
    submitting subplans to wrappers and composing their answers — and feeds
    measured costs back into the historical-cost extension. *)

open Disco_catalog
open Disco_algebra
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_sql

type t

(** Feedback-driven statistics (§4.3, DESIGN.md §11). [Stats_off] (the
    default) keeps every estimate bit-identical to a mediator without the
    subsystem. [Stats_feedback fb] harvests wrapper sample exports into
    equi-depth histograms at registration, compares estimated and measured
    cardinalities of every executed wrapper subplan to maintain
    per-predicate selectivity corrections, and — on sustained drift per
    [fb] — bumps the model generation and re-harvests the drifting source's
    histograms. *)
type stats_mode = Stats_off | Stats_feedback of History.feedback

val create :
  ?calibration:Generic.calibration -> ?history_mode:History.mode ->
  ?cache:bool -> ?policy:Health.policy -> ?stats_mode:stats_mode -> unit -> t
(** A fresh mediator with its generic cost model installed and its history
    partition made by {!fresh_history}. [cache] (default on) enables the
    cross-query {!Plancache}; disabling it is the reference behavior the
    differential tests compare against (a plan search keeps no cache of its
    own, so it runs the same either way). [policy] sets the submit policy —
    per-source timeout, retry budget, backoff, circuit breaker
    ({!Health.default_policy} when omitted). *)

val stats_mode : t -> stats_mode

val optimizer_stats : t -> Optimizer.stats
(** A copy of the cumulative optimizer counters over every optimization this
    mediator ran (plans considered/aborted, formula evaluations, csg–cmp
    pairs, DP entries) — the plan-search cost the server's /metrics
    reports. *)

val registry : t -> Registry.t
val catalog : t -> Catalog.t

val history : t -> History.t
(** The active history partition (the one {!run_query} feeds). *)

val fresh_history : t -> History.t
(** A new, empty history partition in the mode of the mediator's own and,
    when feedback statistics are on, with the drift hook (histogram
    recalibration); {!create} makes the mediator's own partition with it.
    The server keeps one per tenant and swaps it in with {!set_history}
    before each query. *)

val set_history : t -> History.t -> unit
(** Make [h] the active history partition. The caller must serialize this
    with query execution (the server holds its execution lock across
    [set_history] + {!run_query}). *)

val plancache : t -> Plancache.t
(** The cross-query plan cache: plan-search results per resolved join spec,
    and one entry per decorated plan (cost, verified flag, estimate
    record). Its counters report hits, misses, stale drops and evictions; a
    disabled cache is simply never consulted. *)

val cache_enabled : t -> bool
val set_cache_enabled : t -> bool -> unit

val health : t -> Health.t
(** Per-source submit outcomes and circuit-breaker state. *)

val now : t -> float
(** The mediator's simulated clock (ms). It advances only when submit
    traffic runs: wrapper work, communication, injected anomalies, retry
    backoff. Fault windows and breaker cooldowns live on this clock. *)

val set_now : t -> float -> unit
(** Move the clock, e.g. to let a circuit-breaker cooldown elapse in tests
    or demos. *)

val register : t -> Wrapper.t -> unit
(** The registration phase: the wrapper returns schemas, statistics and cost
    information; the mediator checks the export
    ({!Disco_analysis.Check}), compiles and stores it, then lints the
    blended model ({!Disco_analysis.Analyzer}) and logs what lint finds:
    errors and warnings at Warning level, the rest at Info. Re-registering
    a wrapper refreshes its statistics.
    @raise Disco_common.Err.Eval_error when the check finds an error; the
    mediator is then left as it was (nothing of the export is installed,
    and a previous registration of the source stays in force). *)

val find_wrapper : t -> string -> Wrapper.t
(** @raise Disco_common.Err.Unknown_source when absent. *)

(** {1 Query resolution} *)

(** A resolved query: the optimizer spec plus the mediator-side decoration. *)
type resolved = {
  spec : Optimizer.spec;
  post_pred : Pred.t;        (** residual mediator-side predicate *)
  deferrable : (string * Pred.t) list;
      (** expensive (ADT) single-relation predicates whose placement —
          pushed to the wrapper or deferred past the joins — is decided by
          cost (paper §7) *)
  items : Sql.item list;
  star : bool;
  star_attrs : string list;
  distinct : bool;
  group_by : string list;
  order_by : (string * Plan.order) list;
  limit : int option;
}

val resolve : t -> Sql.t -> resolved
(** Resolve relations to sources, qualify attribute references, partition the
    WHERE clause into pushed selections / join predicates / residual, and
    compute per-relation width projections.
    @raise Disco_common.Err.Plan_error on unknown or ambiguous names. *)

val variants : resolved -> resolved list
(** The placement alternatives for deferrable (ADT) predicates: pushed into
    their base relation's selection, or evaluated at the mediator after the
    joins. A single element when the query has none. *)

val decorate : resolved -> Plan.t -> Plan.t
(** Wrap an optimized join tree with the mediator-side decoration: residual
    predicate, aggregation or projection, dedup, sort. *)

val plan_of_variant :
  ?objective:Optimizer.objective -> ?available:(string -> bool) -> t ->
  resolved -> Plan.t
(** Optimize one resolved variant into a complete decorated plan. Sources
    with an open circuit breaker are excluded from plan seeding.
    [available] overrides the availability check — {!run_query} passes a
    per-query memoized view, because {!Health.available} is the breaker's
    single-admission probe point and must be consulted once per source per
    query. With the cache enabled the search runs only on a miss of
    {!Plancache.search}, whose hits answer exactly as the search would.
    Looks up no whole-plan entry. *)

val check_sources_available : ?available:(string -> bool) -> t -> resolved -> unit
(** @raise Disco_common.Err.Source_unavailable when a relation's source has
    an open circuit breaker (graceful degradation's fail-fast edge: no plan
    remains for a single-sourced collection). [available] as in
    {!plan_of_variant}. *)

val plan_query : ?objective:Optimizer.objective -> t -> string -> Plan.t * float
(** Parse, resolve and optimize; returns the full plan and its estimated cost
    under the objective (TotalTime by default, TimeFirst for interactive
    first-answer latency): the cost on the plan's whole-plan entry, else
    the objective computed on its one annotation (the search's winner
    extended by the decoration, or the decorated plan annotated once where
    no search ran), which is then stored. *)

(** {1 Execution} *)

val mediator_run_env : t -> Run.env
(** The mediator's composition engine (in-memory, hash equi-joins), with the
    ADT implementations shipped by the registered wrappers. *)

val to_physical :
  ?estimates:Plancache.estimates -> t -> Plan.t -> Disco_exec.Physical.t
(** Execute all [submit] subtrees in their wrappers (charging communication
    per the wrapper's network and feeding history) and translate the
    remaining composition operators; the result runs under
    {!mediator_env}. Submits run one at a time, right child first.

    Each submit feeds history its subplan's estimate times the source's
    adjustment factor in force at that moment. [estimates] is [plan]'s
    record ({!Plancache.entry}): its submits are consumed in
    translation order (right child first), each only while the record is
    {!Plancache.current} — under [History.Adjust] a submit's feedback moves
    the model, so the later ones estimate fresh. Without it every subplan
    is estimated fresh. *)

type answer = {
  rows : Tuple.t list;
  plan : Plan.t;
  estimate : Estimator.ann;
      (** the chosen plan's annotation: its root holds all five variables;
          below the root, variables compute on demand
          ({!Estimator.require}) *)
  measured : Run.vector;
  replans : int;  (** mid-execution replans this query needed *)
  recovered : Run.submit_failure list;
      (** submit failures the replans recovered from *)
}

(** Structured partial-failure report: what failed, how often the query was
    replanned, and which sources are out with their retry times. *)
type report = {
  failures : Run.submit_failure list;
  replans : int;
  unavailable : (string * float) list;
}

exception Degraded of report
(** Raised by {!run_query} when replanning cannot recover the query. *)

exception Invalid_plan of Disco_analysis.Finding.t list
(** A chosen plan failed whole-plan verification (the [Error]-severity
    findings). Raised by {!run_query} under [~verify:true]; the server
    turns it into a typed protocol rejection. *)

val verify_plan : ?ann:Estimator.ann -> t -> Plan.t -> Disco_analysis.Finding.t list
(** Whole-plan verification of a mediator plan: typed well-formedness
    ({!Disco_analysis.Plancheck}, mediator placement rules) plus
    cardinality/cost-bound validation of its estimates
    ({!Disco_analysis.Planbound}), over [ann] when given (an annotation of
    this plan) and over a fresh estimate otherwise. *)

val run_query :
  ?objective:Optimizer.objective -> ?verify:bool -> t -> string -> answer
(** The full query-processing phase of Fig 2, under the degradation
    contract: a submit that exhausts its retry budget triggers a replan (at
    most twice) against the sources still healthy; when recovery is
    impossible the accumulated failures surface as {!Degraded}.
    A query needing an already-open source raises
    [Disco_common.Err.Source_unavailable] directly. The text is parsed and
    resolved once; every replan re-reads source availability and
    re-optimizes that resolved query. With [~verify:true]
    (default false) the chosen plan is verified — reusing the answer's own
    estimation tree, so no second estimation pass — and {!Invalid_plan}
    raised before any execution; a clean verification is remembered on the
    plan's whole-plan entry ({!Plancache.entry}).

    Each attempt reads the chosen plan's whole-plan entry with one lookup
    and writes it with at most one store. A repeated query estimates
    nothing while the model is unchanged: the chosen plan's estimate and
    its submits' history estimates come from the record on that entry.
    Otherwise the chosen plan is annotated once — the search's winner
    extended by the decoration, or, where no search ran, the decorated
    plan annotated from scratch — and that one annotation gives the plan's
    cost, the answer's estimate, the verification and the record, which is
    stored. Either way [answer.estimate]'s root holds all five variables,
    bit-identical to a fresh {!Estimator.estimate}; below the root it
    computes on demand ({!Estimator.require}). Each replan restarts the
    submit sequence. *)

val explain : t -> string -> string
(** The chosen plan plus per-node cost estimates annotated with the scope of
    the rule that produced each. *)

val analyze : ?objective:Optimizer.objective -> t -> string -> string
(** EXPLAIN ANALYZE: execute the query and report estimated vs measured cost,
    per wrapper subquery and overall — the feedback an administrator uses to
    decide which wrappers need better cost rules. *)
