(** The mediator's cost-information store.

    During the registration phase the rules, parameters ([let]) and functions
    ([def]) exported by each wrapper are compiled and integrated here (paper
    §4.1); during query processing the estimator asks it for the rules
    matching each plan node. Lookup merges a source's rules with the
    default-scope rules, sorted by matching level, and caches the merged
    per-(source, operator) lists — the paper's "own efficient [overriding
    mechanism] based on kind of virtual tables".

    Registration settles what an export determines once: its [let]s are
    evaluated to values, and compiling a rule resolves every name of its
    formulas ({!Disco_costlang.Compile.rule_body}) and binds what each
    resolved name reads to a closure: a target slot, a cost variable of the
    node or of an input, a head binding, a def of the export, a context
    function. Only the dynamic tail — a [let] value, a catalog path — is
    looked up by name when the formula runs, without a lock, and every
    value a model write can change (statistics, [let]s of a re-registered
    export, adjustment factors, selectivity corrections) is read then. *)

open Disco_catalog
open Disco_costlang

val default_source : string
(** ["default"]: the pseudo-source owning the generic model. *)

val mediator_source : string
(** ["mediator"]: the pseudo-source owning local-scope rules; also the rule
    context of plan nodes outside any [submit]. *)

type t

val create : Catalog.t -> t

val catalog : t -> Catalog.t

val generation : t -> int
(** Monotonic stamp of the blended cost model. It bumps on every write that
    can change an estimate: rule registration (including query-scope
    historical rules and their removal), source (re-)registration — rules,
    [let] parameters and ADT exports — and calibration/history adjustment
    factors. A cached estimation result is valid only while the generation it
    was computed under is still current. *)

val revision : t -> int
(** Monotonic stamp of everything an estimate reads: it moves with every
    {!generation} bump and with every selectivity-correction write
    ({!set_sel_fix}, {!clear_sel_fixes}), which deliberately leave the
    generation alone. Plan-search results and whole-plan entries key on the
    generation; only the estimate record of a chosen plan (the [estimates]
    of the mediator's [Plancache.entry]) keys on the revision, so it is
    never served across a correction either. The mediator reads it before
    planning, since a plan search computes the chosen plan's estimates. *)

val invalidate : t -> unit
(** Drop the merged-rule cache and bump the generation without changing any
    registered content. The feedback loop uses it when drift detection
    decides that accumulated statistics corrections must reach cached plans
    ({!Plancache} entries validate against the generation). Safe to call
    concurrently with estimation (short-lock discipline). *)

(** {1 Wrapper parameters and functions} *)

val catalog_path : t -> source:string -> string list -> Value.t option
(** Resolve [Collection.Stat] or [Collection.Attr.Stat] against the catalog
    for a named collection of [source]. *)

type param = {
  name : string;
  value : (Value.t, exn) result;
      (** the [let]'s value, or the error its one evaluation raised *)
  pos : Ast.pos option;  (** its declaration, when the export was parsed *)
}
(** A [let]-bound parameter of an export, evaluated once when the export
    registers: in declaration order, a [let] read by another evaluated on
    demand. A [let] may read other [let]s of its export, its source's
    catalog statistics, builtins and its export's defs; one that reads
    itself, directly or through other [let]s and the defs they call, keeps
    an {!Disco_common.Err.Eval_error} naming it. *)

val lookup_let : t -> source:string -> string -> Value.t option
(** The value a rule of [source] reads by that name: the source's [let],
    else the default model's, so wrapper rules may reference coefficients
    such as [IO]; [None] when neither declares it. Raises the error the
    [let]'s evaluation raised. [lookup_let t ~source] finds the two entries
    once; each read is then a list lookup, without a lock. *)

val def_of : t -> source:string -> string -> Compile.def option
(** The def a formula of [source] calls by that name: only its own
    export's. A rule's calls are bound to these when it is compiled. *)

(** {1 Registration} *)

val add_rule :
  ?interface_of:string -> ?scope_override:Scope.t -> t -> source:string -> Ast.rule ->
  Rule.t
(** Compile and install one rule, its calls bound to the defs {!def_of}
    gives; the scope is {!Rule.classify}ed unless overridden (the generic
    model forces [Default]). *)

val add_query_rule : t -> source:string -> Disco_algebra.Plan.t ->
  (Ast.cost_var * float) list -> Rule.t
(** Install a query-scope rule recording measured costs for one exact subplan
    (historical costs, paper §4.3.1). *)

val remove_query_rules : t -> source:string -> unit

val clear_source : t -> source:string -> unit
(** Drop a source's rules, parameters and functions (its query-scope history
    is kept); part of re-registration. *)

val register_source_decl : ?scope_override:Scope.t -> t -> Ast.source_decl -> Rule.t list
(** Register everything a wrapper exported: interfaces populate the catalog;
    lets ({!param}), defs and rules populate the cost store. Lets evaluate
    and rules compile once every def of the export is known, so they may
    call a def declared after them. Re-registration replaces the source's
    previous rules and parameters (the paper's administrative interface for
    refreshing out-of-date cost information, §2.1). Returns the compiled
    rules. *)

val register_text : ?scope_override:Scope.t -> t -> what:string -> string -> string
(** Parse and register cost-language text; returns the source name. *)

(** {1 Lookup} *)

val rules_for : t -> source:string -> operator:string -> Rule.t list
(** Rules of [source] merged with the default model's, most specific first
    (cached). *)

val matching : t -> source:string -> Disco_algebra.Plan.t -> (Rule.t * Rule.bindings) list
(** All rules matching a node, most specific first, with their bindings. *)

val rule_count : t -> source:string -> int

(** {1 Iteration}

    Whole-model traversal for the static analyzer ([lib/analysis]): every
    registered source, each source's own compiled rules with their scopes,
    and its [let] parameters. *)

val sources : t -> string list
(** All registered source names (including ["default"] and ["mediator"] when
    populated), sorted. *)

val source_rules : t -> source:string -> Rule.t list
(** The source's own rules in declaration order (no default-model merge —
    use {!rules_for} for merged chains). *)

val lets : t -> source:string -> param list
(** The source's [let] parameters, in declaration order. *)

(** {1 ADT operation costs (paper §7)}

    Wrappers export the per-call cost and selectivity of their abstract-
    data-type operations as [let AdtCost_<fn> = ...] and [let AdtSel_<fn> =
    ...]; registration harvests them into a global table visible to the
    generic model's [adtcost(P)] context function and to selectivity
    estimation. *)

val register_adt : t -> name:string -> cost_ms:float -> selectivity:float -> unit

val adt_cost : t -> string -> float option
(** Exported per-call cost of an ADT operation, in ms. *)

val adt_selectivity : t -> string -> float option

(** {1 Historical adjustment factors (paper §4.3.1)} *)

val set_adjust : t -> source:string -> float -> unit
val adjust : t -> source:string -> float
(** Per-source multiplicative factor applied by the generic [submit] rule via
    the [adjust(W)] context function; defaults to 1. *)

(** {1 Feedback-driven selectivity corrections (paper §4.3)}

    Multiplicative corrections to estimated predicate selectivities, keyed by
    (source, predicate) — the predicate compared with
    {!Disco_algebra.Pred.equal} and hashed with {!Disco_algebra.Pred.hash},
    never printed — and maintained by {!History} from observed
    cardinalities. Unlike {!set_adjust}, writes deliberately do {e not}
    bump the generation: corrections accumulate silently while plans keep
    being served from caches, and only a drift-triggered {!invalidate}
    republishes them. [sel_fix] takes no lock and hashes nothing until the
    first correction is installed, so the feedback-off path costs nothing.
    Both writes move the {!revision}. *)

module Pred_tbl : Hashtbl.S with type key = string * Disco_algebra.Pred.t
(** Tables keyed by (source, predicate) under {!Disco_algebra.Pred.equal}:
    the key of the corrections here and of {!History}'s drift streaks. *)

val set_sel_fix : t -> source:string -> Disco_algebra.Pred.t -> float -> unit
val sel_fix : t -> source:string -> Disco_algebra.Pred.t -> float
(** The correction for a predicate; 1 when none is installed. *)

val clear_sel_fixes : t -> source:string -> unit
