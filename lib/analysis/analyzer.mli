(** Whole-model static analysis of the blended cost model.

    Runs after registration (or on demand via [disco lint]) over the
    registry's merged rule chains. Four passes:

    - {b interval abstract interpretation} of every rule body ({!Absint})
      over typed variable domains — cardinalities, sizes and times in
      [[0, inf)], selectivities in [[0, 1]], [let] parameters at their
      registered values — flagging possible division by zero, NaN,
      negative costs, and names silently coerced to numbers;
    - {b shadowing}: per (source, operator) chain, rules whose head is
      subsumed by strictly more specific rules providing all their
      variables are dead; same-level overlaps are min-combined
      ambiguities;
    - {b coverage}: does the merged chain define all five cost variables
      for every node shape of each operator, and where does a wrapper
      fall back to the generic model;
    - {b cycles}: inter-variable dependencies (TotalTime -> TotalSize ->
      TotalTime) that diverge at evaluation time.

    Severity contract: [Error] findings mean estimation can raise,
    diverge, or produce meaningless (negative / non-numeric) costs —
    strict registration ({!Disco_mediator.Mediator}) rejects them. A
    model "lints clean under --strict" when {!errors} is empty. *)

open Disco_costlang
open Disco_core

type severity = Error | Warning | Info

val severity_name : severity -> string

type finding = {
  severity : severity;
  tag : string;
      (** stable machine tag: "div-zero", "nan", "negative", "non-numeric",
          "unknown-function", "selectivity-range", "dead-rule",
          "shadows-default", "ambiguous", "coverage", "fallback", "cycle",
          "unmatchable" *)
  source : string;  (** owning source of the offending rule or parameter *)
  operator : string option;
  scope : Scope.t option;
  where : string;  (** ["rule scan(C)"], ["let AdtSel_match"], ... *)
  loc : Ast.pos option;  (** lexer position, when the rule was parsed *)
  msg : string;
  excluded : bool;
      (** the owning source is circuit-broken (breaker open), so the
          optimizer cannot pick its rules right now: the finding is
          reported for completeness but tagged [scope:excluded] *)
}

val errors : finding list -> finding list
val of_severity : severity -> finding list -> finding list

val active : finding list -> finding list
(** Findings whose source the optimizer can actually pick (not
    [excluded]); strictness gates ([--strict], [--fail-on]) apply to
    these. *)

val analyze_rule : Registry.t -> Rule.t -> finding list
(** Interval pass over one rule's body. Rules without source AST
    (query-scope history) yield no findings. *)

val analyze_chain : Registry.t -> source:string -> operator:string -> finding list
(** Shadowing, ambiguity, coverage and cycle analysis of the merged
    (source + default) chain for one operator. *)

val analyze_source : ?excluded:(string -> bool) -> Registry.t -> source:string -> finding list
(** All passes for one source: its own rules, its ADT parameter ranges
    ([AdtSel_* ] in [[0,1]], [AdtCost_*] nonnegative), and the merged
    chain of every operator it exports rules for (every known operator
    for the default source). [excluded] marks findings of circuit-broken
    sources (default: none). *)

val analyze : ?excluded:(string -> bool) -> Registry.t -> finding list
(** {!analyze_source} over every registered source, deduplicated. *)

val pp_finding : Format.formatter -> finding -> unit

val to_json : finding list -> string
(** Findings as a JSON array (stable field order), for CI artifacts. *)
