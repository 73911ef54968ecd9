(** Whole-model static analysis of the blended cost model.

    Runs after registration (or on demand via [disco lint]) over the
    registry's merged rule chains and only reports: {!Check} is the one
    gate an export must pass. Four passes over the rules, and one over the
    [let]s:

    - {b interval abstract interpretation} of every rule body ({!Absint}),
      each name resolved as registration compiles it
      ({!Disco_costlang.Compile.rule_body}), over typed variable domains —
      cardinalities, sizes and times in [[0, inf)], selectivities in
      [[0, 1]], [let] parameters at their registered values — flagging
      possible division by zero, NaN, negative costs, and names silently
      coerced to numbers;
    - {b shadowing}: per (source, operator) chain, rules whose head is
      subsumed by strictly more specific rules providing all their
      variables are dead; same-level overlaps are min-combined
      ambiguities;
    - {b coverage}: does the merged chain define all five cost variables
      for every node shape of each operator, and where does a wrapper
      fall back to the generic model;
    - {b cycles}: inter-variable dependencies (TotalTime -> TotalSize ->
      TotalTime) that diverge at evaluation time;
    - {b lets}: a [let] whose stored value is an error ([let-error]: every
      formula reading it raises), exported ADT parameters out of range.

    Severity contract: [Error] findings mean estimation can raise,
    diverge, or produce meaningless (negative / non-numeric) costs. A
    model lints clean when {!Finding.errors} is empty, which is what
    [disco lint --fail-on error] gates on. *)

open Disco_core

val known_operators : string list
(** Operator names valid in rule heads and capability lists. *)

val analyze_chain : Registry.t -> source:string -> operator:string -> Finding.t list
(** Shadowing, ambiguity, coverage and cycle analysis of the merged
    (source + default) chain for one operator. *)

val analyze_source : Registry.t -> source:string -> Finding.t list
(** All passes for one source: its own rules, its [let]s (one [let-error]
    per [let] whose evaluation raised, located at the [let], carrying the
    error's message; [AdtSel_*] in [[0,1]], [AdtCost_*] nonnegative), and
    the merged chain of every operator it exports rules for (every known
    operator for the default source). *)

val analyze : Registry.t -> Finding.t list
(** {!analyze_source} over every registered source, deduplicated. *)

