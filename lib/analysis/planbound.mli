(** Interval propagation of cardinality bounds through whole plans
    (DESIGN.md §14).

    {!Plancheck} proves a plan well-typed; this module proves its {e
    estimates} structurally sane before execution. A bottom-up pass derives
    a sound interval for each node's cardinality under any rule set whose
    per-operator selectivities stay in [[0, 1]] (which {!Selest} clamps
    enforce for every shipped model): scans are bounded by the catalog
    extent, selections by their input, joins by the product, unions by the
    sum, dedup/aggregate by [max 1 input]. Degenerate catalog statistics
    taint the interval through the {!Interval.t} NaN flag, reusing the PR 4
    abstract domain; attribute ranges come from the {!Derive} chain, i.e.
    the histogram-clipped statistics of PR 6.

    The concrete estimates ([CountObject], [TotalTime]) of every node are
    then validated against the intervals: NaN, true infinities, negative
    values, cardinalities above the bound, and monotonicity violations
    (a filter exceeding its input) each produce a finding carrying the
    provenance scope of the rule that supplied the bad value. Nodes priced
    by query-scope (measured) rules are exempt from the formula-derived
    bound — measured truth may legally contradict a formula's estimate of a
    sibling — and report an [Info] deviation instead. *)

open Disco_algebra
open Disco_core

val check_ann : Registry.t -> Estimator.ann -> Finding.t list
(** Validate an already-annotated plan — the query path: [run_query]
    verifies over the chosen plan's own annotation, so verification adds no
    estimation pass. Demands [CountObject] and [TotalTime] at every node
    (cached in the annotation once computed). One walk: a finding's
    operator path is rendered only when the finding is recorded. *)

val check : ?source:string -> Registry.t -> Plan.t -> Finding.t list
(** [check_ann] over a freshly built annotation. *)
