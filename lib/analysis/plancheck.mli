(** Typed well-formedness checking of whole plans (DESIGN.md §14).

    Where {!Analyzer} proves each cost {e formula} sound in isolation (PR 4),
    this module checks the {e plans} those formulas price: every attribute
    reference resolves against the registered schemas, predicate operands
    agree in type, join keys are comparable, projections and materialized
    results have the shape the executors assume, and batched-engine
    preconditions (selection-vector validity, column/row-count agreement)
    hold. Findings reuse the PR 4 severity vocabulary; position is the
    operator path from the root (plans carry no lexer locations). *)

open Disco_algebra
open Disco_core

type severity = Analyzer.severity = Error | Warning | Info

type finding = {
  severity : severity;
  tag : string;  (** stable machine-readable rule id, e.g. ["type-mismatch"] *)
  source : string option;  (** data source involved, when known *)
  scope : Scope.t option;  (** cost-rule scope, for estimate-derived findings *)
  path : string;  (** operator path from the root, e.g. ["join/left/scan(e)"] *)
  msg : string;
}

val errors : finding list -> finding list
val of_severity : severity -> finding list -> finding list

val pp_finding : Format.formatter -> finding -> unit
(** [path: severity [tag] source: msg] — one line, aligned with
    {!Analyzer.pp_finding}. *)

val to_json : finding list -> string
(** Stable JSON array (same hand-rolled shape as {!Analyzer.to_json}). *)

type ctx =
  [ `Mediator  (** full mediator plan: bare scans outside [Submit] are errors *)
  | `Wrapper of string
    (** wrapper-side plan for the named source: [Submit] is an error and
        every scan must stay on that source *) ]

val check : ?ctx:ctx -> Registry.t -> Plan.t -> finding list
(** Structural + type checks only; never estimates costs (see {!Planbound}).
    Defaults to [`Mediator]. Unknown sources/collections are reported once
    and their subtrees are skipped rather than cascading. *)

(** {1 Physical-plan and batch invariants} *)

val check_physical : Disco_exec.Physical.t -> finding list
(** Shape invariants the executors assume but do not re-check: index access
    paths name indexed attributes, residual predicates resolve against the
    scanned table, and materialized nodes — what crosses from a wrapper to
    the mediator — claim the total length of their batches as [count] and
    hold only batches that pass {!check_batch} (those findings are reported
    at the node's path, prefixed with the batch's position). Walks every
    row of every materialized batch, so it is a test and audit tool, off
    the query path. *)

val check_batch : Disco_exec.Batch.t -> finding list
(** Batched-engine preconditions: attrs/columns agreement, selection-vector
    bounds, exact [bytes] accounting, non-emptiness (warning). *)
