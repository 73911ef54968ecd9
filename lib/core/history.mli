(** Dynamic cost-formula extensions (paper §4.3.1): the cost model learns
    from executed subqueries. *)

open Disco_costlang
open Disco_algebra

(** - [Exact]: measured cost vectors are installed as query-scope rules
      matching their exact subplan — the HERMES style of historical costs;
      the next identical subquery is estimated with the real cost.
    - [Adjust]: the ratio measured/estimated TotalTime of each executed
      subquery updates a per-source multiplicative factor by exponential
      smoothing; the generic [submit] rule applies the factor through the
      [adjust(W)] context function, so all formulas sharing the parameter
      benefit at once — the paper's answer to HERMES' proliferation of
      statistical information. *)
type mode = Off | Exact | Adjust of { smoothing : float }

(** Feedback-driven statistics (§4.3, DESIGN.md §11), orthogonal to [mode]:
    estimated vs. measured cardinalities maintain per-predicate selectivity
    corrections ({!Registry.set_sel_fix}), and sustained misestimation bumps
    the model generation so cached plans are re-costed. *)
type feedback = {
  band : float;       (** drift when est/actual leaves [[1/band, band]] *)
  consecutive : int;  (** drifting observations in a row that trigger *)
  smoothing : float;  (** EWMA weight of the newest correction *)
}

val default_feedback : feedback
(** band 2.0, consecutive 3, smoothing 0.5. *)

type record = {
  plan : Plan.t;       (** the executed wrapper subplan (no submit node) *)
  source : string;
  measured : (Ast.cost_var * float) list;
  estimated_total : float;  (** the estimate made when the plan was chosen *)
  estimated_count : float option;
      (** predicted output cardinality when the plan was chosen; lets a
          snapshot replay ({!observe} per record) re-derive the same
          selectivity corrections the original observations produced *)
}

type t

val create :
  ?mode:mode -> ?feedback:feedback -> ?on_drift:(source:string -> unit) -> Registry.t -> t
(** An empty partition whose policy is fixed for its life: [mode] (default
    [Off]), and cardinality feedback when [feedback] is given (off
    otherwise). [on_drift] runs after a drift-triggered
    {!Registry.invalidate}, with the drifting source — the mediator hooks
    histogram recalibration there. *)

val mode : t -> mode

val records : t -> record list
(** Oldest first. O(records): it copies the whole list. *)

val count : t -> int
(** [List.length (records t)], in O(1) and without allocating. *)

val newest : t -> int -> record list
(** The newest [n] records (all of them when fewer), oldest first, in
    O(n). *)

val observe :
  ?estimated_count:float ->
  t ->
  source:string ->
  plan:Plan.t ->
  measured:(Ast.cost_var * float) list ->
  estimated_total:float ->
  unit
(** Feed back the measured costs of an executed wrapper subquery. In
    [Adjust] mode, [estimated_total] must include the adjustment factor in
    force when the estimate was made (the mediator does this), so the
    smoothing converges. [estimated_count] is the predicted output
    cardinality of the subplan; when present (and feedback is on) it is
    compared with the measured [CountObject] to update the per-predicate
    selectivity correction of the subplan's outermost selection and its
    drift streak, both keyed by (source, predicate) under
    {!Disco_algebra.Pred.equal} ({!Registry.Pred_tbl}). *)

val forget : t -> unit
(** Drop all records, query-scope rules, adjustment factors, selectivity
    corrections and drift streaks. *)
