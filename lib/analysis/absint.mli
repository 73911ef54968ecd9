(** Abstract interpretation of cost formulas over the interval domain.

    Mirrors the concrete evaluator: references resolve through an
    environment to abstract values, wrapper [def]s are inlined
    (depth-bounded), builtins get interval transfer functions, and context
    functions ([sel], [adtcost], ...) are abstracted by their documented
    ranges. Where the concrete evaluator raises — a zero divisor, a name
    coerced to a number — the interpreter raises an alarm and continues
    with a sound over-approximation. *)

open Disco_costlang

(** Abstract value of an expression. [Name]/[Pred] raise on numeric
    coercion concretely; [Opaque] is an unknown representation whose
    coercion cannot be judged (no alarm is raised for it). *)
type aval =
  | Num of Interval.t
  | Name of string
  | Pred of string
  | Opaque

type alarm =
  | Div_by_zero of { definite : bool }
      (** divisor interval is exactly zero ([definite]) or touches zero *)
  | Numeric_name of string
      (** a name or predicate flows into arithmetic — concretely
          [Value.to_num] raises; this is also how the estimator's silent
          [Vname] fallback for undefined variables surfaces *)
  | Unknown_call of string

type env = {
  resolve : string list -> aval;
  def_of : string -> (string list * Ast.expr) option;
}

val interval_of : aval -> Interval.t option

val eval : env -> Ast.expr -> aval * alarm list
(** Evaluate abstractly; alarms are deduplicated, in first-occurrence
    order. *)
