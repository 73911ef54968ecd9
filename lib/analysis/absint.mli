(** Abstract interpretation of cost formulas over the interval domain.

    It runs over the resolved formula the estimator's closures are compiled
    from ({!Disco_costlang.Compile.rule_body}), so a name means here what it
    means to the estimator: references take abstract values from the
    caller's environment, wrapper [def]s are the inlined bodies (a recursive
    or wrongly-called def is [Opaque]), builtins get interval transfer
    functions, and context functions ([sel], [adtcost], ...) are abstracted
    by their documented ranges. Where the concrete evaluator raises — a zero
    divisor, a name coerced to a number — the interpreter raises an alarm
    and continues with a sound over-approximation. *)

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

val interval_of : aval -> Interval.t option

val eval : (Compile.name -> aval) -> Compile.term -> aval * alarm list
(** Evaluate abstractly, each reference but a def parameter valued by the
    given environment; alarms are deduplicated, in first-occurrence
    order. *)
