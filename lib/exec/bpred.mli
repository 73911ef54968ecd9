(** Vectorized predicate evaluation over {!Batch.t}: selection masks for one
    batch and compiled two-row evaluators for join pairs. Semantics are
    pinned to the tuple path ([Pred.eval] over [Tuple.get]), including
    attribute-resolution errors and short-circuit laziness: the right side
    of a conjunction/disjunction is only touched when some row reaches it.
    Names resolve once per batch (per batch pair) by
    {!Disco_algebra.Plan.resolve_attr}, the rule of [Tuple.get]. *)

open Disco_common
open Disco_algebra

val mask :
  apply:(string -> Constant.t -> Constant.t -> bool) ->
  Batch.t -> Pred.t -> Bytes.t * int
(** Selection mask (one byte per row: 1 = selected, 0 = not) and its
    true-count. An [Ints] column compared with an [Int] constant, the one
    comparison a workload filters on, runs one straight-line loop per
    operator, dense or through the selection vector, with no closure call
    and no branch per row; [And], [Or] and [Not] combine masks bytewise
    the same way. Every other comparison (other columns, other constants,
    two columns) is [Cmp.eval] on the boxed cells, row by row, as [Apply]
    is; the kernel agrees with it, Int/Float coercion and
    [Float.compare]'s NaN and -0.0 included.
    @raise Disco_common.Err.Eval_error as [Tuple.get] would. *)

val pair_eval :
  apply:(string -> Constant.t -> Constant.t -> bool) ->
  Batch.t -> Batch.t -> Pred.t -> int -> int -> bool
(** [pair_eval ~apply l r p li ri] evaluates [p] over row [li] of [l]
    concatenated with row [ri] of [r], resolving names over the
    concatenated schema as [Tuple.get] on [Tuple.concat] does. A
    comparison of two [Ints] columns reads them unboxed; every other leaf
    is [Cmp.eval] on the boxed cells. Callers should invoke it only once a
    candidate pair actually needs evaluation, so dead-branch resolution
    errors match the tuple path. *)
