(** Interval arithmetic over the extended reals: the value domain of the
    abstract interpreter. [{lo; hi; nan}] approximates a set of floats —
    every concrete result lies in [[lo, hi]], plus NaN when [nan] holds.

    Infinite endpoints mean "unbounded but finite" (cost inputs are finite
    reals without an a priori bound), so endpoint arithmetic resolves the
    IEEE indeterminate forms [0 * inf] and [inf - inf] to the sound bound
    rather than NaN. [nan] is set only by operations that can produce NaN
    or a true infinity from finite inputs (ln/log2/sqrt of a possibly
    negative argument, ln/log2 of a possibly zero argument, pow with a
    possibly negative base) and then propagates. *)

type t = { lo : float; hi : float; nan : bool }

val v : ?nan:bool -> float -> float -> t

val point : float -> t
(** Singleton interval; [point nan] is {!top_nan}. *)

val top : t

val nonneg : t
(** [[0, inf)] — cardinalities, sizes, times. *)

val unit : t
(** [[0, 1]] — selectivities. *)

val ge1 : t
(** [[1, inf)]. *)

val with_nan : bool -> t -> t

val contains : t -> float -> bool
(** Membership, NaN-aware: [contains i nan] iff [i.nan]. *)

val definitely_neg : t -> bool
val maybe_neg : t -> bool

val join : t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Division result status: the concrete evaluator raises on a zero divisor,
    so a divisor interval touching zero is reported alongside the sound
    approximation of the non-raising executions. *)
type div_status = Div_ok | Div_maybe_zero | Div_zero

val div : t -> t -> t * div_status

val exp_ : t -> t
val ln_ : t -> t
val log2_ : t -> t
val sqrt_ : t -> t
val ceil_ : t -> t
val floor_ : t -> t
val abs_ : t -> t
val pow_ : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val ite : t -> t -> t -> t
(** [ite c t e]: abstract [if(c, t, e)]. Decisive only when [c] is NaN-free
    (the concrete builtin takes the then-branch on [c <> 0], which includes
    NaN). *)

val pp : Format.formatter -> t -> unit
