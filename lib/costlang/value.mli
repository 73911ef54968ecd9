(** Runtime values flowing through compiled cost formulas. Formulas compute
    numbers, but function arguments may also be attribute/collection names,
    constants, or whole predicates (e.g. [sel(P)]). *)

open Disco_common
open Disco_algebra

type t =
  | Vnum of float
  | Vconst of Constant.t
  | Vname of string  (** an attribute or collection name bound in a head *)
  | Vpred of Pred.t  (** a predicate bound to a predicate variable *)

val to_num : t -> float
(** Numeric view; booleans coerce to 0/1.
    @raise Disco_common.Err.Eval_error for names, predicates and non-numeric
    constants. *)

val num : float -> t
