(** Runtime tuples: a flat array of constants with qualified attribute names
    ([e.salary]). Joins concatenate, projections restrict. *)

open Disco_common

type t = {
  attrs : string array;
  values : Constant.t array;
}

val make : string array -> Constant.t array -> t
(** @raise Invalid_argument on arity mismatch. *)

val arity : t -> int

val get : t -> string -> Constant.t
(** Lookup by qualified name, falling back to a unique unqualified-suffix
    match. @raise Disco_common.Err.Eval_error when absent or ambiguous. *)

val concat : t -> t -> t

val project : t -> string list -> t
(** Restrict (and reorder) to the given attributes. *)

val byte_size : t -> int
(** Serialized width, used to charge communication cost. *)

val equal : t -> t -> bool

val key : t -> string
(** A hashable key of the tuple's values (dedup, grouping). *)

val pp : Format.formatter -> t -> unit
val pp_with_names : Format.formatter -> t -> unit
