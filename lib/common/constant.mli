(** Polymorphic constant values.

    This is the [Constant] object of the paper's cardinality interface
    (Fig 4): attribute values, predicate constants, and the [Min]/[Max]
    statistics are all represented by this type. Integers and floats compare
    and test equal across constructors. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

val pp : Format.formatter -> t -> unit
(** Render a constant; strings are quoted. *)

val to_string : t -> string
(** Byte-identical to [Fmt.str "%a" pp]. *)

val equal : t -> t -> bool
(** Equality with numeric coercion: [equal (Int 2) (Float 2.) = true]. *)

val hash : t -> int
(** Hash consistent with {!equal}: numeric constants hash through their float
    value, so [hash (Int 2) = hash (Float 2.)]. *)

val compare : t -> t -> int
(** Total order. Numerics compare by value across constructors; values of
    different kinds order by kind rank (null < bool < numeric < string). *)

val to_float_opt : t -> float option
(** Numeric view: integers and floats as themselves, booleans as 0/1, [None]
    for strings and null. *)

val fraction : min:t -> max:t -> t -> float option
(** [fraction ~min ~max v] is the position of [v] within [[min, max]] as a
    value in [[0, 1]], used for range-predicate selectivity under the uniform
    distribution assumption. Strings interpolate on their first two bytes.
    Returns [0.5] when [min >= max] (no information) and [None] when the
    bounds are not comparable numerically or lexically. *)

val byte_size : t -> int
(** Approximate serialized width in bytes, used to charge communication
    costs. *)
