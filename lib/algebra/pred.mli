(** Predicates over objects: attribute-vs-constant comparisons, attribute-vs-
    attribute comparisons (join conditions), and boolean combinations. *)

open Disco_common

type cmp = Cmp.t = Eq | Ne | Lt | Le | Gt | Ge
(** Re-export of {!Disco_common.Cmp.t}. *)

val pp_cmp : Format.formatter -> cmp -> unit
val eval_cmp : cmp -> Constant.t -> Constant.t -> bool

type t =
  | Cmp of string * cmp * Constant.t   (** [attr op constant] *)
  | Attr_cmp of string * cmp * string  (** [attr op attr] (join condition) *)
  | Apply of string * string * Constant.t
      (** [fn(attr, constant)]: a boolean abstract-data-type operation
          implemented by the wrapper (paper §7); its cost and selectivity may
          be exported through the cost language *)
  | And of t * t
  | Or of t * t
  | Not of t
  | True                               (** the neutral predicate *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val equal : t -> t -> bool
(** Structural equality (constants compare with numeric coercion). *)

val hash : t -> int
(** Structural hash consistent with {!equal}; unbounded depth, unlike the
    default [Hashtbl.hash]. *)

val eval :
  ?apply:(string -> Constant.t -> Constant.t -> bool) ->
  (string -> Constant.t) -> t -> bool
(** [eval lookup p] evaluates [p], resolving attribute names through
    [lookup]; [apply] supplies the implementations of ADT operations (the
    default raises {!Disco_common.Err.Eval_error}). *)

val adt_operations : t -> string list
(** Names of the ADT operations invoked, with duplicates. *)

val has_apply : t -> bool

val attributes : t -> string list
(** All attribute names referenced, with duplicates, in syntactic order. *)

val conjuncts : t -> t list
(** Split a conjunction into atomic conjuncts; [conjuncts True = []]. *)

val conj : t list -> t
(** Rebuild a conjunction; [conj [] = True]. For any [p] built from [And],
    [conj (conjuncts p)] is logically equivalent to [p]. *)
