(** Statistics exported by wrappers during the registration phase (paper
    §3.2): the results of the [cardinality extent(...)] and [cardinality
    attribute(...)] methods of an interface. *)

open Disco_common

type extent = {
  count_objects : int;  (** CountObject: number of objects in the extent *)
  total_size : int;     (** TotalSize: extent size in bytes *)
  object_size : int;    (** ObjectSize: average object size in bytes *)
}

type attribute = {
  indexed : bool;          (** Indexed: an index exists on the attribute *)
  count_distinct : int;    (** CountDistinct: distinct values in the extent *)
  min : Constant.t;        (** Min: smallest value *)
  max : Constant.t;        (** Max: largest value *)
  histogram : Histogram.t option;
      (** Value distribution, when the wrapper exported samples or the
          feedback loop rebuilt one; [None] keeps the uniform assumption. *)
}

val extent : count_objects:int -> total_size:int -> object_size:int -> extent

val attribute :
  ?indexed:bool -> count_distinct:int ->
  min:Constant.t -> max:Constant.t -> unit -> attribute

val default_extent : extent
(** Standard values used when a wrapper exports nothing (paper §6). *)

val default_attribute : attribute

val pp_extent : Format.formatter -> extent -> unit
val pp_attribute : Format.formatter -> attribute -> unit

val attribute_of_values : ?indexed:bool -> Constant.t list -> attribute
(** Compute attribute statistics from actual column values; wrappers use this
    to implement their cardinality methods over generated data. Empty input
    yields {!default_attribute}. *)
