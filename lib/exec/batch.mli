(** Columnar tuple batches for the vectorized executor: a run of rows
    sharing one schema, stored column-wise. Int and float columns are
    unboxed; strings, booleans, nulls and mixed columns fall back to a boxed
    [Constant.t array]. The builder types each column optimistically from
    its first value and promotes to boxed on the first mismatch.

    Invariants the batch execution path relies on: emitted batches are
    non-empty; [byte_size] is the exact integer sum of {!Tuple.byte_size}
    over the rows; {!find_col} resolves names by {!Tuple.get}'s rule. *)

open Disco_common

(** Storage's column type, so a table's columns are batch columns as they
    are. *)
type col = Disco_storage.Table.col =
  | Ints of int array
  | Floats of float array
  | Boxed of Constant.t array

type t = {
  attrs : string array;
  cols : col array;
  len : int;
  bytes : int;
  sel : int array option;
      (** selection vector: when [Some s], logical row [i] of the batch lives
          at physical index [s.(i)] of every column array (and
          [len = Array.length s]). Filters emit this instead of gathering
          columns; read raw columns through {!indexer}. *)
}

val length : t -> int
val attrs : t -> string array
val byte_size : t -> int

val indexer : t -> int -> int
(** Logical-to-physical row translation ([fun i -> i] for dense batches).
    Bind it once outside a loop when indexing [cols] arrays directly. *)

val cell : t -> int -> int -> Constant.t
(** [cell b col row], boxed. *)

val find_col : t -> string -> int
(** {!Disco_algebra.Plan.attr_index} over the batch's attributes, so
    resolution is {!Tuple.get}'s: the first exact match, else the one
    attribute whose unqualified part is the name.
    @raise Disco_common.Err.Eval_error when absent or ambiguous. *)

val rows_onto : t -> int -> Tuple.t list -> Tuple.t list
(** [rows_onto b n acc]: the first [n] rows of [b], boxed, in order, in
    front of [acc]. Rows are boxed from the last to the first, each consed
    once; a row allocates one cons, one tuple, one values array and one box
    per unboxed cell, and nothing forces a minor collection. *)

val to_tuples : t -> Tuple.t list
(** [rows_onto b (length b) []]. *)

val row_key : t -> int -> string
(** Identical to [Tuple.key] on row [i] of {!to_tuples}. *)

val row_bytes : t -> int -> int
(** Identical to [Tuple.byte_size] on row [i] of {!to_tuples}. *)

val same_schema : t -> t -> bool

type builder

val builder : ?hint:int -> string array -> builder
val builder_len : builder -> int
val add_row : builder -> Constant.t array -> unit

val add_from : builder -> t -> int -> unit
val add_pair_from : builder -> t -> int -> t -> int -> unit
(** Append the concatenation of a row of each input; the builder's schema
    must be the concatenation of the two inputs' schemas. *)

val flush : builder -> t
(** Emit the accumulated rows and reset the builder (possibly empty). *)

val filter : t -> Bytes.t -> keep:int -> t
(** Rows whose mask byte is non-zero; [keep] is their count. Shares the
    input's column arrays and sets a selection vector of exactly [keep]
    entries (composed with the input's, if any) rather than copying. The
    compaction does not branch on the mask. *)

val select_cols : t -> string list -> t
(** Projection; shares column arrays.
    @raise Disco_common.Err.Eval_error on unknown/ambiguous names. *)

val of_table : string array -> Disco_storage.Table.t -> t
(** The table's columns as a batch, under the given attribute names: [cols]
    is the table's own column array, not a copy, and row [p] is the row at
    position [p]. O(1): its byte size is the table's. *)

val pick : t -> int array -> t
(** [pick b sel]: the rows [sel.(0)], [sel.(1)], ... of the dense batch [b]
    (typically {!of_table}), in that order, as a selection vector over
    [b]'s shared columns. [sel] becomes the result's and must not be
    written afterwards; the byte size is summed over the picked rows. *)

(** {1 Gather}

    The batched engine's sort and hash join address their inputs by global
    row id and write their outputs column by column. *)

type rows
(** A sequence of batches addressed by global row id: ids count the rows
    of the batches in order, [0 .. rows_count - 1]. *)

val rows : t array -> rows
(** O(1) for one batch; two ints per row to locate ids over several. *)

val rows_batch : rows -> int -> int
(** Index of the batch holding an id. *)

val rows_row : rows -> int -> int
(** The id's logical row within {!rows_batch}. *)

val gather : rows -> int array -> int -> int -> t
(** [gather r ids lo len]: a dense batch of the rows [ids.(lo)] ..
    [ids.(lo + len - 1)], in that order. Every source batch must have the
    first one's schema. A column is [Ints] ([Floats]) when it is in every
    source, and [Boxed] otherwise. Fresh arrays: the sources are only
    read. *)

val gather_pairs : string array -> rows -> int array -> rows -> int array -> int -> int -> t
(** [gather_pairs attrs l lids r rids lo len]: the concatenation of
    [gather l lids lo len] and [gather r rids lo len], under [attrs]. *)

val of_tuples : string array -> Tuple.t list -> t
(** Build from same-schema tuples (the caller chunks on schema change). *)
