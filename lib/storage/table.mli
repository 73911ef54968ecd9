(** A stored collection: fixed-size objects packed into pages, optionally
    clustered on one attribute, with secondary B-tree indexes. This is the
    simulated stand-in for the paper's data sources; object placement across
    pages is what makes index-scan costs follow Yao's formula rather than the
    linear calibrated model.

    A table is its columns: each object is stored once, cell by cell, in
    storage order, and a page is arithmetic on a position (every page but
    the last holds [per_page] objects). *)

open Disco_common
open Disco_catalog

type tuple = Constant.t array

(** One whole-table column in storage order: unboxed when every cell is an
    Int (resp. Float), boxed otherwise. This is the table's only copy of
    its objects, and the executor's batches ({!Disco_exec.Batch.col}) use
    the same type, so a scan's batch is the table's column array itself.
    Index postings ({!Btree}) are positions in this order. *)
type col =
  | Ints of int array
  | Floats of float array
  | Boxed of Constant.t array

val cell : col -> int -> Constant.t
(** [cell c i] boxes cell [i]. *)

val cols_bytes : ?sel:int array -> col array -> int -> int
(** [cols_bytes cols n]: {!Constant.byte_size} summed over cells
    [0 .. n - 1] of every column ([8] per unboxed cell); with [~sel], over
    cells [sel.(0) .. sel.(n - 1)] instead. *)

type t = {
  name : string;
  schema : Schema.collection;
  object_size : int;          (** bytes per object *)
  indexes : (string * Btree.t) list;
  clustered_on : string option;
  count : int;
  per_page : int;
      (** objects per page: every page but the last is full, so row
          position [p] is on page [p / per_page] *)
  columns : col array;        (** per attribute: the stored objects *)
  bytes : int;
      (** [cols_bytes columns count], so a batch over the whole table
          needs no pass over its cells *)
}

val objects_per_page : page_size:int -> fill:float -> object_size:int -> int
(** With the paper's §5 parameters (4096-byte pages, 96 % fill, 56-byte
    objects) this is 70, giving 1000 pages for 70000 objects. *)

val create :
  name:string ->
  schema:Schema.collection ->
  ?page_size:int ->
  ?fill:float ->
  object_size:int ->
  ?cluster_on:string ->
  ?index_on:string list ->
  tuple list ->
  t
(** Build a table. Rows are stored in the given order — callers shuffle
    beforehand for random (unclustered) placement — unless [cluster_on] asks
    for clustering, in which case rows are stably sorted by that attribute
    first. [page_size] and [fill] only set [per_page]. Each [index_on]
    attribute gets a {!Btree} over its column. *)

val page_count : t -> int
(** [ceil (count / per_page)]. *)

val count : t -> int
val total_size : t -> int

val page_of : t -> int -> int
(** The page holding a row position. *)

val fetch : t -> int -> tuple
(** The row at a position, boxed from the columns (a fresh array). *)

val index : t -> string -> Btree.t option
val has_index : t -> string -> bool

val iter_pages : t -> (int -> int -> int -> unit) -> unit
(** [iter_pages t f] calls [f p lo hi] for pages [p = 0 .. page_count - 1]
    in order, where page [p] holds positions [lo .. hi - 1]:
    [lo = p * per_page] and [hi = min count (lo + per_page)]. *)

val rows : t -> tuple list
(** All rows, in storage order. *)

val column : t -> string -> Constant.t list
(** One attribute's cells, in storage order.
    @raise Disco_common.Err.Unknown_attribute when absent. *)

(** {1 Statistics export — the wrapper's cardinality methods (paper §3.2)} *)

val extent_stats : t -> Stats.extent
val attribute_stats : t -> string -> Stats.attribute
val all_attribute_stats : t -> (string * Stats.attribute) list
