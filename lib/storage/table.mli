(** A stored collection: fixed-size objects packed into pages, optionally
    clustered on one attribute, with secondary B-tree indexes. This is the
    simulated stand-in for the paper's data sources; object placement across
    pages is what makes index-scan costs follow Yao's formula rather than the
    linear calibrated model. *)

open Disco_common
open Disco_catalog

type tuple = Constant.t array

(** One whole-table column in storage (page) order: unboxed when every cell
    is an Int (resp. Float), boxed otherwise. Cell [i] equals cell [i] of
    the [i]-th stored row, so a scan reading from the mirror sees exactly
    the rows it would read page by page. Index postings ({!Btree}) are
    positions in this order. *)
type col =
  | Cints of int array
  | Cfloats of float array
  | Cboxed of Constant.t array

type t = {
  name : string;
  schema : Schema.collection;
  pages : tuple array array;  (** page -> slot -> object *)
  object_size : int;          (** bytes per object *)
  page_size : int;
  fill : float;
  indexes : (string * Btree.t) list;
  clustered_on : string option;
  count : int;
  per_page : int;
      (** objects per page: every page but the last is full, so row
          position [p] is slot [p mod per_page] of page [p / per_page] *)
  columnar : col array;       (** per attribute; built once at creation *)
  bytes : int;
      (** [Constant.byte_size] summed over every cell of [columnar], so a
          batch over the whole mirror needs no pass over its cells *)
}

val attr_pos : t -> string -> int
(** Position of an attribute in the tuple layout.
    @raise Disco_common.Err.Unknown_attribute when absent. *)

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
(** Build a table. Rows are paged in the given order — callers shuffle
    beforehand for random (unclustered) placement — unless [cluster_on] asks
    for clustering, in which case rows are sorted by that attribute first.
    Each [index_on] attribute gets a {!Btree} over its mirror column. *)

val page_count : t -> int
val count : t -> int
val total_size : t -> int

val columnar : t -> col array
(** The columnar mirror of the stored rows, one {!col} per attribute. *)

val page_of : t -> int -> int
(** The page holding a row position. *)

val fetch : t -> int -> tuple
(** The stored row at a row position (the reference engine's index
    access; the batched engine reads the mirror instead). *)

val index : t -> string -> Btree.t option
val has_index : t -> string -> bool

val iter_pages : t -> (int -> tuple array -> unit) -> unit

val fold_pages : t -> 'a -> ('a -> int -> tuple array -> 'a) -> 'a
(** Fold over pages in storage order; the callback receives the page
    number, as {!iter_pages} does. *)

val fold_rows : t -> 'a -> ('a -> tuple -> 'a) -> 'a
(** Fold over all rows in storage order without materializing a list. *)

val rows : t -> tuple list
(** All rows, in storage order. *)

val column : t -> string -> Constant.t list

(** {1 Statistics export — the wrapper's cardinality methods (paper §3.2)} *)

val extent_stats : t -> Stats.extent
val attribute_stats : t -> string -> Stats.attribute
val all_attribute_stats : t -> (string * Stats.attribute) list
