(** A secondary index: keys in sorted order, each with the row positions of
    the matching objects. Implemented as a sorted array with binary search —
    behaviourally equivalent to a B-tree for simulation purposes; the probe
    cost (tree descent, {!field-height} levels) is charged by the executor.

    Postings are flat (CSR): one array of row positions in key order and
    one offset per key, so a key range is one run of offsets and a match
    count is a subtraction. A position is an index into the table's
    columns (storage order). Within a key, positions are in
    descending storage order — the order index fetches have always been
    replayed in; the buffer-pool access sequence, hence the simulated IO,
    and the order of an index scan's output depend on it. *)

open Disco_common

type t = private {
  keys : Constant.t array;  (** sorted, distinct *)
  starts : int array;
      (** [key_count + 1] offsets: key [i]'s postings are [postings.(starts.(i))]
          to [postings.(starts.(i + 1) - 1)] *)
  postings : int array;     (** row positions, key order, descending within a key *)
  height : int;             (** simulated tree height, for probe cost *)
}

val build : Constant.t array -> t
(** [build keys] indexes positions [0 .. n - 1], position [p] under
    [keys.(p)]. Keys equal under [Constant.compare] share one entry,
    represented by the one at the highest position. O(n log n); the
    index retains [n + key_count + 1] words besides its keys. *)

val key_count : t -> int

val find : t -> Constant.t -> int
(** Index of the key equal to [k] under [Constant.compare], or [-1]. Its
    postings are the offsets [starts.(i)] to [starts.(i + 1) - 1]. *)

val find_int : t -> int -> int
(** [find t (Int x)] without boxing [x]: the index join's probe for an
    [Ints] outer column, the one a workload runs. Any other probe value
    goes through {!find}. *)

val iter_spans : t -> Cmp.t -> Constant.t -> (int -> int -> unit) -> unit
(** [iter_spans t op k f] calls [f lo hi] for each non-empty run of
    posting offsets [lo .. hi - 1] whose keys satisfy [key op k], in key
    order: one run, or for [Ne] the keys below [k] and then the keys
    above it. *)

val count : t -> Cmp.t -> Constant.t -> int
(** Total length of {!iter_spans}' runs, from two binary searches;
    allocates nothing. *)
