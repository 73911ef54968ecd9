(* A secondary index: keys in sorted order, each with the row positions of
   the matching objects. Implemented as a sorted key array with binary
   search over flat postings — behaviourally equivalent to a B-tree for our
   simulation purposes; the probe cost (tree descent) is charged by the
   executor.

   Postings are stored CSR-style: one [int array] of row positions (indexes
   into the table's columns, i.e. storage order) in key order, and
   per key the offset of its first posting. A key range is therefore one
   contiguous run of offsets, and counting matches is a subtraction. Within
   a key, positions are in descending storage order: that is the order the
   index has always replayed its fetches in, and the simulated IO of an
   index scan (which pages hit the LRU pool, in which order) and the order
   of its output rows both depend on it. *)

open Disco_common

type t = {
  keys : Constant.t array;  (* sorted, distinct *)
  starts : int array;       (* key_count + 1 offsets into [postings] *)
  postings : int array;     (* row positions, key order, descending within a key *)
  height : int;             (* simulated tree height, for probe cost *)
}

let height_of n =
  (* fanout-128 tree *)
  let rec go h cap = if cap >= n || h > 8 then h else go (h + 1) (cap * 128) in
  go 1 128

(* Positions enter the stable sort last first, so equal keys keep
   descending position; a key's group is represented by its first sorted
   entry, and an entry joins the group while it compares equal to that
   representative. *)
let build (key_at : Constant.t array) : t =
  let n = Array.length key_at in
  let postings = Array.init n (fun i -> n - 1 - i) in
  Array.stable_sort (fun p q -> Constant.compare key_at.(p) key_at.(q)) postings;
  let groups = ref 0 and rep = ref (-1) in
  Array.iter
    (fun p ->
      if !rep < 0 || Constant.compare key_at.(!rep) key_at.(p) <> 0 then begin
        incr groups;
        rep := p
      end)
    postings;
  let keys = Array.make !groups Constant.Null and starts = Array.make (!groups + 1) n in
  let g = ref (-1) in
  Array.iteri
    (fun o p ->
      if !g < 0 || Constant.compare keys.(!g) key_at.(p) <> 0 then begin
        incr g;
        keys.(!g) <- key_at.(p);
        starts.(!g) <- o
      end)
    postings;
  { keys; starts; postings; height = height_of !groups }

let key_count t = Array.length t.keys

(* Index of the first key >= [k] (length if none). *)
let lower_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Constant.compare t.keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of the first key > [k]. *)
let upper_bound t k =
  let lo = ref 0 and hi = ref (Array.length t.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Constant.compare t.keys.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find t k =
  let i = lower_bound t k in
  if i < Array.length t.keys && Constant.compare t.keys.(i) k = 0 then i else -1

(* [Constant.compare key (Int x)] without boxing the probe: against a
   non-numeric key only the constructor rank decides, whatever the
   number. *)
let compare_int key x =
  match key with
  | Constant.Int y -> Int.compare y x
  | Constant.Float y -> Float.compare y (float_of_int x)
  | _ -> Constant.compare key (Constant.Int 0)

let find_int t x =
  let lo = ref 0 and hi = ref (Array.length t.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_int t.keys.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length t.keys && compare_int t.keys.(!lo) x = 0 then !lo else -1

(* The posting offsets [span_lo, span_hi) of [key op k] — for [Ne], the
   offsets it excludes (the key itself). *)
let span_lo t (op : Cmp.t) k =
  match op with
  | Cmp.Lt | Le -> 0
  | Eq | Ne | Ge -> t.starts.(lower_bound t k)
  | Gt -> t.starts.(upper_bound t k)

let span_hi t (op : Cmp.t) k =
  match op with
  | Cmp.Eq | Ne | Le -> t.starts.(upper_bound t k)
  | Lt -> t.starts.(lower_bound t k)
  | Gt | Ge -> Array.length t.postings

let count t op k =
  let n = span_hi t op k - span_lo t op k in
  match op with Cmp.Ne -> Array.length t.postings - n | _ -> n

let iter_spans t op k f =
  let lo = span_lo t op k and hi = span_hi t op k in
  match op with
  | Cmp.Ne ->
    if lo > 0 then f 0 lo;
    if hi < Array.length t.postings then f hi (Array.length t.postings)
  | _ -> if lo < hi then f lo hi
