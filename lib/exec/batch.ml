(* Columnar tuple batches for the vectorized executor. A batch holds a run
   of rows that share one schema, stored column-wise: int and float columns
   are unboxed ([int array] / [float array]); everything else — strings,
   nulls, booleans, mixed columns — falls back to a boxed [Constant.t array].
   The builder types a column optimistically from its first value and
   promotes to boxed on the first mismatch, so clean numeric data never
   boxes while dirty data stays correct.

   Invariants relied on by the batch execution path in {!Run}:
   - [len > 0] for every batch an operator emits (empty batches are dropped);
   - [bytes] is the exact sum of [Tuple.byte_size] over the batch's rows
     (integer arithmetic, so carrying it incrementally is exact);
   - attribute resolution ([find_col]) matches [Tuple.get]: exact match
     first, then a unique unqualified-suffix match, else [Err.Eval_error]. *)

open Disco_common
module Table = Disco_storage.Table

(* Storage's column type: a table's columns are batch columns as they are. *)
type col = Table.col =
  | Ints of int array
  | Floats of float array
  | Boxed of Constant.t array

type t = {
  attrs : string array;
  cols : col array;
  len : int;
  bytes : int;  (* sum of Constant.byte_size over all cells *)
  sel : int array option;
      (* selection vector: when [Some s], logical row [i] lives at physical
         index [s.(i)] of every column (and [len = Array.length s]). A
         filter emits this instead of gathering fresh columns — the classic
         vectorized-executor trick that makes a 50%-selective filter cost a
         selection array rather than a copy of half the data. *)
}

let length b = b.len
let attrs b = b.attrs
let byte_size b = b.bytes

(* Logical-to-physical row translation; the identity for dense batches. *)
let indexer b =
  match b.sel with
  | None -> fun i -> i
  | Some s -> fun i -> Array.unsafe_get s i

let phys b i = match b.sel with None -> i | Some s -> s.(i)

(* Box one cell; [i] is a logical row index. *)
let cell b c i = Table.cell b.cols.(c) (phys b i)

(* Compare two cells without boxing when both columns are unboxed; must
   agree with [Constant.compare] on the boxed values (it does: Int/Int is
   [Int.compare], Float/Float is [Float.compare], and Int/Float coerces the
   int side to float). *)
let cell_compare ba ca ia bb cb ib =
  let pa = phys ba ia and pb = phys bb ib in
  match ba.cols.(ca), bb.cols.(cb) with
  | Ints xs, Ints ys -> Int.compare xs.(pa) ys.(pb)
  | Floats xs, Floats ys -> Float.compare xs.(pa) ys.(pb)
  | Ints xs, Floats ys -> Float.compare (float_of_int xs.(pa)) ys.(pb)
  | Floats xs, Ints ys -> Float.compare xs.(pa) (float_of_int ys.(pb))
  | _ -> Constant.compare (cell ba ca ia) (cell bb cb ib)

(* Attribute resolution, mirroring [Tuple.get]: first exact name match wins;
   otherwise a unique match on the unqualified suffix; otherwise the same
   [Err.Eval_error] a tuple lookup would raise. *)
let find_col_opt b name =
  let n = Array.length b.attrs in
  let rec exact i =
    if i >= n then None
    else if String.equal b.attrs.(i) name then Some i
    else exact (i + 1)
  in
  match exact 0 with
  | Some _ as r -> r
  | None ->
    let matches = ref [] in
    Array.iteri
      (fun i a ->
        match Disco_algebra.Plan.split_attr a with
        | Some (_, base) when String.equal base name -> matches := i :: !matches
        | _ -> ())
      b.attrs;
    (match !matches with [ i ] -> Some i | _ -> None)

let find_col b name =
  match find_col_opt b name with
  | Some i -> i
  | None ->
    raise
      (Err.Eval_error
         (Fmt.str "attribute %S not found in tuple (%s)" name
            (String.concat ", " (Array.to_list b.attrs))))

(* The first [n] rows of [b], boxed and consed onto [acc] from the last
   row to the first, so each row is consed once. A row allocates its cons,
   its tuple, its values array and one box per unboxed cell, all small
   blocks in the minor heap: no row array, and no minor collection forced
   by storing young values into a major block. *)
let rows_onto b n acc =
  let w = Array.length b.cols in
  let acc = ref acc in
  for i = n - 1 downto 0 do
    let p = match b.sel with None -> i | Some s -> Array.unsafe_get s i in
    let values = Array.make w Constant.Null in
    for c = 0 to w - 1 do
      Array.unsafe_set values c
        (match Array.unsafe_get b.cols c with
         | Ints a -> Constant.Int (Array.unsafe_get a p)
         | Floats a -> Constant.Float (Array.unsafe_get a p)
         | Boxed a -> Array.unsafe_get a p)
    done;
    acc := { Tuple.attrs = b.attrs; values } :: !acc
  done;
  !acc

let to_tuples b = rows_onto b b.len []

(* Rendered-values key, identical to [Tuple.key] on row [i]'s tuple. *)
let row_key b i =
  String.concat "\x00"
    (List.init (Array.length b.cols) (fun c -> Constant.to_string (cell b c i)))

let row_bytes b i =
  let i = phys b i in
  let acc = ref 0 in
  for c = 0 to Array.length b.cols - 1 do
    acc :=
      !acc
      +
      match b.cols.(c) with
      | Ints _ -> 8
      | Floats _ -> 8
      | Boxed a -> Constant.byte_size a.(i)
  done;
  !acc

let same_schema a b =
  a.attrs == b.attrs
  || (Array.length a.attrs = Array.length b.attrs
      && Array.for_all2 String.equal a.attrs b.attrs)

(* --- Builder --------------------------------------------------------------- *)

(* Column buffers start untyped; the first row decides Ints / Floats / Boxed
   per column, and a later mismatching value promotes the buffer to boxed,
   copying the prefix. *)
type buf =
  | Bempty
  | Bints of int array
  | Bfloats of float array
  | Bboxed of Constant.t array

type builder = {
  battrs : string array;
  mutable bufs : buf array;
  mutable blen : int;
  mutable cap : int;
  mutable bbytes : int;
}

let builder ?(hint = 64) attrs =
  { battrs = attrs;
    bufs = Array.make (Array.length attrs) Bempty;
    blen = 0;
    cap = max hint 1;
    bbytes = 0 }

let builder_len bld = bld.blen

let grow bld =
  let cap' = bld.cap * 2 in
  bld.bufs <-
    Array.map
      (function
        | Bempty -> Bempty
        | Bints a ->
          let a' = Array.make cap' 0 in
          Array.blit a 0 a' 0 bld.blen; Bints a'
        | Bfloats a ->
          let a' = Array.make cap' 0. in
          Array.blit a 0 a' 0 bld.blen; Bfloats a'
        | Bboxed a ->
          let a' = Array.make cap' Constant.Null in
          Array.blit a 0 a' 0 bld.blen; Bboxed a')
      bld.bufs;
  bld.cap <- cap'

let box_prefix bld = function
  | Bempty -> Array.make bld.cap Constant.Null
  | Bints a -> Array.init bld.cap (fun i -> if i < bld.blen then Constant.Int a.(i) else Constant.Null)
  | Bfloats a ->
    Array.init bld.cap (fun i -> if i < bld.blen then Constant.Float a.(i) else Constant.Null)
  | Bboxed a -> a

(* Store cell [v] at column [c], row [bld.blen]; caller bumps [blen]. *)
let put bld c (v : Constant.t) =
  let i = bld.blen in
  (match bld.bufs.(c), v with
   | Bints a, Constant.Int x -> a.(i) <- x
   | Bfloats a, Constant.Float x -> a.(i) <- x
   | Bboxed a, v -> a.(i) <- v
   | Bempty, Constant.Int x ->
     let a = Array.make bld.cap 0 in
     a.(i) <- x;
     bld.bufs.(c) <- Bints a
   | Bempty, Constant.Float x ->
     let a = Array.make bld.cap 0. in
     a.(i) <- x;
     bld.bufs.(c) <- Bfloats a
   | (Bempty | Bints _ | Bfloats _), v ->
     let a = box_prefix bld bld.bufs.(c) in
     a.(i) <- v;
     bld.bufs.(c) <- Bboxed a);
  bld.bbytes <- bld.bbytes + Constant.byte_size v

let add_row bld (values : Constant.t array) =
  if bld.blen >= bld.cap then grow bld;
  Array.iteri (fun c v -> put bld c v) values;
  bld.blen <- bld.blen + 1

(* Append row [i] of batch [src]; schemas must already agree (column count —
   callers key output builders by schema). Unboxed-to-unboxed copies avoid
   boxing. *)
let add_from bld (src : t) i =
  if bld.blen >= bld.cap then grow bld;
  let j = bld.blen in
  let ip = phys src i in
  Array.iteri
    (fun c scol ->
      match bld.bufs.(c), scol with
      | Bints a, Ints s ->
        a.(j) <- s.(ip);
        bld.bbytes <- bld.bbytes + 8
      | Bfloats a, Floats s ->
        a.(j) <- s.(ip);
        bld.bbytes <- bld.bbytes + 8
      | Bempty, Ints s ->
        let a = Array.make bld.cap 0 in
        a.(j) <- s.(ip);
        bld.bufs.(c) <- Bints a;
        bld.bbytes <- bld.bbytes + 8
      | Bempty, Floats s ->
        let a = Array.make bld.cap 0. in
        a.(j) <- s.(ip);
        bld.bufs.(c) <- Bfloats a;
        bld.bbytes <- bld.bbytes + 8
      | _, _ -> put bld c (cell src c i))
    src.cols;
  bld.blen <- j + 1

(* Append the concatenation of row [li] of [l] and row [ri] of [r]; the
   builder's schema is [l.attrs ++ r.attrs]. *)
let add_pair_from bld (l : t) li (r : t) ri =
  if bld.blen >= bld.cap then grow bld;
  let j = bld.blen in
  let lw = Array.length l.cols in
  let one off (src : t) c i =
    let ip = phys src i in
    match bld.bufs.(off + c), src.cols.(c) with
    | Bints a, Ints s ->
      a.(j) <- s.(ip);
      bld.bbytes <- bld.bbytes + 8
    | Bfloats a, Floats s ->
      a.(j) <- s.(ip);
      bld.bbytes <- bld.bbytes + 8
    | Bempty, Ints s ->
      let a = Array.make bld.cap 0 in
      a.(j) <- s.(ip);
      bld.bufs.(off + c) <- Bints a;
      bld.bbytes <- bld.bbytes + 8
    | Bempty, Floats s ->
      let a = Array.make bld.cap 0. in
      a.(j) <- s.(ip);
      bld.bufs.(off + c) <- Bfloats a;
      bld.bbytes <- bld.bbytes + 8
    | _, _ -> put bld (off + c) (cell src c i)
  in
  for c = 0 to lw - 1 do one 0 l c li done;
  for c = 0 to Array.length r.cols - 1 do one lw r c ri done;
  bld.blen <- j + 1

(* Emit the accumulated rows as a batch and reset the builder. *)
let flush bld : t =
  let n = bld.blen in
  let trim = function
    | Bempty -> Boxed [||]
    | Bints a -> Ints (if Array.length a = n then a else Array.sub a 0 n)
    | Bfloats a -> Floats (if Array.length a = n then a else Array.sub a 0 n)
    | Bboxed a -> Boxed (if Array.length a = n then a else Array.sub a 0 n)
  in
  let b =
    { attrs = bld.battrs; cols = Array.map trim bld.bufs; len = n;
      bytes = bld.bbytes; sel = None }
  in
  bld.bufs <- Array.make (Array.length bld.battrs) Bempty;
  bld.blen <- 0;
  bld.bbytes <- 0;
  b

(* --- Selection ------------------------------------------------------------- *)

(* Keep the rows whose mask byte is non-zero. [keep] is their count. The
   result SHARES [b]'s column arrays and carries a selection vector instead
   of gathering — at high row counts the gather's allocation churn (and the
   major-GC work it triggers against a large live heap) costs more than the
   whole filter. Consumers translate through [indexer]/[phys].

   Every row's index is written at [j], and [j] advances by one if the
   row's mask byte is non-zero, so no row branches on its byte. The loop
   ends at the last kept row: up to there [j] stays below [keep], so every
   write lands in the [keep]-entry vector. *)
let filter b (mask : Bytes.t) ~keep : t =
  if keep = b.len then b
  else begin
    let sel = Array.make keep 0 in
    let last = ref (b.len - 1) in
    if keep > 0 then
      while Bytes.get mask !last = '\000' do decr last done
    else last := -1;
    let j = ref 0 in
    (match b.sel with
     | None ->
       for i = 0 to !last do
         Array.unsafe_set sel !j i;
         j := !j + Bool.to_int (Bytes.unsafe_get mask i <> '\000')
       done
     | Some s ->
       for i = 0 to !last do
         Array.unsafe_set sel !j (Array.unsafe_get s i);
         j := !j + Bool.to_int (Bytes.unsafe_get mask i <> '\000')
       done);
    { b with sel = Some sel; len = keep; bytes = Table.cols_bytes ~sel b.cols keep }
  end

(* Restrict to a subset of columns (projection); shares column arrays. *)
let select_cols b names =
  let idx = List.map (fun n -> find_col b n) names in
  let cols = Array.of_list (List.map (fun i -> b.cols.(i)) idx) in
  { attrs = Array.of_list names; cols; len = b.len;
    bytes = Table.cols_bytes ?sel:b.sel cols b.len; sel = b.sel }

(* The table's own columns as a batch — the column array itself, not a
   copy: a full scan's output references storage the way any vectorized
   engine's scan vectors do. Safe because batches are read-only after
   construction. The byte count was summed when the table was built, so
   this is O(1). *)
let of_table attrs (table : Table.t) : t =
  { attrs; cols = table.Table.columns; len = table.Table.count; bytes = table.Table.bytes;
    sel = None }

(* Rows [sel] of the dense batch [b], as a selection vector over [b]'s
   columns: an index scan's output is its postings picked out of the
   table, with no cell copied. *)
let pick (b : t) (sel : int array) : t =
  let len = Array.length sel in
  { b with sel = Some sel; len; bytes = Table.cols_bytes ~sel b.cols len }

(* --- Gather ----------------------------------------------------------------- *)

(* Global row ids over a sequence of batches: id [g] is logical row
   [g - starts.(b)] of batch [b]. [bat]/[pos] give each id's batch and
   physical row; a single batch needs neither (its ids are its logical
   rows), so they stay empty. *)
type rows = {
  srcs : t array;
  starts : int array;
  bat : int array;
  pos : int array;
}

let rows srcs =
  let nb = Array.length srcs in
  let starts = Array.make (nb + 1) 0 in
  Array.iteri (fun b s -> starts.(b + 1) <- starts.(b) + s.len) srcs;
  if nb <= 1 then { srcs; starts; bat = [||]; pos = [||] }
  else begin
    let bat = Array.make starts.(nb) 0 and pos = Array.make starts.(nb) 0 in
    Array.iteri
      (fun b s ->
        let o = starts.(b) in
        Array.fill bat o s.len b;
        match s.sel with
        | None -> for i = 0 to s.len - 1 do pos.(o + i) <- i done
        | Some sl -> Array.blit sl 0 pos o s.len)
      srcs;
    { srcs; starts; bat; pos }
  end

let rows_batch r g = if Array.length r.bat = 0 then 0 else r.bat.(g)
let rows_row r g = g - r.starts.(rows_batch r g)

(* Physical row of id [g] in [rows_batch r g]. *)
let rows_phys r g =
  if Array.length r.bat = 0 then phys r.srcs.(0) g else r.pos.(g)

(* Column [c] of the rows [ids.(lo)] .. [ids.(lo + len - 1)], and its byte
   size. Unboxed when column [c] is unboxed the same way in every source. *)
let gather_col r c ids lo len =
  let srcs = r.srcs in
  let all f = Array.for_all (fun s -> f s.cols.(c)) srcs in
  if all (function Ints _ -> true | _ -> false) then begin
    let arrs = Array.map (fun s -> match s.cols.(c) with Ints a -> a | _ -> [||]) srcs in
    let out = Array.make len 0 in
    for k = 0 to len - 1 do
      let g = ids.(lo + k) in
      out.(k) <- arrs.(rows_batch r g).(rows_phys r g)
    done;
    (Ints out, 8 * len)
  end
  else if all (function Floats _ -> true | _ -> false) then begin
    let arrs = Array.map (fun s -> match s.cols.(c) with Floats a -> a | _ -> [||]) srcs in
    let out = Array.make len 0. in
    for k = 0 to len - 1 do
      let g = ids.(lo + k) in
      out.(k) <- arrs.(rows_batch r g).(rows_phys r g)
    done;
    (Floats out, 8 * len)
  end
  else begin
    let out = Array.make len Constant.Null and bytes = ref 0 in
    for k = 0 to len - 1 do
      let g = ids.(lo + k) in
      let v = Table.cell srcs.(rows_batch r g).cols.(c) (rows_phys r g) in
      bytes := !bytes + Constant.byte_size v;
      out.(k) <- v
    done;
    (Boxed out, !bytes)
  end

let gather_into r ids lo len cols off =
  let bytes = ref 0 in
  for c = 0 to Array.length r.srcs.(0).cols - 1 do
    let col, b = gather_col r c ids lo len in
    cols.(off + c) <- col;
    bytes := !bytes + b
  done;
  !bytes

let gather r ids lo len =
  let src = r.srcs.(0) in
  let cols = Array.make (Array.length src.cols) (Boxed [||]) in
  let bytes = gather_into r ids lo len cols 0 in
  { attrs = src.attrs; cols; len; bytes; sel = None }

let gather_pairs attrs l lids r rids lo len =
  let lw = Array.length l.srcs.(0).cols in
  let cols = Array.make (lw + Array.length r.srcs.(0).cols) (Boxed [||]) in
  let bytes = gather_into l lids lo len cols 0 + gather_into r rids lo len cols lw in
  { attrs; cols; len; bytes; sel = None }

(* Convert a tuple list (one schema run is NOT assumed: the caller chunks on
   schema change) — helper for materialized inputs lives in Run. *)
let of_tuples attrs (ts : Tuple.t list) : t =
  let bld = builder ~hint:(max (List.length ts) 1) attrs in
  List.iter (fun (t : Tuple.t) -> add_row bld t.Tuple.values) ts;
  flush bld
