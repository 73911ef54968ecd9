(* Vectorized predicate evaluation: compile a predicate once per batch into
   a selection mask (one byte per row), or once per batch pair into a
   two-row evaluator for joins — instead of re-resolving attribute names and
   re-dispatching on constructors per tuple, as [Pred.eval] does.

   Semantics are pinned to the tuple path:
   - attribute resolution mirrors [Tuple.get] (via [Batch.find_col]), and
     for pairs resolves over the concatenated schema exactly like
     [Tuple.get] on [Tuple.concat lt rt];
   - comparison agrees with [Cmp.eval]/[Constant.compare], including the
     Int/Float coercion and the rank order across constructors;
   - the right operand of [And]/[Or] is only compiled and evaluated when
     some row short-circuits into it, so a resolution error in a dead
     branch raises in the batch path exactly when it would have raised in
     the tuple path. *)

open Disco_common
open Disco_algebra

let holds (op : Cmp.t) c =
  match op with
  | Cmp.Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let with_mask n f =
  let m = Bytes.make n '\000' in
  let cnt = ref 0 in
  for i = 0 to n - 1 do
    if f i then begin
      Bytes.unsafe_set m i '\001';
      incr cnt
    end
  done;
  (m, !cnt)

(* The compare kernel below stores each row's outcome, 0 or 1, as its mask
   byte and adds it to the count: no closure call and no branch per row.
   [neg] is 0 or 1 and is xored into the outcome, so Ne, Ge and Le run as
   the negations of Eq, Lt and Gt, which on ints are exact complements.
   [Array.unsafe_get] is written out at every site: the primitive is
   specialized to int arrays only where it is applied. *)
let[@inline] put m i b neg =
  let b = Bool.to_int b lxor neg in
  Bytes.unsafe_set m i (Char.unsafe_chr b);
  b

type base = Beq | Blt | Bgt

let ints_int m n (a : int array) sel (x : int) op neg =
  let c = ref 0 in
  let open Array in
  (match sel, op with
   | None, Beq -> for i = 0 to n - 1 do c := !c + put m i (unsafe_get a i = x) neg done
   | None, Blt -> for i = 0 to n - 1 do c := !c + put m i (unsafe_get a i < x) neg done
   | None, Bgt -> for i = 0 to n - 1 do c := !c + put m i (unsafe_get a i > x) neg done
   | Some s, Beq ->
     for i = 0 to n - 1 do c := !c + put m i (unsafe_get a (unsafe_get s i) = x) neg done
   | Some s, Blt ->
     for i = 0 to n - 1 do c := !c + put m i (unsafe_get a (unsafe_get s i) < x) neg done
   | Some s, Bgt ->
     for i = 0 to n - 1 do c := !c + put m i (unsafe_get a (unsafe_get s i) > x) neg done);
  !c

(* attr-vs-constant column comparison: the kernel for an int column
   against an int constant, row by row through [with_mask] otherwise.
   [ix] translates logical row indices through the batch's selection
   vector (identity for dense batches). *)
let cmp_mask (b : Batch.t) ci op v =
  let n = b.Batch.len in
  match b.Batch.cols.(ci), v with
  | Batch.Ints a, Constant.Int x ->
    let base, neg =
      match op with
      | Cmp.Eq -> (Beq, 0)
      | Ne -> (Beq, 1)
      | Lt -> (Blt, 0)
      | Ge -> (Blt, 1)
      | Gt -> (Bgt, 0)
      | Le -> (Bgt, 1)
    in
    let m = Bytes.create n in
    (m, ints_int m n a b.Batch.sel x base neg)
  | Batch.Ints a, Constant.Float x ->
    let ix = Batch.indexer b in
    with_mask n (fun i -> holds op (Float.compare (float_of_int a.(ix i)) x))
  | Batch.Floats a, Constant.Float x ->
    let ix = Batch.indexer b in
    with_mask n (fun i -> holds op (Float.compare a.(ix i) x))
  | Batch.Floats a, Constant.Int xi ->
    let ix = Batch.indexer b in
    let x = float_of_int xi in
    with_mask n (fun i -> holds op (Float.compare a.(ix i) x))
  | Batch.Ints _, v ->
    (* non-numeric constant vs a numeric column: the comparison is decided
       by constructor rank alone, so the whole column answers alike *)
    let r = holds op (Constant.compare (Constant.Int 0) v) in
    with_mask n (fun _ -> r)
  | Batch.Floats _, v ->
    let r = holds op (Constant.compare (Constant.Float 0.) v) in
    with_mask n (fun _ -> r)
  | Batch.Boxed a, v ->
    let ix = Batch.indexer b in
    with_mask n (fun i -> Cmp.eval op a.(ix i) v)

let attr_mask (b : Batch.t) ci cj op =
  let n = b.Batch.len in
  match b.Batch.cols.(ci), b.Batch.cols.(cj) with
  | Batch.Ints a, Batch.Ints c ->
    let ix = Batch.indexer b in
    (match op with
     | Cmp.Eq -> with_mask n (fun i -> a.(ix i) = c.(ix i))
     | Ne -> with_mask n (fun i -> a.(ix i) <> c.(ix i))
     | Lt -> with_mask n (fun i -> a.(ix i) < c.(ix i))
     | Le -> with_mask n (fun i -> a.(ix i) <= c.(ix i))
     | Gt -> with_mask n (fun i -> a.(ix i) > c.(ix i))
     | Ge -> with_mask n (fun i -> a.(ix i) >= c.(ix i)))
  | _ -> with_mask n (fun i -> holds op (Batch.cell_compare b ci i b cj i))

(* [mp] narrowed (widened) to the rows set in [mq] as well (as well or
   instead), in place; the new count. Mask bytes are 0 or 1. *)
let both mp mq n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    let b = Char.code (Bytes.unsafe_get mp i) land Char.code (Bytes.unsafe_get mq i) in
    Bytes.unsafe_set mp i (Char.unsafe_chr b);
    c := !c + b
  done;
  !c

let either mp mq n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    let b = Char.code (Bytes.unsafe_get mp i) lor Char.code (Bytes.unsafe_get mq i) in
    Bytes.unsafe_set mp i (Char.unsafe_chr b);
    c := !c + b
  done;
  !c

(* Selection mask of [p] over [b], with its true-count. The right side of a
   conjunction (disjunction) is skipped when no (every) row reaches it —
   the same rows the tuple path's short-circuit would skip. *)
let rec mask ~apply (b : Batch.t) (p : Pred.t) : Bytes.t * int =
  let n = b.Batch.len in
  match p with
  | Pred.True -> (Bytes.make n '\001', n)
  | Pred.Cmp (a, op, v) -> cmp_mask b (Batch.find_col b a) op v
  | Pred.Attr_cmp (a, op, b') ->
    let ci = Batch.find_col b a in
    let cj = Batch.find_col b b' in
    attr_mask b ci cj op
  | Pred.Apply (fn, a, v) ->
    let c = Batch.find_col b a in
    with_mask n (fun i -> apply fn (Batch.cell b c i) v)
  | Pred.And (p, q) ->
    let mp, cp = mask ~apply b p in
    if cp = 0 then (mp, 0)
    else begin
      let mq, _ = mask ~apply b q in
      (mp, both mp mq n)
    end
  | Pred.Or (p, q) ->
    let mp, cp = mask ~apply b p in
    if cp = n then (mp, n)
    else begin
      let mq, _ = mask ~apply b q in
      (mp, either mp mq n)
    end
  | Pred.Not p ->
    let mp, cp = mask ~apply b p in
    for i = 0 to n - 1 do
      Bytes.unsafe_set mp i (Char.unsafe_chr (Char.code (Bytes.unsafe_get mp i) lxor 1))
    done;
    (mp, n - cp)

(* --- Pair evaluators (joins) ----------------------------------------------- *)

type loc = L of int | R of int

(* Resolution over the concatenated schema, identical to [Tuple.get] on
   [Tuple.concat lt rt]: exact match scans left attrs then right attrs;
   the suffix fallback must be unique across both. *)
let find_pair (l : Batch.t) (r : Batch.t) name : loc =
  let la = l.Batch.attrs and ra = r.Batch.attrs in
  let ln = Array.length la in
  let rec exact i =
    if i < ln then
      if String.equal la.(i) name then Some (L i) else exact (i + 1)
    else if i - ln < Array.length ra then
      if String.equal ra.(i - ln) name then Some (R (i - ln)) else exact (i + 1)
    else None
  in
  match exact 0 with
  | Some loc -> loc
  | None ->
    let matches = ref [] in
    let consider i a =
      match Disco_algebra.Plan.split_attr a with
      | Some (_, base) when String.equal base name -> matches := i :: !matches
      | _ -> ()
    in
    Array.iteri consider la;
    Array.iteri (fun i a -> consider (ln + i) a) ra;
    (match !matches with
     | [ i ] -> if i < ln then L i else R (i - ln)
     | _ ->
       raise
         (Err.Eval_error
            (Fmt.str "attribute %S not found in tuple (%s)" name
               (String.concat ", " (Array.to_list la @ Array.to_list ra)))))

let int_test (op : Cmp.t) : int -> int -> bool =
  match op with
  | Cmp.Eq -> ( = )
  | Ne -> ( <> )
  | Lt -> ( < )
  | Le -> ( <= )
  | Gt -> ( > )
  | Ge -> ( >= )

(* [pair_eval ~apply l r p] compiles [p] into a [fun li ri -> bool] over row
   [li] of [l] concatenated with row [ri] of [r]. Compile it lazily — only
   once a candidate pair actually needs evaluation — so resolution errors
   surface exactly when the tuple path would raise them. *)
let pair_eval ~apply (l : Batch.t) (r : Batch.t) (p : Pred.t) :
    int -> int -> bool =
  let colof = function L c -> l.Batch.cols.(c) | R c -> r.Batch.cols.(c) in
  let lix = Batch.indexer l and rix = Batch.indexer r in
  let cellf = function
    | L c -> fun i _ -> Batch.cell l c i
    | R c -> fun _ j -> Batch.cell r c j
  in
  let rec go = function
    | Pred.True -> fun _ _ -> true
    | Pred.And (p, q) ->
      let f = go p in
      let g = lazy (go q) in
      fun i j -> f i j && (Lazy.force g) i j
    | Pred.Or (p, q) ->
      let f = go p in
      let g = lazy (go q) in
      fun i j -> f i j || (Lazy.force g) i j
    | Pred.Not p ->
      let f = go p in
      fun i j -> not (f i j)
    | Pred.Cmp (a, op, v) ->
      let loc = find_pair l r a in
      (match colof loc, v with
       | Batch.Ints arr, Constant.Int x ->
         let t = int_test op in
         (match loc with
          | L _ -> fun i _ -> t arr.(lix i) x
          | R _ -> fun _ j -> t arr.(rix j) x)
       | _ ->
         let get = cellf loc in
         fun i j -> Cmp.eval op (get i j) v)
    | Pred.Attr_cmp (a, op, b) ->
      let la = find_pair l r a in
      let lb = find_pair l r b in
      (match colof la, colof lb with
       | Batch.Ints xs, Batch.Ints ys ->
         let t = int_test op in
         (match la, lb with
          | L _, R _ -> fun i j -> t xs.(lix i) ys.(rix j)
          | R _, L _ -> fun i j -> t xs.(rix j) ys.(lix i)
          | L _, L _ -> fun i _ -> t xs.(lix i) ys.(lix i)
          | R _, R _ -> fun _ j -> t xs.(rix j) ys.(rix j))
       | _ ->
         let ga = cellf la and gb = cellf lb in
         fun i j -> Cmp.eval op (ga i j) (gb i j))
    | Pred.Apply (fn, a, v) ->
      let get = cellf (find_pair l r a) in
      fun i j -> apply fn (get i j) v
  in
  go p
