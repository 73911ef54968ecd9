(* Equi-depth histograms over attribute values (ROADMAP: feedback-driven
   statistics; paper §4.3 motivates refreshing them from observed behaviour).

   A histogram summarizes one attribute of one extent as an array of buckets
   holding roughly equal numbers of objects. Values are mapped to a float
   *key*: numerics through {!Constant.to_float_opt}, strings through their
   first two bytes — the same lexical interpolation {!Constant.fraction}
   uses, so histogram and uniform fallback agree on what "between min and
   max" means for strings. Within a bucket the distribution is assumed
   uniform; selectivity lookups interpolate linearly. *)

open Disco_common

type kind = Numeric | Textual

type bucket = {
  lo : float;        (* smallest key in the bucket *)
  hi : float;        (* largest key in the bucket *)
  count : float;     (* objects falling in [lo, hi] *)
  distinct : float;  (* distinct keys in [lo, hi] *)
}

type t = {
  kind : kind;
  buckets : bucket array;  (* non-empty; ascending, non-overlapping *)
  total : float;           (* sum of bucket counts *)
}

let buckets t = Array.to_list t.buckets
let total t = t.total

let str_key s =
  let byte i = if String.length s > i then Char.code s.[i] else 0 in
  float_of_int ((byte 0 * 256) + byte 1)

(* Key of a constant under a histogram's kind; [None] when the constant is
   not comparable in that domain (lookups then fall back to uniform). *)
let key t (c : Constant.t) =
  match (t.kind, c) with
  | Textual, Constant.String s -> Some (str_key s)
  | Textual, _ -> None
  | Numeric, _ -> Constant.to_float_opt c

(* --- Building ------------------------------------------------------------- *)

let default_buckets = 32
let default_sample = 1024

(* Cut a sorted key array into [n] equi-depth runs. Cuts never split a run of
   duplicate keys, so each distinct key lives in exactly one bucket; with
   all-distinct input the bucket counts differ by at most one. *)
let cut_sorted keys n =
  let len = Array.length keys in
  let n = max 1 (min n len) in
  let out = ref [] in
  let start = ref 0 in
  let made = ref 0 in
  while !start < len do
    let remaining_buckets = n - !made in
    let remaining = len - !start in
    let depth =
      if remaining_buckets <= 1 then remaining
      else (remaining + remaining_buckets - 1) / remaining_buckets
    in
    (* Provisional end, then extend over duplicates of the boundary key. *)
    let stop = ref (min len (!start + depth)) in
    while !stop < len && keys.(!stop) = keys.(!stop - 1) do
      incr stop
    done;
    let lo = keys.(!start) and hi = keys.(!stop - 1) in
    let count = float_of_int (!stop - !start) in
    let distinct = ref 1 in
    for i = !start + 1 to !stop - 1 do
      if keys.(i) <> keys.(i - 1) then incr distinct
    done;
    out := { lo; hi; count; distinct = float_of_int !distinct } :: !out;
    start := !stop;
    incr made
  done;
  Array.of_list (List.rev !out)

let of_keys ~kind ?(buckets = default_buckets) keys =
  match keys with
  | [] -> None
  | _ ->
    let arr = Array.of_list keys in
    Array.sort Float.compare arr;
    let bs = cut_sorted arr buckets in
    Some { kind; buckets = bs; total = float_of_int (Array.length arr) }

(* Build from raw column values. The kind is decided by the first non-null
   value; values of the other kind are dropped. Large columns are subsampled
   deterministically with {!Rng} so registration-time builds stay cheap and
   reproducible. *)
let of_values ?(buckets = default_buckets) ?(seed = 0)
    (values : Constant.t list) =
  let kind =
    List.find_map
      (function
        | Constant.String _ -> Some Textual
        | Constant.Null -> None
        | _ -> Some Numeric)
      values
  in
  match kind with
  | None -> None
  | Some kind ->
    let keys =
      List.filter_map
        (fun c ->
          match (kind, c) with
          | Textual, Constant.String s -> Some (str_key s)
          | Textual, _ -> None
          | Numeric, _ -> Constant.to_float_opt c)
        values
    in
    let keys =
      let n = List.length keys in
      if n <= default_sample then keys
      else begin
        let rng = Rng.create ~seed in
        let arr = Array.of_list keys in
        Rng.shuffle rng arr;
        Array.to_list (Array.sub arr 0 default_sample)
      end
    in
    of_keys ~kind ~buckets keys

(* --- Lookups --------------------------------------------------------------- *)

let clamp01 x = if x >= 1. then 1. else if x >= 0. then x else 0.

(* Fraction of objects with key strictly below [x]. Within a bucket of [d]
   distinct keys, the expected number of keys strictly below [x] grows from 1
   just above [lo] (the key at [lo] itself) to [d - 1] at [hi], so the
   object fraction is [(1 + (x-lo)/(hi-lo) * (d-2)) / d]. This keeps the CDF
   monotone across bucket boundaries: [lt hi + eq hi] telescopes to exactly
   the cumulative count through the bucket, which equals [lt x] for any [x]
   in the gap before the next bucket. *)
let lt t x =
  let b0 = t.buckets.(0) in
  if x <= b0.lo then 0.
  else begin
    let acc = ref 0. in
    let res = ref None in
    (try
       Array.iter
         (fun b ->
           if x > b.hi then acc := !acc +. b.count
           else begin
             (if x > b.lo && b.hi > b.lo then begin
                let d = Float.max 2. b.distinct in
                let frac =
                  (1. +. ((x -. b.lo) /. (b.hi -. b.lo) *. (d -. 2.))) /. d
                in
                acc := !acc +. (b.count *. frac)
              end);
             res := Some !acc;
             raise Exit
           end)
         t.buckets
     with Exit -> ());
    let below = match !res with Some v -> v | None -> !acc in
    clamp01 (below /. t.total)
  end

(* Fraction of objects with key equal to [x]: one distinct value's share of
   its bucket, zero outside all buckets. *)
let eq t x =
  let found = ref 0. in
  Array.iter
    (fun b ->
      if x >= b.lo && x <= b.hi && b.distinct > 0. then
        found := b.count /. b.distinct /. t.total)
    t.buckets;
  clamp01 !found

let le t x =
  let last = t.buckets.(Array.length t.buckets - 1) in
  if x >= last.hi then 1. else clamp01 (lt t x +. eq t x)

let ge t x = clamp01 (1. -. lt t x)
let gt t x = clamp01 (1. -. le t x)
let ne t x = clamp01 (1. -. eq t x)

(* Selectivity of [attr cmp c] against this histogram; [None] when the
   constant does not map into the histogram's key domain. *)
let sel_cmp t cmp c =
  match key t c with
  | None -> None
  | Some x ->
    Some
      (match (cmp : Cmp.t) with
      | Eq -> eq t x
      | Ne -> ne t x
      | Lt -> lt t x
      | Le -> le t x
      | Gt -> gt t x
      | Ge -> ge t x)

(* --- Narrowing (for [Derive] range propagation) ---------------------------- *)

(* Portion of bucket [b] falling inside [l, h]; [None] if disjoint. The
   overlap fraction counts inclusive key positions: with [d] distinct keys
   spread over [b.lo, b.hi] the average spacing is [(hi-lo)/(d-1)], and a
   sub-range of width [w] holds about [(w + spacing) / (range + spacing)] of
   them — the continuous [w / range] systematically drops the boundary key
   (a large error when buckets hold only a few distinct keys, e.g. integer
   domains). *)
let clip_bucket b ~l ~h =
  if b.hi < l || b.lo > h then None
  else begin
    let lo = Float.max b.lo l and hi = Float.min b.hi h in
    let s =
      if b.distinct > 1. then (b.hi -. b.lo) /. (b.distinct -. 1.) else 0.
    in
    let w =
      if b.hi <= b.lo then 1.
      else Float.min 1. ((hi -. lo +. s) /. (b.hi -. b.lo +. s))
    in
    let count = b.count *. w and distinct = Float.max 1. (b.distinct *. w) in
    if count <= 0. then None else Some { lo; hi; count; distinct }
  end

let narrow_range t ~l ~h =
  let bs =
    Array.to_list t.buckets |> List.filter_map (fun b -> clip_bucket b ~l ~h)
  in
  match bs with
  | [] -> None
  | bs ->
    let buckets = Array.of_list bs in
    let total = Array.fold_left (fun a b -> a +. b.count) 0. buckets in
    Some { t with buckets; total }

let narrow_le t c =
  match key t c with None -> Some t | Some x -> narrow_range t ~l:neg_infinity ~h:x

let narrow_ge t c =
  match key t c with None -> Some t | Some x -> narrow_range t ~l:x ~h:infinity

(* --- Equi-join overlap ------------------------------------------------------ *)

(* Selectivity of [a.x = b.y] from the two attribute histograms: for every
   pair of overlapping buckets, the probability that a random pair of objects
   drawn from the two buckets agree on a key, assuming the matching keys are
   the shared distinct values of the overlap. Falls back to [None] on kind
   mismatch. *)
let join_eq a b =
  if a.kind <> b.kind then None
  else begin
    let sel = ref 0. in
    Array.iter
      (fun ba ->
        Array.iter
          (fun bb ->
            let l = Float.max ba.lo bb.lo and h = Float.min ba.hi bb.hi in
            if l <= h then begin
              match (clip_bucket ba ~l ~h, clip_bucket bb ~l ~h) with
              | Some ca, Some cb ->
                let d = Float.max 1. (Float.max ca.distinct cb.distinct) in
                sel :=
                  !sel
                  +. (ca.count /. a.total) *. (cb.count /. b.total) /. d
              | _ -> ()
            end)
          b.buckets)
      a.buckets;
    Some (clamp01 !sel)
  end

(* --- Pretty-printing -------------------------------------------------------- *)

let pp ppf t =
  let k = match t.kind with Numeric -> "num" | Textual -> "str" in
  Fmt.pf ppf "hist(%s, %d buckets, %.0f objs)" k (Array.length t.buckets) t.total
