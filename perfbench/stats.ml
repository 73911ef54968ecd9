(* Summary statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Linear interpolation between closest ranks. *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile_sorted (sorted xs) 0.5

(** A percentile with the sample count it rests on. [beyond] counts the
    samples strictly above it: a tail percentile is only worth reporting
    when at least ten samples lie beyond it. *)
type percentile = { value : float; samples : int; beyond : int }

let percentile p xs =
  let a = sorted xs in
  let value = quantile_sorted a p in
  let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 a in
  { value; samples = Array.length a; beyond }

let supported pc = pc.beyond >= 10

(* The quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads read the same in both. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)
