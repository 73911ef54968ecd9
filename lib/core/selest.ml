(* Default selectivity estimation, exposed to cost formulas as the context
   function [sel(P)]. Uses the classical System-R style estimates over the
   derived statistics of a node's inputs (paper §2.3 and §6: selectivity is
   "derived from the minimum, maximum, and number of distinct values of the
   restricted attributes"). *)

open Disco_common
open Disco_catalog
open Disco_algebra

(* NaN-safe: a NaN (e.g. an ADT selectivity hook returning 0/0) fails both
   comparisons and clamps to 0 instead of leaking through and poisoning the
   conjunction/disjunction arithmetic above it. Bit-identical to the naive
   clamp on every non-NaN input. *)
let clamp x = if x >= 1. then 1. else if x >= 0. then x else 0.

(* Classical fallback when statistics are unavailable. *)
let default_eq = 0.1
let default_range = 1. /. 3.

let find_attr (inputs : Derive.t list) name =
  List.fold_left
    (fun acc stats -> match acc with Some _ -> acc | None -> Derive.find_loose stats name)
    None inputs

let of_cmp inputs a (op : Pred.cmp) v =
  match find_attr inputs a with
  | None ->
    (* mirror the with-statistics estimates: Ne complements Eq *)
    (match op with
     | Pred.Eq -> default_eq
     | Pred.Ne -> 1. -. default_eq
     | Pred.Lt | Pred.Le | Pred.Gt | Pred.Ge -> default_range)
  | Some { Derive.hist = Some h; _ }
    when Option.is_some (Histogram.sel_cmp h op v) ->
    (* Histogram CDF replaces the uniform interpolation when the attribute
       carries one and the constant maps into its key domain. *)
    Option.get (Histogram.sel_cmp h op v)
  | Some s ->
    (match op with
     | Pred.Eq -> 1. /. Float.max s.Derive.distinct 1.
     | Pred.Ne -> 1. -. (1. /. Float.max s.Derive.distinct 1.)
     | Pred.Lt | Pred.Le ->
       (match Constant.fraction ~min:s.Derive.min ~max:s.Derive.max v with
        | Some f -> f
        | None -> default_range)
     | Pred.Gt | Pred.Ge ->
       (match Constant.fraction ~min:s.Derive.min ~max:s.Derive.max v with
        | Some f -> 1. -. f
        | None -> default_range))

(* Join selectivity: 1 / Max(CountDistinct(A), CountDistinct(B)). The paper's
   §2.3 text says 1/Min, but the System-R estimate the rest of the paper's
   machinery builds on uses 1/Max (under containment of value sets); 1/Min
   badly overestimates joins whose sides have asymmetric distinct counts, so
   we follow the standard formula and note the deviation in DESIGN.md. *)
let of_attr_cmp inputs a b (op : Pred.cmp) =
  match op with
  | Pred.Eq ->
    let stat name = find_attr inputs name in
    let overlap =
      (* When both attributes carry histograms of the same kind, the join
         selectivity comes from their bucket overlap instead of the distinct
         counts — disjoint domains estimate (near) zero instead of 1/Max. *)
      match (stat a, stat b) with
      | Some { Derive.hist = Some ha; _ }, Some { Derive.hist = Some hb; _ } ->
        Histogram.join_eq ha hb
      | _ -> None
    in
    (match overlap with
     | Some s -> s
     | None ->
       let d name =
         match stat name with
         | Some s -> Float.max s.Derive.distinct 1.
         | None -> 10.
       in
       1. /. Float.max (d a) (d b))
  | _ -> default_range

(* Default selectivity of an ADT operation when the wrapper exports none. *)
let default_apply = 0.25

let rec of_pred ?(apply_sel = fun _ -> None) inputs (p : Pred.t) =
  let recur = of_pred ~apply_sel inputs in
  clamp
    (match p with
     | Pred.True -> 1.
     | Pred.Cmp (a, op, v) -> of_cmp inputs a op v
     | Pred.Attr_cmp (a, op, b) -> of_attr_cmp inputs a b op
     | Pred.Apply (fn, _, _) ->
       Option.value ~default:default_apply (apply_sel fn)
     | Pred.And (p, q) -> recur p *. recur q
     | Pred.Or (p, q) ->
       let sp = recur p and sq = recur q in
       sp +. sq -. (sp *. sq)
     | Pred.Not p -> 1. -. recur p)

(* [indexed inputs p] is 1.0 when [p] is a simple comparison whose attribute
   carries an index in the node's first input — the guard for the generic
   index-scan formulas. *)
let indexed inputs (p : Pred.t) =
  match p, inputs with
  | Pred.Cmp (a, _, _), first :: _ ->
    (match Derive.find_loose first a with
     | Some s when s.Derive.indexed -> 1.
     | _ -> 0.)
  | _ -> 0.

(* [rindexed inputs p] is 1.0 when [p] is an equi-comparison between
   attributes and the attribute belonging to the second (inner) input is
   indexed — the guard for the generic index-join formula. *)
let rindexed inputs (p : Pred.t) =
  match p, inputs with
  | Pred.Attr_cmp (a, _, b), [ _; right ] ->
    let check name =
      match Derive.find_loose right name with
      | Some s when s.Derive.indexed -> true
      | _ -> false
    in
    if check b || check a then 1. else 0.
  | _ -> 0.
