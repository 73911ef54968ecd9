(* Interval propagation of cardinality bounds and estimate validation
   (DESIGN.md §14).

   Soundness argument for the cardinality lattice: every shipped count
   formula has the shape [child counts × selectivities], with selectivities
   clamped to [0, 1] by Selest and scan counts read from the catalog extent.
   Hence scan ≤ extent, select ≤ input, join ≤ product, union = sum,
   dedup/aggregate ≤ max(1, input) (the generic model floors both at one
   group). Query-scope (measured) rules are the one legal escape — a
   measured count is truth, not a formula — so nodes priced by them are
   exempted from formula-derived bounds below. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_costlang
open Disco_core

(* Tolerances for comparing concrete estimates against interval endpoints:
   formulas evaluate in float, bounds multiply long chains of extents, so
   allow relative drift before calling an overflow a violation. *)
let rel = 1e-9
let abs = 1e-6

let above x hi = x > (hi *. (1. +. rel)) +. abs
let below x lo = x < (lo *. (1. -. rel)) -. abs

let comparable a b =
  match (a, b) with
  | Constant.String _, Constant.String _ -> true
  | _ -> Constant.to_float_opt a <> None && Constant.to_float_opt b <> None

(* Can [attr op c] hold for any value in the derived [min, max] range?
   Conservative: undecidable ranges (missing stats, incomparable kinds)
   answer yes. *)
let sat_cmp (st : Derive.attr_stat) op c =
  let mn = st.Derive.min and mx = st.Derive.max in
  if not (comparable mn c && comparable mx c) then true
  else
    match op with
    | Cmp.Eq -> Pred.eval_cmp Cmp.Le mn c && Pred.eval_cmp Cmp.Le c mx
    | Cmp.Ne -> not (Pred.eval_cmp Cmp.Eq mn mx && Pred.eval_cmp Cmp.Eq mn c)
    | Cmp.Lt -> Pred.eval_cmp Cmp.Lt mn c
    | Cmp.Le -> Pred.eval_cmp Cmp.Le mn c
    | Cmp.Gt -> Pred.eval_cmp Cmp.Gt mx c
    | Cmp.Ge -> Pred.eval_cmp Cmp.Ge mx c

let unsat_conjunct child_stats pred =
  List.exists
    (fun conj ->
      match conj with
      | Pred.Cmp (attr, op, c) -> (
        match Derive.find_loose child_stats attr with
        | Some st -> not (sat_cmp st op c)
        | None -> false)
      | _ -> false)
    (Pred.conjuncts pred)

(* One walk computes cardinality bounds and validates the concrete
   estimates against them, handing each finding to [add]. The walk carries
   the reversed list of nodes from the current one up to the root, and a
   finding's operator path is rendered from it only when the finding is
   recorded, so a clean plan builds no labels and no paths. *)
let analyze reg ~(add : Finding.t -> unit) (ann0 : Estimator.ann) =
  let cat = Registry.catalog reg in
  let ctx = Estimator.make_ctx () in
  let finding ?scope severity tag path source msg =
    add
      (Finding.v ~source ?scope severity tag
         (Plancheck.render_path Plancheck.plan_label path)
         msg)
  in
  (* Concrete estimate of one variable, reporting evaluation failures. *)
  let demand path (ann : Estimator.ann) var =
    match Estimator.require ctx ann var with
    | v -> Some v
    | exception Estimator.Aborted -> None
    | exception e ->
      (* Eval_error, or a lazily-resolved catalog miss (Unknown_source /
         Unknown_collection reached only at evaluation time): degrade to a
         finding — Plancheck pinpoints the ill-formed node. *)
      let msg =
        match e with Err.Eval_error m -> m | e -> Printexc.to_string e
      in
      finding Finding.Error "estimation-failure" path ann.Estimator.source
        (Fmt.str "%s cannot be estimated: %s" (Ast.cost_var_name var) msg);
      None
  in
  let scope_of ann var =
    Option.map
      (fun (p : Estimator.provenance) -> p.Estimator.rule_scope)
      (Estimator.provenance ann var)
  in
  let measured ann var = scope_of ann var = Some Scope.Query in
  let validate_value path ann var v =
    let scope = scope_of ann var in
    let name = Ast.cost_var_name var in
    if Float.is_nan v then
      finding ?scope Finding.Error "nan" path ann.Estimator.source
        (Fmt.str "%s is NaN" name)
    else if v < 0. then
      finding ?scope Finding.Error "negative" path ann.Estimator.source
        (Fmt.str "%s is negative (%g)" name v)
    else if v = Float.infinity then
      finding ?scope Finding.Error "divergent" path ann.Estimator.source
        (Fmt.str "%s diverges to infinity" name)
  in
  let rec walk up (ann : Estimator.ann) : Interval.t =
    let path = ann.Estimator.node :: up in
    let kids = Array.map (walk path) ann.Estimator.inputs in
    let card =
      match ann.Estimator.node with
      | Plan.Scan r -> (
        match Catalog.extent_stats cat ~source:r.Plan.source r.Plan.collection with
        | exception _ -> Interval.nonneg
        | ext ->
          let n = float_of_int ext.Stats.count_objects in
          if n < 0. || Float.is_nan n then (
            finding Finding.Warning "tainted-bound" path ann.Estimator.source
              (Fmt.str "catalog extent of %s.%s is degenerate (%g objects)"
                 r.Plan.source r.Plan.collection n);
            Interval.with_nan true Interval.nonneg)
          else Interval.v 0. n)
      | Plan.Select (_, pred) ->
        let c = kids.(0) in
        (if
           (match Lazy.force ann.Estimator.inputs.(0).Estimator.stats with
            | st -> unsat_conjunct st pred
            | exception _ -> false)
         then
           finding Finding.Info "empty-select" path ann.Estimator.source
             "predicate is unsatisfiable against the derived attribute ranges");
        Interval.v ~nan:c.Interval.nan 0. c.Interval.hi
      | Plan.Project _ | Plan.Sort _ | Plan.Submit _ -> kids.(0)
      | Plan.Join _ -> Interval.mul (Interval.mul kids.(0) kids.(1)) Interval.unit
      | Plan.Union _ -> Interval.add kids.(0) kids.(1)
      | Plan.Dedup _ | Plan.Aggregate _ ->
        let c = kids.(0) in
        Interval.v ~nan:c.Interval.nan 0. (Float.max 1. c.Interval.hi)
    in
    (* concrete validation *)
    (match demand path ann Ast.Count_object with
     | None -> ()
     | Some est ->
       validate_value path ann Ast.Count_object est;
       let scope = scope_of ann Ast.Count_object in
       if Float.is_nan est || est < 0. || est = Float.infinity then ()
       else if measured ann Ast.Count_object then (
         if above est card.Interval.hi || below est card.Interval.lo then
           finding ?scope Finding.Info "measured-deviation" path
             ann.Estimator.source
             (Fmt.str
                "measured cardinality %g lies outside the formula-derived \
                 bound %a"
                est Interval.pp card))
       else begin
         if
           (not card.Interval.nan)
           && (above est card.Interval.hi || below est card.Interval.lo)
         then
           finding ?scope Finding.Error "card-bound" path ann.Estimator.source
             (Fmt.str "estimated cardinality %g outside sound bound %a" est
                Interval.pp card);
         (* direct parent-vs-child monotonicity, sharper than the interval
            when the child estimate is itself below its bound *)
         let child_est i =
           let c = ann.Estimator.inputs.(i) in
           if measured c Ast.Count_object then None
           else Estimator.var c Ast.Count_object
         in
         match ann.Estimator.node with
         | Plan.Select _ | Plan.Project _ | Plan.Sort _ | Plan.Submit _ -> (
           match child_est 0 with
           | Some c when (not (Float.is_nan c)) && above est c ->
             finding ?scope Finding.Error "monotonicity" path
               ann.Estimator.source
               (Fmt.str "cardinality %g exceeds its input's %g" est c)
           | _ -> ())
         | Plan.Dedup _ | Plan.Aggregate _ -> (
           match child_est 0 with
           | Some c when (not (Float.is_nan c)) && above est (Float.max 1. c)
             ->
             finding ?scope Finding.Error "monotonicity" path
               ann.Estimator.source
               (Fmt.str "cardinality %g exceeds max(1, input %g)" est c)
           | _ -> ())
         | _ -> ()
       end);
    (match demand path ann Ast.Total_time with
     | None -> ()
     | Some t -> validate_value path ann Ast.Total_time t);
    card
  in
  walk [] ann0

let check_ann reg ann =
  let out = ref [] in
  ignore (analyze reg ~add:(fun f -> out := f :: !out) ann);
  List.rev !out

let check ?(source = Registry.mediator_source) reg plan =
  check_ann reg (Estimator.build reg ~source plan)
