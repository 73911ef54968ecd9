(* Table T6 — scope-hierarchy ablation: estimation accuracy on an OO7
   workload as rule scopes are enabled one by one (Fig 10 of the paper):

     default only -> +wrapper -> +collection -> +predicate -> +query

   Each level adds the corresponding rules for the OO7 source; the workload
   mixes index selections on AtomicPart (including one "hot" predicate that
   the predicate- and query-scope levels capture exactly). *)

open Disco_common
open Disco_algebra
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_oo7

let config =
  { Oo7.paper_config with
    Oo7.atomic_parts = 20_000;
    composite_parts = 5_000;
    connections_per_part = 1 }

let hot_constant = 2_000

let scan = Plan.Scan { Plan.source = "oo7"; collection = "AtomicPart"; binding = "a" }
let scan_cp = Plan.Scan { Plan.source = "oo7"; collection = "CompositePart"; binding = "c" }

let workload =
  [ ("scan AtomicPart", scan);
    ( "select id <= 1000",
      Plan.Select (scan, Pred.Cmp ("a.id", Pred.Le, Constant.Int 1000)) );
    ( "select id <= 8000",
      Plan.Select (scan, Pred.Cmp ("a.id", Pred.Le, Constant.Int 8000)) );
    ( Fmt.str "select id <= %d (hot)" hot_constant,
      Plan.Select (scan, Pred.Cmp ("a.id", Pred.Le, Constant.Int hot_constant)) );
    ( "select buildDate < 200",
      Plan.Select (scan, Pred.Cmp ("a.buildDate", Pred.Lt, Constant.Int 200)) );
    (* CompositePart is clustered on id: range scans touch contiguous pages,
       which neither the calibrated model nor the unclustered Yao rule can
       express (paper §2.3: "clustering is not considered", and §7) *)
    ( "select CompositePart id <= 100 (clustered)",
      Plan.Select (scan_cp, Pred.Cmp ("c.id", Pred.Le, Constant.Int 100)) );
    ( "select CompositePart id <= 500 (clustered)",
      Plan.Select (scan_cp, Pred.Cmp ("c.id", Pred.Le, Constant.Int 500)) ) ]

(* Collection-scope refinement: the implementor knows AtomicPart's exact page
   count and fill, and knows CompositePart is clustered on id. *)
let collection_rules =
  {|
  rule select(AtomicPart, P) {
    CountPage = ceil(AtomicPart.CountObject / 70);
    CountObject = AtomicPart.CountObject * sel(P);
    TimeFirst = if(indexed(P), Startup + 3 * Probe + IO, 1e18);
    TotalTime = if(indexed(P),
                   Startup + 3 * Probe
                   + IO * CountPage * yao(AtomicPart.CountObject, CountPage, CountObject)
                   + Output * CountObject,
                   1e18);
  }

  // clustered: pages touched = ceil(matches / objects-per-page)
  rule select(CompositePart, P) {
    CountObject = CompositePart.CountObject * sel(P);
    TimeFirst = if(indexed(P), Startup + 2 * Probe + IO, 1e18);
    TotalTime = if(indexed(P),
                   Startup + 2 * Probe + IO * ceil(CountObject / 98)
                   + Output * CountObject,
                   1e18);
  }
  |}

let predicate_rule measured =
  Fmt.str
    {|
    rule select(AtomicPart, id <= %d) {
      TotalTime = %.3f;
    }
    |}
    hot_constant measured

let print () =
  Util.section "T6 — scope-hierarchy ablation: mean estimation error by enabled scope";
  let source = Oo7.make_source ~config ~with_rules:true () in
  let measured =
    List.map
      (fun (label, plan) ->
        Oo7.cold_cache source;
        let _, v = Wrapper.execute source plan in
        (label, plan, v.Run.total_time))
      workload
  in
  let hot_label = Fmt.str "select id <= %d (hot)" hot_constant in
  let hot_measured =
    let _, _, t = List.find (fun (l, _, _) -> l = hot_label) measured in
    t
  in
  let registry_with levels =
    let catalog = Disco_catalog.Catalog.create () in
    let registry = Registry.create catalog in
    Generic.register registry;
    let decl =
      Wrapper.registration_decl
        (if List.mem `Wrapper levels then source else Wrapper.without_rules source)
    in
    ignore (Registry.register_source_decl registry decl);
    if List.mem `Collection levels then
      List.iter
        (fun i -> ignore (Registry.add_rule registry ~source:"oo7" i))
        (List.filter_map
           (function Disco_costlang.Ast.Toplevel_rule r -> Some r | _ -> None)
           (fst (Disco_costlang.Parser.parse_items ~what:"collection rules" collection_rules)));
    if List.mem `Predicate levels then
      List.iter
        (fun i -> ignore (Registry.add_rule registry ~source:"oo7" i))
        (List.filter_map
           (function Disco_costlang.Ast.Toplevel_rule r -> Some r | _ -> None)
           (fst
              (Disco_costlang.Parser.parse_items ~what:"predicate rule"
                 (predicate_rule hot_measured))));
    if List.mem `Query levels then
      List.iter
        (fun (_, plan, t) ->
          ignore
            (Registry.add_query_rule registry ~source:"oo7" plan
               [ (Disco_costlang.Ast.Total_time, t) ]))
        measured;
    registry
  in
  let levels_list =
    [ ("default only", []);
      ("+ wrapper", [ `Wrapper ]);
      ("+ collection", [ `Wrapper; `Collection ]);
      ("+ predicate", [ `Wrapper; `Collection; `Predicate ]);
      ("+ query", [ `Wrapper; `Collection; `Predicate; `Query ]) ]
  in
  let rows =
    List.map
      (fun (label, levels) ->
        let registry = registry_with levels in
        let errs =
          List.map
            (fun (_, plan, real) ->
              let est =
                Estimator.total_time (Estimator.estimate ~source:"oo7" registry plan)
              in
              Util.rel_err ~est ~real)
            measured
        in
        let hot_err =
          let _, plan, real = List.find (fun (l, _, _) -> l = hot_label) measured in
          Util.rel_err
            ~est:(Estimator.total_time (Estimator.estimate ~source:"oo7" registry plan))
            ~real
        in
        [ label; Util.pct (Util.mean errs); Util.pct hot_err ])
      levels_list
  in
  Util.table [ "enabled scopes"; "mean error (workload)"; "error (hot predicate)" ] rows
