(* Bechamel micro-benchmarks: one [Test.make] per experiment table, measuring
   the mediator-side computational kernel behind it (the estimation /
   optimization work, not the simulated execution time). Reported as
   nanoseconds per run from an OLS fit. *)

open Bechamel
open Disco_common
open Disco_algebra
open Disco_core
open Disco_wrapper
open Disco_mediator

let setup () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  med

let oo7_registry () =
  let source =
    Disco_oo7.Oo7.make_source ~config:Disco_oo7.Oo7.small_config ~with_rules:true ()
  in
  let catalog = Disco_catalog.Catalog.create () in
  let registry = Registry.create catalog in
  Generic.register registry;
  ignore (Registry.register_source_decl registry (Wrapper.registration_decl source));
  registry

let tests () =
  let med = setup () in
  let registry = Mediator.registry med in
  let oo7_reg = oo7_registry () in
  let fig12_plan =
    Plan.Select
      ( Plan.Scan { Plan.source = "oo7"; collection = "AtomicPart"; binding = "a" },
        Pred.Cmp ("a.id", Pred.Le, Constant.Int 500) )
  in
  let select_plan, _ =
    Mediator.plan_query med "select e.id from Employee e where e.salary > 20000"
  in
  let join_sql =
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id"
  in
  let join_spec = (Mediator.resolve med (Disco_sql.Sql.parse join_sql)).Mediator.spec in
  let join_plans = Optimizer.enumerate join_spec in
  let parse_text =
    "rule select(C, A = V) { CountObject = C.CountObject * selectivity(A, V); \
     TotalTime = C.TotalTime + C.CountObject * 2; }"
  in
  [ Test.make ~name:"fig12/yao-rule-estimate"
      (Staged.stage (fun () ->
           ignore (Estimator.estimate ~source:"oo7" oo7_reg fig12_plan)));
    Test.make ~name:"t1-accuracy/blended-estimate"
      (Staged.stage (fun () -> ignore (Estimator.estimate registry select_plan)));
    Test.make ~name:"t2-planquality/dp-optimize"
      (Staged.stage (fun () -> ignore (Optimizer.optimize registry join_spec)));
    Test.make ~name:"t3-overhead/rule-compile"
      (Staged.stage (fun () ->
           ignore (Disco_costlang.Parser.parse_rule ~what:"bench" parse_text)));
    Test.make ~name:"t4-history/query-rule-match"
      (Staged.stage (fun () -> ignore (Registry.matching registry ~source:"relstore" select_plan)));
    Test.make ~name:"t5-prune/choose-with-abort"
      (Staged.stage (fun () ->
           ignore (Optimizer.choose ~prune:true registry join_plans)));
    Test.make ~name:"t6-scopes/match-and-estimate"
      (Staged.stage (fun () ->
           ignore (Estimator.estimate ~source:"oo7" oo7_reg fig12_plan))) ]

let print () =
  Util.section "Bechamel micro-benchmarks (mediator-side kernels, ns/run)";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raws =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"disco" (tests ()))
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raws in
  let rows = ref [] in
  Hashtbl.iter
    (fun name o ->
      let ns =
        match Analyze.OLS.estimates o with Some [ x ] -> x | _ -> Float.nan
      in
      rows := [ name; Util.f1 ns ] :: !rows)
    results;
  Util.table [ "kernel"; "ns/run" ] (List.sort compare !rows)

