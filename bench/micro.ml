(* Bechamel micro-benchmarks: one [Test.make] per experiment table, measuring
   the mediator-side computational kernel behind it (the estimation /
   optimization work, not the simulated execution time), and the executor's
   scan-path kernels. Reported as nanoseconds per run from an OLS fit. *)

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

(* The scan-path kernels at the sizes of the oo7-paper workload (OO7's
   210,000 Connections and 70,000 AtomicParts, the 90 % buildDate answer of
   63,046 rows), on fixed-seed data. *)
let scan_kernels () =
  let open Disco_exec in
  let rng = Rng.create ~seed:1 in
  let conns =
    { Batch.attrs = [| "c.length" |];
      cols = [| Batch.Ints (Array.init 210_000 (fun _ -> Rng.int rng 100)) |];
      len = 210_000; bytes = 8 * 210_000; sel = None }
  in
  let lt50 = Pred.Cmp ("c.length", Pred.Lt, Constant.Int 50) in
  let apply = Adt.apply [] in
  let mask, keep = Bpred.mask ~apply conns lt50 in
  (* 63,046 of 70,000 positions in random order, picked 1,024 at a time as
     an index scan emits them *)
  let parts =
    { Batch.attrs = [| "a.id" |]; cols = [| Batch.Ints (Array.init 70_000 Fun.id) |];
      len = 70_000; bytes = 8 * 70_000; sel = None }
  in
  let perm = Array.init 70_000 Fun.id in
  Rng.shuffle rng perm;
  let answer = 63_046 in
  let batches =
    List.init ((answer + 1023) / 1024) (fun b ->
        Batch.pick parts (Array.sub perm (b * 1024) (min 1024 (answer - (b * 1024)))))
  in
  let br =
    { Run.batches; bcount = answer; bbytes = 8 * answer; bfirst = 0.; btotal = 0.;
      bwall_ms = 0. }
  in
  (* every page resident: 63,046 hits on random pages *)
  let pages = 700 in
  let pool = Disco_storage.Buffer.create ~capacity:pages in
  for p = 0 to pages - 1 do ignore (Disco_storage.Buffer.access pool ~table:"a" ~page:p) done;
  let hits = Array.init answer (fun _ -> Rng.int rng pages) in
  [ Test.make ~name:"scan/mask-210k-ints-50pct"
      (Staged.stage (fun () -> ignore (Bpred.mask ~apply conns lt50)));
    Test.make ~name:"scan/filter-210k-50pct"
      (Staged.stage (fun () -> ignore (Batch.filter conns mask ~keep)));
    Test.make ~name:"scan/box-63046-rows"
      (Staged.stage (fun () -> ignore (Run.rows_of_batched br)));
    Test.make ~name:"scan/buffer-63046-hits"
      (Staged.stage (fun () ->
           Array.iter
             (fun page -> ignore (Disco_storage.Buffer.access pool ~table:"a" ~page))
             hits)) ]

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
  @ scan_kernels ()

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

