(* Table T2 — plan quality: the simulated execution time of the plan chosen
   by the optimizer under the generic-only cost model vs the blended model,
   against the oracle (cheapest measured plan among all enumerated ones).
   This is the end-to-end payoff of better cost estimates.

   Second section — estimation quality: mean estimated-vs-actual cardinality
   error on a skewed synthetic workload, seed constants (uniform assumption)
   vs histograms + cardinality feedback (DESIGN.md §11). The acceptance gate
   for the statistics subsystem is a ≥ 2x error reduction. *)

open Disco_common
open Disco_catalog
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_mediator

let queries =
  [ ( "Q1: Employee x Listing (cross-source, WAN side)",
      "select e.id, l.rating from Employee e, Listing l \
       where l.emp_id = e.id and e.salary > 28000" );
    ( "Q2: Task x Project (single source, join placement)",
      "select t.id, p.kind from Task t, Project p \
       where t.project_id = p.id and t.hours > 390" );
    ( "Q3: Employee x Project x Document (three sources)",
      "select e.id, d.doc_id from Employee e, Project p, Document d \
       where e.dept_id = p.dept_id and d.project_id = p.id \
       and e.salary > 29000 and p.cost < 5500" );
    (* The generic model believes every wrapper has a cheap sort-merge join;
       the object store only has nested-loop and index joins, and its
       exported rule says so — the classic strategy mismatch of §1(ii). *)
    ( "Q4: Task x Project on an unindexed attribute (strategy mismatch)",
      "select t.id from Task t, Project p \
       where t.hours = p.hours_budget and t.id <= 1000 and p.id <= 40" ) ]

let make_federation ?(smoke = false) ~with_rules () =
  let wrappers =
    if smoke then Demo.make ~sizes:Demo.small_sizes () else Demo.make ()
  in
  let wrappers = if with_rules then wrappers else List.map Wrapper.without_rules wrappers in
  let med = Mediator.create () in
  List.iter (Mediator.register med) wrappers;
  (med, wrappers)

let clear_buffers wrappers =
  List.iter (fun w -> Buffer.clear w.Wrapper.buffer) wrappers

(* Execute an already-chosen plan and return its measured total time. *)
let execute med wrappers plan =
  clear_buffers wrappers;
  let physical = Mediator.to_physical med plan in
  let _, v = Run.measure (Mediator.mediator_run_env med) physical in
  v.Run.total_time

let oracle med wrappers sql =
  let q = Disco_sql.Sql.parse sql in
  let resolved = Mediator.resolve med q in
  let plans = Optimizer.enumerate resolved.Mediator.spec in
  List.fold_left
    (fun best plan ->
      let t = execute med wrappers (Mediator.decorate resolved plan) in
      Float.min best t)
    infinity plans

(* --- Estimation quality on a skewed synthetic source ------------------------ *)

(* One table whose value distribution breaks the uniform assumption two ways:
   [v] clusters 90% of its mass in the top tenth of its range, and [w] is a
   deterministic function of [v] (1 above the cluster threshold, else 0), so
   conjunctions over (v, w) also break the independence assumption —
   histograms fix the former, cardinality feedback the latter. *)
let skew_threshold = 9000

let make_skew_source ~rows =
  let rng = Rng.create ~seed:7 in
  let schema =
    Schema.collection "Val"
      [ ("id", Schema.Tint); ("v", Schema.Tint); ("w", Schema.Tint) ]
  in
  let data =
    List.init rows (fun i ->
        let v =
          if Rng.int rng 10 < 9 then skew_threshold + 1 + Rng.int rng 1000
          else Rng.int rng (skew_threshold + 1)
        in
        [| Constant.Int (i + 1);
           Constant.Int v;
           Constant.Int (if v > skew_threshold then 1 else 0) |])
  in
  let table =
    Table.create ~name:"Val" ~schema ~object_size:24 ~index_on:[ "id" ] data
  in
  Wrapper.create ~name:"skew" ~engine:Costs.relational ~network:Costs.lan [ table ]

let skew_workload =
  [ "select val.id from Val val where val.v > 9000";
    "select val.id from Val val where val.v > 5000";
    "select val.id from Val val where val.v <= 2000";
    "select val.id from Val val where val.v > 9900";
    "select val.id from Val val where val.w = 1";
    "select val.id from Val val where val.v > 8000 and val.w = 0" ]

(* Mean relative cardinality error of the workload under one mediator,
   measured after [warmup] executions of the whole workload (feedback — when
   on — folds those observations into corrections and histograms). *)
let cardinality_error ~stats_mode ~rows ~warmup () =
  let w = make_skew_source ~rows in
  let med = Mediator.create ~stats_mode () in
  Mediator.register med w;
  for _ = 1 to warmup do
    List.iter (fun sql -> ignore (Mediator.run_query med sql)) skew_workload
  done;
  let errs =
    List.map
      (fun sql ->
        let a = Mediator.run_query med sql in
        let est = Estimator.count_object a.Mediator.estimate in
        let real = float_of_int (List.length a.Mediator.rows) in
        Util.rel_err ~est ~real)
      skew_workload
  in
  Util.mean errs

let print ?json_path ?(smoke = false) () =
  Util.section
    "T2 — plan quality: measured time of the chosen plan (ms), generic vs blended";
  let med_g, w_g = make_federation ~smoke ~with_rules:false () in
  let med_b, w_b = make_federation ~smoke ~with_rules:true () in
  let t2 =
    List.map
      (fun (label, sql) ->
        let plan_g, _ = Mediator.plan_query med_g sql in
        let plan_b, _ = Mediator.plan_query med_b sql in
        let t_g = execute med_g w_g plan_g in
        let t_b = execute med_b w_b plan_b in
        let t_o = oracle med_b w_b sql in
        (label, t_g, t_b, t_o))
      queries
  in
  Util.table
    [ "query"; "generic plan"; "blended plan"; "oracle"; "gen/oracle"; "blend/oracle" ]
    (List.map
       (fun (label, t_g, t_b, t_o) ->
         [ label;
           Util.f1 t_g;
           Util.f1 t_b;
           Util.f1 t_o;
           Util.f2 (t_g /. t_o);
           Util.f2 (t_b /. t_o) ])
       t2);
  Util.section
    "T2b — estimation quality: mean relative cardinality error on the skewed \
     workload";
  let rows = if smoke then 1200 else 4000 in
  let warmup = if smoke then 2 else 4 in
  let err_off = cardinality_error ~stats_mode:Mediator.Stats_off ~rows ~warmup () in
  let err_hist =
    cardinality_error
      ~stats_mode:(Mediator.Stats_feedback History.default_feedback)
      ~rows ~warmup:0 ()
  in
  let err_fb =
    cardinality_error
      ~stats_mode:(Mediator.Stats_feedback History.default_feedback)
      ~rows ~warmup ()
  in
  let improvement = err_off /. Float.max err_fb 1e-9 in
  Util.table
    [ "configuration"; "mean rel. cardinality error" ]
    [ [ "seed constants (stats off)"; Util.f2 err_off ];
      [ "histograms, no feedback yet"; Util.f2 err_hist ];
      [ "histograms + feedback"; Util.f2 err_fb ] ];
  Fmt.pr "  error reduction (off / histograms+feedback): %.1fx %s@."
    improvement
    (if improvement >= 2. then "(gate >= 2x: ok)" else "(gate >= 2x: FAILED)");
  Util.bench_json ?json_path ~bench:"planquality"
    [ Fmt.str {|"mean_err_off":%.4f|} err_off;
      Fmt.str {|"mean_err_hist":%.4f|} err_hist;
      Fmt.str {|"mean_err_feedback":%.4f|} err_fb;
      Fmt.str {|"improvement":%.2f|} improvement;
      Fmt.str {|"gate_2x":%b|} (improvement >= 2.) ]
