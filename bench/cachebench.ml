(* Cache bench — speedup of the cross-query plan cache.

   Two workloads:

   - OO7: the OO7 query workload estimated repeatedly against the
     wrapper-rule registry, fresh estimates against plan-cache hits. The
     first pass fills the plan cache; every later pass is a cache probe
     instead of a full cost evaluation.

   - federation: multi-join SQL queries planned repeatedly through the
     mediator (DPccp), cache-enabled vs cache-disabled mediators over the
     same demo federation. A warm query is served from the cache's
     search-result entry, so it runs no plan search at all. The
     assertions also cover a greedy-planned 20-relation chain over the
     synthetic federation.

   The differential assertions always run, in every mode: the cached and
   uncached paths must pick identical plans with bit-identical estimated
   costs (a wrong cache silently corrupts plan choice — see
   test/test_plancache.ml for the randomized version), a repeated
   federation query must not search again, and its run — whose estimates
   come from the plan's estimate record — must report the root estimate
   and history records of the uncached run, bit for bit. [smoke] runs one
   iteration and only the assertions, for CI. *)

open Disco_costlang
open Disco_core
open Disco_wrapper
open Disco_oo7
open Disco_mediator

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let bits = Int64.bits_of_float

let assert_same_cost what ~cached ~uncached =
  if bits cached <> bits uncached then
    Fmt.failwith "cachebench: %s: cached cost %.17g <> uncached %.17g" what
      cached uncached

(* --- OO7 workload ----------------------------------------------------------- *)

(* Estimate TotalTime of a wrapper-side OO7 plan, optionally through the
   cross-query cache. *)
let oo7_cost ?cache registry plan =
  let fresh () =
    Estimator.total_time
      (Estimator.estimate ~require_vars:[ Ast.Total_time ] ~source:"oo7" registry plan)
  in
  match cache with
  | None -> fresh ()
  | Some c ->
    (match Plancache.find c registry ~objective:Ast.Total_time plan with
     | Some cost -> cost
     | None ->
       let cost = fresh () in
       Plancache.add c registry ~objective:Ast.Total_time plan cost;
       cost)

let oo7_registry config =
  let source = Oo7.make_source ~config ~with_rules:true () in
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  Generic.register registry;
  ignore (Registry.register_source_decl registry (Wrapper.registration_decl source));
  registry

let oo7_workload ~iters config =
  let registry = oo7_registry config in
  let queries = Oo7.queries config in
  let cache = Plancache.create () in
  let run ~cached () =
    let cache = if cached then Some cache else None in
    for _ = 1 to iters do
      List.iter (fun (_, plan) -> ignore (oo7_cost ?cache registry plan)) queries
    done
  in
  (* differential check on every query, before timing anything *)
  List.iter
    (fun (label, plan) ->
      let uncached = oo7_cost registry plan in
      let c1 = oo7_cost ~cache registry plan in   (* fills the cache *)
      let c2 = oo7_cost ~cache registry plan in   (* served from the cache *)
      assert_same_cost label ~cached:c1 ~uncached;
      assert_same_cost (label ^ " (warm)") ~cached:c2 ~uncached)
    queries;
  let (), cold = time (run ~cached:false) in
  let (), warm = time (run ~cached:true) in
  (cold, warm, cache)

(* --- Federation workload ----------------------------------------------------- *)

let federation_queries =
  [ "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 200000";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 20000";
    "select t.id from Project p, Task t where t.project_id = p.id \
     and p.cost < 50000";
    "select e.id from Employee e, Department d, Project p, Task t \
     where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id" ]

(* A greedy-planned join with 20 submits: checked, not timed. *)
let synthetic_chain = Demo.synthetic_sql ~shape:Demo.Chain ~n:20 ()

let federation_mediator ~cache =
  let med = Mediator.create ~cache () in
  List.iter (Mediator.register med)
    (Demo.make ~sizes:Demo.small_sizes () @ Demo.synthetic ~rows:50 ~n:20 ());
  med

(* What a run reports from its estimates: the root's variables with their
   provenance and the history records it added, floats as bits. *)
let run_report med sql =
  let h = Mediator.history med in
  let before = History.count h in
  let a = Mediator.run_query med sql in
  let root =
    List.map
      (fun v ->
        ( Option.map bits (Estimator.var a.Mediator.estimate v),
          Estimator.provenance a.Mediator.estimate v ))
      Ast.all_cost_vars
  in
  let record (r : History.record) =
    ( Disco_algebra.Plan.to_string r.History.plan,
      r.History.source,
      List.map (fun (v, x) -> (v, bits x)) r.History.measured,
      bits r.History.estimated_total,
      Option.map bits r.History.estimated_count )
  in
  (root, List.map record (History.newest h (History.count h - before)))

let federation_workload ~iters =
  let cached = federation_mediator ~cache:true in
  let uncached = federation_mediator ~cache:false in
  (* differential check: identical plan, bit-identical cost — twice, so the
     second round is served from the warm cross-query cache, which must
     answer it without a plan search (the optimizer counters stay put).
     Each round also runs the query on both mediators: the warm run reads
     its estimates off the plan's record, and must report what the
     uncached run estimated afresh. *)
  List.iter
    (fun sql ->
      let p0, c0 = Mediator.plan_query uncached sql in
      for round = 1 to 2 do
        let searched = Mediator.optimizer_stats cached in
        let p1, c1 = Mediator.plan_query cached sql in
        let warm = run_report cached sql in
        if round = 2 && Mediator.optimizer_stats cached <> searched then
          Fmt.failwith "cachebench: %s (round 2): the warm round searched" sql;
        if not (Disco_algebra.Plan.equal p0 p1) then
          Fmt.failwith "cachebench: %s (round %d): cached chose a different plan"
            sql round;
        assert_same_cost (Fmt.str "%s (round %d)" sql round) ~cached:c1
          ~uncached:c0;
        if warm <> run_report uncached sql then
          Fmt.failwith
            "cachebench: %s (round %d): the run's estimates or history records \
             differ from the uncached run's"
            sql round
      done)
    (synthetic_chain :: federation_queries);
  let run med () =
    for _ = 1 to iters do
      List.iter (fun sql -> ignore (Mediator.plan_query med sql)) federation_queries
    done
  in
  let (), cold = time (run uncached) in
  let (), warm = time (run cached) in
  (cold, warm, Mediator.plancache cached)

(* --- Driver ------------------------------------------------------------------- *)

let print ?(smoke = false) ?config () =
  let config =
    match config with
    | Some c -> c
    | None -> if smoke then Oo7.small_config else Oo7.paper_config
  in
  let iters = if smoke then 1 else 200 in
  Util.section
    (Fmt.str "cache — cross-query plan cache, %d iteration%s%s" iters
       (if iters = 1 then "" else "s")
       (if smoke then " (smoke: assertions only)" else ""));
  let oo7_cold, oo7_warm, oo7_cache = oo7_workload ~iters config in
  let fed_cold, fed_warm, fed_cache = federation_workload ~iters in
  Util.table
    [ "workload"; "uncached(ms)"; "cached(ms)"; "speedup"; "cache counters" ]
    [ [ "OO7";
        Util.f2 (oo7_cold *. 1000.);
        Util.f2 (oo7_warm *. 1000.);
        Util.f2 (oo7_cold /. Float.max oo7_warm 1e-9) ^ "x";
        Fmt.str "%a" Plancache.pp_counters oo7_cache ];
      [ "federation";
        Util.f2 (fed_cold *. 1000.);
        Util.f2 (fed_warm *. 1000.);
        Util.f2 (fed_cold /. Float.max fed_warm 1e-9) ^ "x";
        Fmt.str "%a" Plancache.pp_counters fed_cache ] ];
  if smoke then print_endline "  differential assertions passed (cached = uncached)"
  else begin
    let speedup = oo7_cold /. Float.max oo7_warm 1e-9 in
    if speedup < 2. then
      Fmt.failwith
        "cachebench: OO7 warm-cache speedup %.2fx is below the 2x target" speedup;
    Fmt.pr "  OO7 warm-cache speedup %.1fx (target >= 2x), differential \
            assertions passed@."
      speedup
  end
