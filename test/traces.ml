(* The demo federation and OO7 fixtures, and whole-run traces over them,
   shared by the suites that compare two ways of running bit for bit
   (test_stats: stats off against the default construction; test_batch:
   the batched engine against the tuple engine; test_core: concurrent
   against sequential estimation; test_plancache: a cached mediator
   against an uncached one). A trace renders everything observable
   from a run — plans, cost and timing bits, answer rows, plan-cache
   counters and the simulated clock — so two ways agree exactly when their
   traces are equal. *)

open Disco_algebra
open Disco_core
open Disco_exec
open Disco_mediator

let bits = Int64.bits_of_float

let fed ?cache ?stats_mode () =
  let med = Mediator.create ?cache ?stats_mode () in
  let wrappers = Disco_wrapper.Demo.make ~sizes:Disco_wrapper.Demo.small_sizes () in
  List.iter (Mediator.register med) wrappers;
  (med, wrappers)

let optimize_workload =
  [ "select e.id from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 15000";
    "select e.id from Employee e, Department d, Project p, Task t \
     where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id \
     and t.hours > 10" ]

(* Every query is planned twice through the mediator (cold, then warm from
   the plan cache, which holds search results), then the cost model's
   generation is bumped by re-registering the wrappers and the pass repeats
   against the now-stale cache. Each line records the pass, the plan, its
   cost bits and the search work the query cost (plans considered and
   aborted). Returns the lines and the plan cache's (hits, misses, stale)
   counters. *)
let trace_optimize ?cache ?stats_mode () =
  let med, wrappers = fed ?cache ?stats_mode () in
  let pass label =
    List.map
      (fun sql ->
        let before = Mediator.optimizer_stats med in
        let plan, cost = Mediator.plan_query med sql in
        let after = Mediator.optimizer_stats med in
        ( label, Plan.to_string plan, bits cost,
          after.Optimizer.plans_considered - before.Optimizer.plans_considered,
          after.Optimizer.plans_aborted - before.Optimizer.plans_aborted ))
      optimize_workload
  in
  let cold = pass "cold" in
  let warm = pass "warm" in
  List.iter (Mediator.register med) wrappers;
  let bumped = pass "bumped" in
  let c = Plancache.counters (Mediator.plancache med) in
  (cold @ warm @ bumped, (c.Plancache.hits, c.Plancache.misses, c.Plancache.stale))

let execute_workload =
  [ "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select t.id from Project p, Task t where t.project_id = p.id \
     and p.cost < 50000";
    "select l.id from Employee e, Listing l where l.emp_id = e.id \
     and l.rating >= 3";
    "select distinct d.city from Department d where d.budget > 100000" ]

(* Answer rows (values and order), plan, estimate and measured bits,
   replans, and after the workload the simulated clock, which integrates
   every submit's communication charges in order. Two passes, because the
   first feeds history that the second plans with. *)
let trace_execute ?stats_mode () =
  let med, _ = fed ?stats_mode () in
  let pass () =
    List.map
      (fun sql ->
        let a = Mediator.run_query med sql in
        Fmt.str "%s | est %Lx | measured %Lx %Lx | replans %d | rows %s"
          (Plan.to_string a.Mediator.plan)
          (bits (Estimator.total_time a.Mediator.estimate))
          (bits a.Mediator.measured.Run.total_time)
          (bits a.Mediator.measured.Run.time_first)
          a.Mediator.replans
          (String.concat ";" (List.map Tuple.key a.Mediator.rows)))
      execute_workload
  in
  let p1 = pass () in
  let p2 = pass () in
  p1 @ p2 @ [ Fmt.str "clock %Lx" (bits (Mediator.now med)) ]

let oo7_config = Disco_oo7.Oo7.small_config

let oo7_scan collection binding =
  Plan.Scan { Plan.source = "oo7"; collection; binding }

(* A residual-filtered index range: at small batch sizes the wrapper hands
   the mediator several batches that carry selection vectors. *)
let oo7_filtered =
  let int i = Disco_common.Constant.Int i in
  Plan.Select
    ( Plan.Select (oo7_scan "AtomicPart" "a", Pred.Cmp ("a.id", Pred.Le, int 60)),
      Pred.Cmp ("a.x", Pred.Lt, int 50_000) )

(* Those batches composed at the mediator: hash join, sort, aggregate. *)
let oo7_composed =
  Plan.Aggregate
    ( Plan.Sort
        ( Plan.Join
            ( Plan.Submit ("oo7", oo7_filtered),
              Plan.Submit ("oo7", oo7_scan "CompositePart" "c"),
              Pred.Attr_cmp ("a.partOf", Pred.Eq, "c.id") ),
          [ ("c.buildDate", Plan.Desc); ("a.id", Plan.Asc) ] ),
      { Plan.group_by = [ "c.id" ];
        aggs =
          [ (Plan.Count, "", "n"); (Plan.Sum, "a.x", "sx"); (Plan.Min, "a.y", "my") ] } )

(* The OO7 query workload submitted through the mediator, plus the composed
   plan: measured vector bits, rows, and the simulated clock. *)
let trace_oo7 ?stats_mode () =
  let med = Mediator.create ?stats_mode () in
  Mediator.register med (Disco_oo7.Oo7.make_source ~config:oo7_config ());
  let env = Mediator.mediator_run_env med in
  List.map
    (fun (label, plan) ->
      let phys = Mediator.to_physical med plan in
      let rows, v = Run.measure env phys in
      Fmt.str "%s | %Lx %Lx %Lx %Lx %Lx | %d rows %s" label (bits v.Run.count)
        (bits v.Run.size) (bits v.Run.time_first) (bits v.Run.time_next)
        (bits v.Run.total_time) (List.length rows)
        (String.concat ";" (List.map Tuple.key rows)))
    (List.map
       (fun (label, plan) -> (label, Plan.Submit ("oo7", plan)))
       (Disco_oo7.Oo7.queries oo7_config)
     @ [ ("composed at the mediator", oo7_composed) ])
  @ [ Fmt.str "clock %Lx" (bits (Mediator.now med)) ]
