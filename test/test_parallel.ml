(* The domain-pool subsystem and the two mediator layers built on it —
   parallel plan search and scatter-gather submit execution — tested three
   ways:

   - the pool primitives themselves (chunking, task/slot ordering, exception
     determinism, nested fork/join reentrancy, deterministic reduction);

   - differentially: plan search and full query execution at 1, 2, 4 and 8
     domains must produce bit-identical plans, costs ([Int64.bits_of_float]
     equality), merged optimizer counters, answer rows, measured timings and
     simulated clock — including with an active plan cache and across a
     mid-run cost-model generation bump;

   - the satellite regression for the stats-ownership hazard: counters are
     written by exactly one domain each and merged exactly once, so the
     merged totals are pinned to the sequential values. *)

open Disco_algebra
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_mediator
module Pool = Disco_parallel.Pool

let bits = Int64.bits_of_float

(* --- Pool primitives ------------------------------------------------------------ *)

let test_chunk () =
  let sizes a = Array.to_list (Array.map List.length a) in
  let c = Pool.chunk 3 [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check (list int)) "sizes differ by at most one, earlier larger"
    [ 4; 3; 3 ] (sizes c);
  Alcotest.(check (list int)) "concatenation restores the input"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.concat (Array.to_list c));
  Alcotest.(check int) "more chunks than elements clamps" 3
    (Array.length (Pool.chunk 8 [ 1; 2; 3 ]));
  Alcotest.(check int) "empty input, empty array" 0
    (Array.length (Pool.chunk 4 []))

let test_run_order () =
  let pool = Pool.create 4 in
  Alcotest.(check (list int)) "results indexed by task"
    (List.init 10 (fun i -> i * i))
    (Array.to_list (Pool.run pool (fun i -> i * i) 10));
  Alcotest.(check (list int)) "fewer tasks than degree"
    [ 0; 1 ]
    (Array.to_list (Pool.run pool (fun i -> i) 2));
  Alcotest.(check int) "zero tasks" 0 (Array.length (Pool.run pool (fun i -> i) 0))

let test_run_exception () =
  let pool = Pool.create 4 in
  Alcotest.check_raises "a raising task propagates after the barrier"
    (Failure "boom")
    (fun () -> ignore (Pool.run pool (fun i -> if i = 5 then failwith "boom" else i) 8));
  (* two slots fail: the lowest-numbered slot's exception wins. With degree 4,
     task 6 runs on slot 2 and task 3 on slot 3. *)
  Alcotest.check_raises "lowest failing slot is re-raised" (Failure "6")
    (fun () ->
      ignore
        (Pool.run pool
           (fun i -> if i = 3 || i = 6 then failwith (string_of_int i) else i)
           8));
  (* the pool survives failed rounds *)
  Alcotest.(check int) "pool usable after failure" 45
    (Array.fold_left ( + ) 0 (Pool.run pool (fun i -> i) 10))

let test_run_nested () =
  let outer = Pool.create 2 in
  let r =
    Pool.run outer
      (fun o ->
        let inner = Pool.create 4 in
        (* inside a task: must run inline, not deadlock on busy workers *)
        Array.fold_left ( + ) 0 (Pool.run inner (fun i -> (o * 100) + i) 5))
      2
  in
  Alcotest.(check (list int)) "nested runs compute inline" [ 10; 510 ]
    (Array.to_list r)

let test_reduce () =
  Alcotest.(check (option int)) "left fold in index order" (Some 5)
    (Pool.reduce ( - ) [| 10; 3; 2 |]);
  Alcotest.(check (option int)) "empty" None (Pool.reduce ( + ) [||])

(* --- Federation fixture ---------------------------------------------------------- *)

let fed ?(cache = true) ?stats_mode ~domains () =
  let med = Mediator.create ~cache ?stats_mode ~domains () in
  let wrappers = Demo.make ~sizes:Demo.small_sizes () in
  List.iter (Mediator.register med) wrappers;
  (med, wrappers)

let spec_of med sql = (Mediator.resolve med (Disco_sql.Sql.parse sql)).Mediator.spec

let join4 =
  "select e.id from Employee e, Department d, Project p, Task t \
   where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id \
   and t.hours > 10"

let optimize_workload =
  [ "select e.id from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 15000";
    join4 ]

let domain_counts = [ 1; 2; 4; 8 ]

(* --- Satellite: stats ownership and exact merge ----------------------------------- *)

let test_merge_stats_exact () =
  let a = Optimizer.new_stats () in
  a.Optimizer.plans_considered <- 3;
  a.Optimizer.plans_aborted <- 1;
  a.Optimizer.formula_evals <- 40;
  let b = Optimizer.new_stats () in
  b.Optimizer.plans_considered <- 5;
  b.Optimizer.plans_aborted <- 2;
  b.Optimizer.formula_evals <- 60;
  Optimizer.merge_stats ~into:a b;
  Alcotest.(check (list int)) "merge adds each counter exactly once"
    [ 8; 3; 100 ]
    [ a.Optimizer.plans_considered; a.Optimizer.plans_aborted;
      a.Optimizer.formula_evals ];
  Alcotest.(check (list int)) "source unchanged" [ 5; 2; 60 ]
    [ b.Optimizer.plans_considered; b.Optimizer.plans_aborted;
      b.Optimizer.formula_evals ]

(* The sequential counter totals for the 4-way join are pinned: any lost or
   double-counted update in the parallel merge (the shared-mutation hazard
   this PR removes) shifts them. [formula_evals] is deliberately absent — it
   is memo-configuration-dependent (each domain memoizes its own chunk), and
   only [plans_considered] / [plans_aborted] are part of the determinism
   contract. *)
let test_stats_pinned_across_domains () =
  let reference = ref None in
  List.iter
    (fun domains ->
      let med, _ = fed ~domains () in
      let stats = Optimizer.new_stats () in
      let plan, cost =
        Optimizer.optimize ~domains ~stats (Mediator.registry med)
          (spec_of med join4)
      in
      let obs =
        (Plan.to_string plan, bits cost, stats.Optimizer.plans_considered,
         stats.Optimizer.plans_aborted)
      in
      match !reference with
      | None ->
        let _, _, considered, aborted = obs in
        Alcotest.(check bool) "sequential run considered plans" true
          (considered > 0);
        Alcotest.(check int) "no aborts without a bound" 0 aborted;
        reference := Some obs
      | Some r ->
        if obs <> r then
          Alcotest.failf "stats/plan diverged at %d domains" domains)
    domain_counts

(* --- Differential: plan search over domains, cache active, generation bump ------- *)

(* One mediator per domain count over the identical federation; every query
   is optimized twice (cold, then warm from the plan cache), then the cost
   model's generation is bumped by re-registering a wrapper (refreshing its
   statistics) and the pass repeats against the now-stale cache. All four
   observations must be identical across domain counts, bit for bit. *)
let trace_optimize ?stats_mode ~domains () =
  let med, wrappers = fed ?stats_mode ~domains () in
  let cache = Mediator.plancache med in
  let registry = Mediator.registry med in
  let pass label =
    List.concat_map
      (fun sql ->
        let stats = Optimizer.new_stats () in
        let plan, cost =
          Optimizer.optimize ~domains ~stats ~cache registry (spec_of med sql)
        in
        [ Fmt.str "%s %s %Lx considered=%d aborted=%d" label
            (Plan.to_string plan) (bits cost) stats.Optimizer.plans_considered
            stats.Optimizer.plans_aborted ])
      optimize_workload
  in
  let cold = pass "cold" in
  let warm = pass "warm" in
  List.iter (Mediator.register med) wrappers;   (* generation bump mid-run *)
  let bumped = pass "bumped" in
  let c = Plancache.counters cache in
  (cold @ warm @ bumped,
   (c.Plancache.hits, c.Plancache.misses, c.Plancache.stale))

let test_optimize_differential () =
  let ref_trace, ((hits, _, stale) as ref_counters) = trace_optimize ~domains:1 () in
  Alcotest.(check bool) "warm pass actually hit the cache" true (hits > 0);
  Alcotest.(check bool) "generation bump dropped stale entries" true (stale > 0);
  List.iter
    (fun domains ->
      let t, counters = trace_optimize ~domains () in
      if t <> ref_trace then
        Alcotest.failf "optimize trace diverged at %d domains" domains;
      if counters <> ref_counters then
        Alcotest.failf
          "plan-cache counters diverged at %d domains (exactness under the \
           cache lock)"
          domains)
    (List.tl domain_counts)

(* choose over an explicit plan list: same winner and cost at every domain
   count, with and without pruning. *)
let test_choose_differential () =
  let med, _ = fed ~domains:1 () in
  let registry = Mediator.registry med in
  let plans =
    Optimizer.enumerate
      (spec_of med
         "select e.id from Employee e, Department d, Project p \
          where e.dept_id = d.id and d.id = p.dept_id")
  in
  Alcotest.(check bool) "enumeration is non-trivial" true (List.length plans > 4);
  List.iter
    (fun prune ->
      let reference =
        Option.get (Optimizer.choose ~prune ~domains:1 registry plans)
      in
      List.iter
        (fun domains ->
          let plan, cost =
            Option.get (Optimizer.choose ~prune ~domains registry plans)
          in
          if
            (not (Plan.equal plan (fst reference)))
            || bits cost <> bits (snd reference)
          then
            Alcotest.failf "choose (prune=%b) diverged at %d domains" prune
              domains)
        (List.tl domain_counts))
    [ false; true ]

(* --- Differential: scatter-gather execution --------------------------------------- *)

let execute_workload =
  [ "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select t.id from Project p, Task t where t.project_id = p.id \
     and p.cost < 50000";
    "select l.id from Employee e, Listing l where l.emp_id = e.id \
     and l.rating >= 3";
    "select distinct d.city from Department d where d.budget > 100000" ]

(* Everything observable from a full run — answer rows (values and order),
   plan, estimate and measured bits, replans, and after the workload the
   simulated clock, which integrates every submit's communication charges in
   order. Two passes, because the first feeds history that the second plans
   with. *)
let trace_execute ?stats_mode ~domains () =
  let med, _ = fed ?stats_mode ~domains () in
  let pass () =
    List.concat_map
      (fun sql ->
        let a = Mediator.run_query med sql in
        [ Fmt.str "%s | est %Lx | measured %Lx %Lx | replans %d | rows %s"
            (Plan.to_string a.Mediator.plan)
            (bits (Estimator.total_time a.Mediator.estimate))
            (bits a.Mediator.measured.Run.total_time)
            (bits a.Mediator.measured.Run.time_first)
            a.Mediator.replans
            (String.concat ";" (List.map Tuple.key a.Mediator.rows)) ])
      execute_workload
  in
  let p1 = pass () in
  let p2 = pass () in
  p1 @ p2 @ [ Fmt.str "clock %Lx" (bits (Mediator.now med)) ]

let test_execute_differential () =
  let reference = trace_execute ~domains:1 () in
  List.iter
    (fun domains ->
      if trace_execute ~domains () <> reference then
        Alcotest.failf "execution trace diverged at %d domains" domains)
    (List.tl domain_counts)

(* --- Differential: stats off is the seed path (demo + OO7) ------------------------ *)

(* A mediator with [Stats_off] passed explicitly must trace bit-identically to
   one built without the argument (the construction path every pre-existing
   caller uses), at every domain count — the no-histogram path is the seed
   behavior, not merely close to it. *)
let test_stats_off_identical_demo () =
  let opt_ref = trace_optimize ~domains:1 () in
  let exec_ref = trace_execute ~domains:1 () in
  List.iter
    (fun domains ->
      if trace_optimize ~stats_mode:Mediator.Stats_off ~domains () <> opt_ref
      then Alcotest.failf "stats-off optimize trace diverged at %d domains" domains;
      if trace_execute ~stats_mode:Mediator.Stats_off ~domains () <> exec_ref
      then Alcotest.failf "stats-off execute trace diverged at %d domains" domains)
    domain_counts

(* The same contract over the OO7 federation: the full query workload executed
   through the mediator (submit, measured times, simulated clock), stats off,
   at 1/2/4/8 domains. *)
let oo7_config = Disco_oo7.Oo7.small_config

let trace_oo7 ?stats_mode ~domains () =
  let med = Mediator.create ?stats_mode ~domains () in
  Mediator.register med (Disco_oo7.Oo7.make_source ~config:oo7_config ());
  let env = Mediator.mediator_run_env med in
  List.map
    (fun (label, plan) ->
      let phys = Mediator.to_physical med (Plan.Submit ("oo7", plan)) in
      let rows, v = Run.measure env phys in
      Fmt.str "%s | %Lx %Lx | %d rows %s" label (bits v.Run.total_time)
        (bits v.Run.time_first) (List.length rows)
        (String.concat ";" (List.map Tuple.key rows)))
    (Disco_oo7.Oo7.queries oo7_config)
  @ [ Fmt.str "clock %Lx" (bits (Mediator.now med)) ]

let test_stats_off_identical_oo7 () =
  let reference = trace_oo7 ~domains:1 () in
  List.iter
    (fun domains ->
      if trace_oo7 ~stats_mode:Mediator.Stats_off ~domains () <> reference then
        Alcotest.failf "OO7 stats-off trace diverged at %d domains" domains)
    domain_counts

(* --- Differential: batched engine composes with domains and stats ----------------- *)

let with_mode m f =
  let prev = Run.default_mode () in
  Run.set_default_mode m;
  Fun.protect ~finally:(fun () -> Run.set_default_mode prev) f

(* The vectorized engine is a drop-in under every composition: for each
   (domain count, stats mode) the full execution trace — rows, measured
   bits, simulated clock — of the batched engine equals the tuple engine's,
   over both the demo federation and OO7. *)
let test_batched_composes () =
  List.iter
    (fun domains ->
      List.iter
        (fun stats_mode ->
          let exec_ref, oo7_ref =
            with_mode Run.Tuple_at_a_time (fun () ->
                (trace_execute ~stats_mode ~domains (), trace_oo7 ~stats_mode ~domains ()))
          in
          List.iter
            (fun batch_size ->
              with_mode (Run.Batched { batch_size }) (fun () ->
                  if trace_execute ~stats_mode ~domains () <> exec_ref then
                    Alcotest.failf
                      "batched execute trace diverged at %d domains, batch %d"
                      domains batch_size;
                  if trace_oo7 ~stats_mode ~domains () <> oo7_ref then
                    Alcotest.failf
                      "batched OO7 trace diverged at %d domains, batch %d"
                      domains batch_size))
            [ 17; 1024 ])
        [ Mediator.Stats_off; Mediator.Stats_feedback History.default_feedback ])
    domain_counts

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "chunk" `Quick test_chunk;
          Alcotest.test_case "run ordering" `Quick test_run_order;
          Alcotest.test_case "exception determinism" `Quick test_run_exception;
          Alcotest.test_case "nested reentrancy" `Quick test_run_nested;
          Alcotest.test_case "reduce" `Quick test_reduce ] );
      ( "stats",
        [ Alcotest.test_case "merge is exact" `Quick test_merge_stats_exact;
          Alcotest.test_case "pinned across domains" `Quick
            test_stats_pinned_across_domains ] );
      ( "differential",
        [ Alcotest.test_case "optimize (cache + generation bump)" `Quick
            test_optimize_differential;
          Alcotest.test_case "choose" `Quick test_choose_differential;
          Alcotest.test_case "execute (scatter-gather)" `Quick
            test_execute_differential;
          Alcotest.test_case "stats off = seed (demo)" `Quick
            test_stats_off_identical_demo;
          Alcotest.test_case "stats off = seed (OO7)" `Quick
            test_stats_off_identical_oo7;
          Alcotest.test_case "batched engine composes (domains x stats)" `Quick
            test_batched_composes ] ) ]
