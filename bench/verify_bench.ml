(* Verify bench — latency cost of whole-plan verification on the warm
   plan-cache query path.

   The same federation workload as cachebench, executed end to end through
   [Mediator.run_query] with the plan cache warm, with and without
   [~verify:true]. A warm chosen plan carries the plan cache's verified
   flag, so the expected overhead is one flag read per query; the
   acceptance gate holds it under 5%.

   The differential assertion always runs: verified and unverified
   executions return identical rows (verification is read-only). *)

open Disco_wrapper
open Disco_mediator

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let queries =
  [ "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 200000";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 20000";
    "select t.id from Project p, Task t where t.project_id = p.id \
     and p.cost < 50000";
    "select e.name, d.city from Employee e, Department d \
     where e.dept_id = d.id order by e.name" ]

let print ?(smoke = false) ?json_path () =
  Fmt.pr "== verify: whole-plan verification overhead (warm plan cache) ==@.";
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  let run ~verify () =
    List.iter (fun sql -> ignore (Mediator.run_query ~verify med sql)) queries
  in
  (* differential: identical answers, and every chosen plan verifies clean *)
  List.iter
    (fun sql ->
      let plain = Mediator.run_query ~verify:false med sql in
      let verified = Mediator.run_query ~verify:true med sql in
      if plain.Mediator.rows <> verified.Mediator.rows then
        Fmt.failwith "verifybench: %s: verification changed the answer" sql;
      let errs =
        Disco_analysis.Finding.errors
          (Mediator.verify_plan med plain.Mediator.plan)
      in
      if errs <> [] then
        Fmt.failwith "verifybench: %s: chosen plan has %d error finding(s)" sql
          (List.length errs))
    queries;
  let iters = if smoke then 3 else 40 in
  (* both sides run against the same warm cache, after one warmup each.
     Plain and verified iterations alternate, and which side goes first
     alternates too, so a drift in host speed over the run lands on both
     sums alike instead of on whichever side ran last *)
  run ~verify:false ();
  run ~verify:true ();
  let base = ref 0. and with_verify = ref 0. in
  let side verify acc =
    let (), dt = time (run ~verify) in
    acc := !acc +. dt
  in
  for i = 1 to iters do
    if i mod 2 = 1 then begin
      side false base;
      side true with_verify
    end
    else begin
      side true with_verify;
      side false base
    end
  done;
  let base = !base and with_verify = !with_verify in
  let per_query t = 1e6 *. t /. float_of_int (iters * List.length queries) in
  let overhead = (with_verify -. base) /. base in
  Fmt.pr "  %d queries x %d iters, warm cache@." (List.length queries) iters;
  Fmt.pr "  plain     %8.1f us/query@." (per_query base);
  Fmt.pr "  verified  %8.1f us/query@." (per_query with_verify);
  Fmt.pr "  overhead  %8.2f%%@." (100. *. overhead);
  let pc = Plancache.counters (Mediator.plancache med) in
  Fmt.pr "  plancache: %d hits, %d misses@." pc.Plancache.hits
    pc.Plancache.misses;
  Util.bench_json ?json_path ~bench:"verify"
    [ Fmt.str {|"queries":%d|} (List.length queries);
      Fmt.str {|"iters":%d|} iters;
      Fmt.str {|"plain_us_per_query":%.3f|} (per_query base);
      Fmt.str {|"verified_us_per_query":%.3f|} (per_query with_verify);
      Fmt.str {|"overhead_pct":%.3f|} (100. *. overhead) ];
  (* smoke timings are too noisy to gate on a relative bound *)
  if (not smoke) && overhead > 0.05 then
    Fmt.failwith
      "verifybench: verification overhead %.2f%% exceeds the 5%% budget"
      (100. *. overhead)
