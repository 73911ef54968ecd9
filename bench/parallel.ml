(* Domain-parallel plan search and scatter-gather submit execution: wall-clock
   speedup curves over 1..N domains, with bit-identity checked at every point.

   Two curves:

   1. optimize — plan_query over an OO7 join workload (DPccp
      parallelizes per subset size; caching off so every repetition pays the
      full search);
   2. execute — run_query over the demo federation (submits to distinct
      sources scatter across the pool; all accounting gathers sequentially).

   Parallelism here is an implementation detail of the mediator, never of the
   model: at every domain count the chosen plan, its estimated cost and the
   measured (simulated) timings must be bit-identical to --domains 1. The
   speedup gate (>= 2x optimize-time at 4 domains) only applies on hosts that
   actually have 4 cores — Domain.recommended_domain_count reports the
   parallelism the runtime can deliver, and a 1-core container cannot show
   wall-clock speedup no matter how well work is distributed. *)

open Disco_algebra
open Disco_exec
open Disco_wrapper
open Disco_mediator

let bits = Int64.bits_of_float

(* Join-heavy OO7 queries: the DP's work grows with the number of relations,
   so four-relation chains give the pool enough per-size candidates to
   amortize the fork/join barrier. *)
let oo7_workload =
  [ "select a.id from AtomicPart a, Connection c \
     where c.fromId = a.id and a.buildDate < 500";
    "select a.id from AtomicPart a, CompositePart p, Document d \
     where a.partOf = p.id and d.partId = p.id and a.x < 50000";
    "select a.id from AtomicPart a, Connection c, CompositePart p, Document d \
     where c.fromId = a.id and a.partOf = p.id and d.partId = p.id \
     and a.buildDate < 500 and c.length < 50" ]

(* Cross-source federation queries whose plans submit to several wrappers —
   the scatter side needs independent sources in one plan to overlap. *)
let federation_workload =
  [ "select e.id from Employee e, Department d \
     where e.dept_id = d.id and d.budget > 150000";
    "select t.id from Project p, Task t where t.project_id = p.id";
    "select l.id from Employee e, Listing l \
     where l.emp_id = e.id and l.rating >= 3" ]

let oo7_mediator ~domains () =
  let med = Mediator.create ~cache:false ~domains () in
  let config = { Disco_oo7.Oo7.small_config with Disco_oo7.Oo7.atomic_parts = 4_000 } in
  Mediator.register med (Disco_oo7.Oo7.make_source ~config ~with_rules:true ());
  med

let federation_mediator ~domains ~smoke () =
  let sizes = if smoke then Demo.small_sizes else Demo.default_sizes in
  let med = Mediator.create ~cache:false ~domains () in
  List.iter (Mediator.register med) (Demo.make ~sizes ());
  med

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One optimize-time measurement: fresh mediator at [domains], [reps]
   repetitions of planning the whole workload. Returns the per-query
   (plan, cost-bits) trace of the first pass for the identity check, and the
   best-of-passes wall time in ms. *)
let measure_optimize ~domains ~reps () =
  let med = oo7_mediator ~domains () in
  let plan_all () =
    List.map
      (fun sql ->
        let plan, cost = Mediator.plan_query med sql in
        (Plan.to_string plan, bits cost))
      oo7_workload
  in
  let trace = plan_all () in   (* warm-up: code, minor heap, catalog *)
  let best = ref infinity in
  for _ = 1 to reps do
    let _, s = wall plan_all in
    best := Float.min !best s
  done;
  (trace, !best *. 1000.)

(* One execute-time measurement: run the federation workload end to end.
   History and the simulated clock advance across queries, so the identity
   trace is the whole first pass on a fresh mediator; timing passes then
   measure steady-state execution. *)
let measure_execute ~domains ~reps ~smoke () =
  let trace =
    let med = federation_mediator ~domains ~smoke () in
    List.map
      (fun sql ->
        let a = Mediator.run_query med sql in
        (Plan.to_string a.Mediator.plan,
         bits a.Mediator.measured.Run.total_time,
         List.length a.Mediator.rows))
      federation_workload
  in
  let med = federation_mediator ~domains ~smoke () in
  let run_all () =
    List.iter (fun sql -> ignore (Mediator.run_query med sql)) federation_workload
  in
  run_all ();
  let best = ref infinity in
  for _ = 1 to reps do
    let _, s = wall run_all in
    best := Float.min !best s
  done;
  (trace, !best *. 1000.)

let print ?(smoke = false) ?json_path () =
  Util.section
    (Fmt.str "parallel — domain-parallel plan search and scatter-gather \
              execution%s"
       (if smoke then " (smoke)" else ""));
  let cores = Domain.recommended_domain_count () in
  let max_domains = if smoke then 4 else 8 in
  let counts =
    List.filter (fun d -> d <= max_domains) [ 1; 2; 4; 8 ]
  in
  let opt_reps = if smoke then 1 else 3 in
  let exe_reps = if smoke then 1 else 3 in
  let opt = List.map (fun d -> (d, measure_optimize ~domains:d ~reps:opt_reps ())) counts in
  let exe =
    List.map (fun d -> (d, measure_execute ~domains:d ~reps:exe_reps ~smoke ())) counts
  in
  (* bit-identity at every domain count, against the sequential run *)
  let opt_ref = fst (List.assoc 1 opt) and exe_ref = fst (List.assoc 1 exe) in
  List.iter
    (fun (d, (trace, _)) ->
      if trace <> opt_ref then
        Fmt.failwith
          "parallel bench: optimize at %d domains diverged from sequential" d)
    opt;
  List.iter
    (fun (d, (trace, _)) ->
      if trace <> exe_ref then
        Fmt.failwith
          "parallel bench: execute at %d domains diverged from sequential" d)
    exe;
  let opt_ms d = snd (List.assoc d opt) and exe_ms d = snd (List.assoc d exe) in
  Util.table
    [ "domains"; "optimize ms"; "opt speedup"; "execute ms"; "exe speedup" ]
    (List.map
       (fun d ->
         [ string_of_int d;
           Util.f1 (opt_ms d);
           Util.f2 (opt_ms 1 /. Float.max (opt_ms d) 1e-9) ^ "x";
           Util.f1 (exe_ms d);
           Util.f2 (exe_ms 1 /. Float.max (exe_ms d) 1e-9) ^ "x" ])
       counts);
  Fmt.pr "  bit-identity: plans, costs and measured timings identical at \
          every domain count (%d cores available)@."
    cores;
  Util.bench_json ?json_path ~bench:"parallel" ~domains:max_domains
    [ Fmt.str {|"smoke":%b|} smoke;
      Fmt.str {|"cores":%d|} cores;
      Fmt.str {|"curve":[%s]|}
        (String.concat ","
           (List.map
              (fun d ->
                Fmt.str
                  {|{"domains":%d,"optimize_ms":%.2f,"optimize_speedup":%.2f,"execute_ms":%.2f,"execute_speedup":%.2f}|}
                  d (opt_ms d)
                  (opt_ms 1 /. Float.max (opt_ms d) 1e-9)
                  (exe_ms d)
                  (exe_ms 1 /. Float.max (exe_ms d) 1e-9))
              counts)) ];
  let gate_domains = 4 in
  if (not smoke) && cores >= gate_domains && List.mem gate_domains counts then begin
    let speedup = opt_ms 1 /. Float.max (opt_ms gate_domains) 1e-9 in
    if speedup < 2. then
      Fmt.failwith
        "parallel bench: optimize speedup %.2fx at %d domains is below the \
         2x target"
        speedup gate_domains;
    Fmt.pr "  optimize speedup %.1fx at %d domains (target >= 2x)@." speedup
      gate_domains
  end
  else if cores < gate_domains then
    Fmt.pr "  speedup gate skipped: host reports %d core(s), and wall-clock \
            speedup needs >= %d@."
      cores gate_domains
