(* Fault injection and graceful degradation across the wrapper/mediator
   boundary, in three sections:

   1. differential: inert (zero-probability) fault injectors must leave
      plans, estimated costs and measured timings bit-identical to running
      with no injectors installed at all;
   2. determinism: the same seed and profiles replay the same retries,
      replans, timings and final simulated clock in two independent runs;
   3. availability sweep: per-source transient error rate vs answered
      queries, retries, replans and latency — what graceful degradation
      costs and what it saves. *)

open Disco_algebra
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_fault
open Disco_mediator

let bits = Int64.bits_of_float

(* Queries spanning the federation: single-source selections, intra- and
   cross-source joins, decoration. *)
let workload =
  [ "select e.id from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id and \
     d.budget > 150000";
    "select t.id from Project p, Task t where t.project_id = p.id and p.cost \
     < 50000";
    "select l.id from Employee e, Listing l where l.emp_id = e.id and \
     l.rating >= 3";
    "select distinct d.city from Department d where d.budget > 100000" ]

let make ?(faults = fun _ -> None) ~smoke () =
  let sizes = if smoke then Demo.small_sizes else Demo.default_sizes in
  let wrappers = Demo.make ~sizes () in
  let med = Mediator.create () in
  List.iter (Mediator.register med) wrappers;
  List.iter
    (fun w ->
      match faults w.Wrapper.name with
      | Some profile -> Wrapper.install_fault w profile
      | None -> ())
    wrappers;
  (med, wrappers)

(* --- 1. zero-fault differential ------------------------------------------- *)

let check_differential ~smoke () =
  let plain, _ = make ~smoke () in
  let inert, _ = make ~faults:(fun _ -> Some Fault.none) ~smoke () in
  (* one pass per mediator — history and the simulated clock advance across
     the workload, so comparisons must pair up the same pass *)
  let answers med = List.map (Mediator.run_query med) workload in
  let reference = answers plain in
  List.iter2
    (fun sql ((a : Mediator.answer), (b : Mediator.answer)) ->
      if not (Plan.equal a.Mediator.plan b.Mediator.plan) then
        Fmt.failwith "faults bench: an inert injector changed the plan for %S"
          sql;
      let ea = Estimator.total_time a.Mediator.estimate
      and eb = Estimator.total_time b.Mediator.estimate in
      if bits ea <> bits eb then
        Fmt.failwith
          "faults bench: an inert injector changed the estimate for %S (%h \
           vs %h)"
          sql ea eb;
      if
        bits a.Mediator.measured.Run.total_time
        <> bits b.Mediator.measured.Run.total_time
        || bits a.Mediator.measured.Run.time_first
           <> bits b.Mediator.measured.Run.time_first
      then
        Fmt.failwith
          "faults bench: an inert injector changed measured times for %S" sql;
      if a.Mediator.replans <> 0 || b.Mediator.replans <> 0 then
        Fmt.failwith "faults bench: replans without faults for %S" sql)
    workload
    (List.combine reference (answers inert));
  Fmt.pr "  zero-fault differential: %d queries bit-identical with inert \
          injectors@."
    (List.length workload)

(* --- 2. determinism -------------------------------------------------------- *)

let flaky_profiles name =
  match name with
  | "web" ->
    Some
      { Fault.none with
        Fault.seed = 11;
        transient_prob = 0.6;
        transient_ms = 40.;
        spike_prob = 0.3;
        spike_ms = 400. }
  | "relstore" -> Some { Fault.none with Fault.seed = 5; transient_prob = 0.25 }
  | _ -> None

(* Two rounds of the workload under the flaky profiles: per-query trace plus
   final health, retry count and clock. Degraded queries record their
   failure shape instead. *)
let trace ~smoke () =
  let med, _ = make ~faults:flaky_profiles ~smoke () in
  let per_query =
    List.concat_map
      (fun sql ->
        [ (match Mediator.run_query med sql with
           | a ->
             Fmt.str "%s | %Lx | replans %d" (Plan.to_string a.Mediator.plan)
               (bits a.Mediator.measured.Run.total_time)
               a.Mediator.replans
           | exception Mediator.Degraded r ->
             Fmt.str "degraded | %d failures | replans %d"
               (List.length r.Mediator.failures)
               r.Mediator.replans) ])
      (workload @ workload)
  in
  let health_rows = Health.report (Mediator.health med) in
  let health =
    List.map
      (fun (r : Health.row) ->
        Fmt.str "%s ok=%d fail=%d retry=%d" r.Health.source r.Health.ok
          r.Health.failed r.Health.retried)
      health_rows
  in
  let retries =
    List.fold_left (fun acc (r : Health.row) -> acc + r.Health.retried) 0 health_rows
  in
  (per_query, health, retries, bits (Mediator.now med))

let check_determinism ~smoke () =
  let t1 = trace ~smoke () in
  let t2 = trace ~smoke () in
  if t1 <> t2 then
    Fmt.failwith "faults bench: two runs with the same seed+profiles diverged";
  let _, health, retries, _ = t1 in
  if retries = 0 then
    Fmt.failwith "faults bench: determinism run exercised no retries";
  Fmt.pr "  determinism: two runs identical (per-query plans, timing bits, \
          replans, health, clock); %d retries exercised@."
    retries;
  List.iter (fun line -> Fmt.pr "    %s@." line) health

(* --- 3. availability sweep ------------------------------------------------- *)

type scenario = {
  error_rate : float;
  ok : int;
  degraded : int;
  retries : int;
  replans : int;
  mean_latency_ms : float;
}

let sweep_one ~smoke ~rounds error_rate : scenario =
  let faults _ =
    if error_rate = 0. then None
    else
      Some
        { Fault.none with
          Fault.seed = 3;
          transient_prob = error_rate;
          transient_ms = 40. }
  in
  let med, _ = make ~faults ~smoke () in
  let ok = ref 0 and degraded = ref 0 and replans = ref 0 in
  let latencies = ref [] in
  for _ = 1 to rounds do
    List.iter
      (fun sql ->
        match Mediator.run_query med sql with
        | a ->
          incr ok;
          replans := !replans + a.Mediator.replans;
          latencies := a.Mediator.measured.Run.total_time :: !latencies
        | exception Mediator.Degraded r ->
          incr degraded;
          replans := !replans + r.Mediator.replans
        | exception Disco_common.Err.Source_unavailable _ -> incr degraded)
      workload
  done;
  let retries =
    List.fold_left
      (fun acc (r : Health.row) -> acc + r.Health.retried)
      0
      (Health.report (Mediator.health med))
  in
  { error_rate;
    ok = !ok;
    degraded = !degraded;
    retries;
    replans = !replans;
    mean_latency_ms = Util.mean !latencies }

let print ?(smoke = false) ?json_path () =
  Util.section
    "Fault injection: availability vs plan quality and latency (bench faults)";
  check_differential ~smoke ();
  check_determinism ~smoke ();
  let rates = if smoke then [ 0.0; 0.3 ] else [ 0.0; 0.1; 0.3; 0.5 ] in
  let rounds = if smoke then 3 else 8 in
  let scenarios = List.map (sweep_one ~smoke ~rounds) rates in
  Util.table
    [ "err rate"; "answered"; "degraded"; "retries"; "replans"; "mean latency ms" ]
    (List.map
       (fun s ->
         [ Util.f2 s.error_rate;
           string_of_int s.ok;
           string_of_int s.degraded;
           string_of_int s.retries;
           string_of_int s.replans;
           Util.f1 s.mean_latency_ms ])
       scenarios);
  (match scenarios with
   | baseline :: _ when baseline.degraded > 0 || baseline.retries > 0 ->
     Fmt.failwith "faults bench: fault-free baseline degraded or retried"
   | _ -> ());
  Util.bench_json ?json_path ~bench:"faults"
    [ Fmt.str {|"smoke":%b|} smoke;
      Fmt.str {|"scenarios":[%s]|}
        (String.concat ","
           (List.map
              (fun s ->
                Fmt.str
                  {|{"error_rate":%.2f,"ok":%d,"degraded":%d,"retries":%d,"replans":%d,"mean_latency_ms":%.1f}|}
                  s.error_rate s.ok s.degraded s.retries s.replans
                  s.mean_latency_ms)
              scenarios)) ]
