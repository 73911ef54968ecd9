(* Join-enumeration engines (DESIGN.md §15): DPccp must be bit-identical to
   the subset DP wherever both run (plan, cost, plans_considered,
   dp_entries — at any domain count); greedy must produce valid plans at
   near-exact cost on the widths where the exact cost is still computable;
   and the width guards and impossible-query diagnostics that arrived with
   the engines must fire with named, actionable messages. *)

open Disco_algebra
open Disco_wrapper
open Disco_mediator

let bits = Int64.bits_of_float

let demo_med () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  med

let synth_med ?(rows = 30) n =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.synthetic ~rows ~n ());
  med

let spec_of med sql =
  (Mediator.resolve med (Disco_sql.Sql.parse sql)).Mediator.spec

(* What bit-identity means between engines: same plan text, same cost down
   to the last mantissa bit, same candidates costed, same entries kept. *)
type obs = { plan : string; cost_bits : int64; considered : int; entries : int }

let observe ?domains ~enum med spec =
  let stats = Optimizer.new_stats () in
  let plan, cost =
    Optimizer.optimize ?domains ~enum ~stats (Mediator.registry med) spec
  in
  { plan = Plan.to_string plan;
    cost_bits = bits cost;
    considered = stats.Optimizer.plans_considered;
    entries = stats.Optimizer.dp_entries }

let check_identical where a b =
  Alcotest.(check string) (where ^ ": plan") a.plan b.plan;
  Alcotest.(check int64) (where ^ ": cost bits") a.cost_bits b.cost_bits;
  Alcotest.(check int) (where ^ ": plans_considered") a.considered b.considered;
  Alcotest.(check int) (where ^ ": dp_entries") a.entries b.entries

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_plan_error ~what subs f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Plan_error, got a plan" what
  | exception Disco_common.Err.Plan_error msg ->
    List.iter
      (fun s ->
        if not (contains msg s) then
          Alcotest.failf "%s: diagnostic %S does not mention %S" what msg s)
      subs

(* --- property: Dp = Dpccp on random synthetic join graphs ------------------ *)

let shape_of_idx n = function
  | 0 -> Demo.Chain
  | 1 -> Demo.Star
  | 2 -> Demo.Clique
  | _ -> Demo.Random_edges (max 1 (n / 2))

let differential_prop =
  let gen =
    QCheck2.Gen.(triple (int_range 0 3) (int_range 2 8) (int_range 0 3))
  in
  let print (s, n, seed) = Fmt.str "shape=%d n=%d seed=%d" s n seed in
  QCheck2.Test.make ~count:12 ~name:"dp = dpccp on random join graphs" ~print
    gen (fun (s, n, seed) ->
      (* Dense shapes stay small: the subset DP is ~3^n on them. *)
      let n = match s with 1 | 2 -> min n 6 | _ -> n in
      let shape = shape_of_idx n s in
      let med = Mediator.create () in
      List.iter (Mediator.register med) (Demo.synthetic ~seed ~rows:25 ~n ());
      let spec = spec_of med (Demo.synthetic_sql ~seed ~shape ~n ()) in
      List.iter
        (fun domains ->
          let where =
            Fmt.str "%s-%d seed=%d domains=%d" (Demo.shape_to_string shape) n
              seed domains
          in
          check_identical where
            (observe ~domains ~enum:Optimizer.Dp med spec)
            (observe ~domains ~enum:Optimizer.Dpccp med spec))
        [ 1; 4 ];
      true)

(* --- demo corpus: engines agree; the pinned 3-chain counters --------------- *)

let workload =
  [ "select e.id from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 15000";
    "select e.id from Employee e, Department d, Project p, Task t \
     where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id \
     and t.hours > 10" ]

let test_demo_corpus () =
  let med = demo_med () in
  List.iteri
    (fun i sql ->
      let spec = spec_of med sql in
      let dp = observe ~enum:Optimizer.Dp med spec in
      (* Dpccp matches the sequential Dp reference at every pool size, and
         Auto below the threshold is exactly Dpccp. *)
      List.iter
        (fun domains ->
          check_identical
            (Fmt.str "workload %d dpccp domains=%d" i domains)
            dp
            (observe ~domains ~enum:Optimizer.Dpccp med spec))
        [ 1; 2; 4; 8 ];
      check_identical
        (Fmt.str "workload %d auto" i)
        dp
        (observe ~enum:Optimizer.Auto med spec))
    workload

let test_pinned_counters () =
  let med = demo_med () in
  let spec =
    spec_of med
      "select e.id from Employee e, Department d, Project p \
       where e.dept_id = d.id and d.id = p.dept_id"
  in
  let run enum =
    let stats = Optimizer.new_stats () in
    let _ = Optimizer.optimize ~enum ~stats (Mediator.registry med) spec in
    stats
  in
  let dp = run Optimizer.Dp and ccp = run Optimizer.Dpccp in
  Alcotest.(check int) "dp considered" 36 dp.Optimizer.plans_considered;
  Alcotest.(check int) "dpccp considered" 36 ccp.Optimizer.plans_considered;
  Alcotest.(check int) "dp entries" 10 dp.Optimizer.dp_entries;
  Alcotest.(check int) "dpccp entries" 10 ccp.Optimizer.dp_entries;
  (* The one counter the engines are allowed to differ on: enumeration
     work. The 3-chain has 6 subset splits but only 4 csg–cmp pairs. *)
  Alcotest.(check int) "dp splits" 6 dp.Optimizer.csg_cmp_pairs;
  Alcotest.(check int) "dpccp pairs" 4 ccp.Optimizer.csg_cmp_pairs

(* --- greedy: near-exact cost where exact is feasible, valid plans wider ---- *)

let test_greedy_cost_ratio () =
  let n = 16 in
  let med = synth_med n in
  let spec = spec_of med (Demo.synthetic_sql ~shape:Demo.Chain ~n ()) in
  let cost_of enum =
    let stats = Optimizer.new_stats () in
    snd (Optimizer.optimize ~enum ~stats (Mediator.registry med) spec)
  in
  let exact = cost_of Optimizer.Dpccp and greedy = cost_of Optimizer.Greedy in
  let ratio = greedy /. exact in
  if ratio < 0.999 || ratio > 1.5 then
    Alcotest.failf "greedy/exact cost ratio %.4f outside [1, 1.5] at chain-16"
      ratio

let test_greedy_plans_verify () =
  let med = Mediator.create ~enum_mode:Optimizer.Greedy () in
  List.iter (Mediator.register med) (Demo.synthetic ~rows:30 ~n:18 ());
  Alcotest.(check string)
    "mediator runs the greedy engine" "greedy"
    (Optimizer.enum_mode_to_string (Mediator.enum_mode med));
  List.iter
    (fun shape ->
      let sql = Demo.synthetic_sql ~shape ~n:18 () in
      let plan, _cost = Mediator.plan_query med sql in
      let errs =
        Disco_analysis.Plancheck.errors (Mediator.verify_plan med plan)
      in
      Alcotest.(check int)
        (Fmt.str "%s-18 greedy plan verification errors"
           (Demo.shape_to_string shape))
        0 (List.length errs))
    [ Demo.Chain; Demo.Random_edges 9 ]

(* --- diagnostics: impossible queries fail with names ----------------------- *)

let test_disconnected_diagnostic () =
  let med = demo_med () in
  let spec =
    spec_of med
      "select e.id from Employee e, Department d where e.salary > 20000"
  in
  expect_plan_error ~what:"cross join"
    [ "disconnected components"; "{d}"; "{e}"; "join predicates" ]
    (fun () -> Optimizer.optimize (Mediator.registry med) spec)

let test_unavailable_diagnostic () =
  let med = synth_med 4 in
  let spec = spec_of med (Demo.synthetic_sql ~shape:Demo.Chain ~n:4 ()) in
  expect_plan_error ~what:"excluded source"
    [ "Rel0"; "source s0"; "unavailable" ]
    (fun () ->
      Optimizer.optimize
        ~available:(fun s -> s <> "s0")
        (Mediator.registry med) spec)

(* --- width guards ---------------------------------------------------------- *)

let test_width_guards () =
  let med11 = synth_med ~rows:10 11 in
  let spec11 = spec_of med11 (Demo.synthetic_sql ~shape:Demo.Chain ~n:11 ()) in
  expect_plan_error ~what:"enumerate at 11" [ "cannot enumerate"; "11" ]
    (fun () -> Optimizer.enumerate spec11);
  let med21 = synth_med ~rows:10 21 in
  let spec21 = spec_of med21 (Demo.synthetic_sql ~shape:Demo.Chain ~n:21 ()) in
  expect_plan_error ~what:"dp at 21" [ "dp join enumerator"; "at most 20" ]
    (fun () ->
      Optimizer.optimize ~enum:Optimizer.Dp (Mediator.registry med21) spec21);
  (* The same query is fine under the graph-based engines. *)
  let _ = Optimizer.optimize ~enum:Optimizer.Dpccp (Mediator.registry med21) spec21 in
  ()

(* --- mediator-level stats accumulate across queries ------------------------ *)

let test_stats_accumulate () =
  let med = synth_med 5 in
  let considered () = (Mediator.optimizer_stats med).Optimizer.plans_considered in
  let c0 = considered () in
  let _ = Mediator.plan_query med (Demo.synthetic_sql ~shape:Demo.Chain ~n:5 ()) in
  let c1 = considered () in
  let _ = Mediator.plan_query med (Demo.synthetic_sql ~shape:Demo.Star ~n:5 ()) in
  let c2 = considered () in
  if not (c0 < c1 && c1 < c2) then
    Alcotest.failf "optimizer_stats did not accumulate: %d, %d, %d" c0 c1 c2

(* --- 50 sources end to end (the Auto -> Greedy path) ----------------------- *)

let test_chain50_end_to_end () =
  let med = synth_med ~rows:15 50 in
  let answer =
    Mediator.run_query med (Demo.synthetic_sql ~shape:Demo.Chain ~n:50 ())
  in
  Alcotest.(check int) "no replans" 0 answer.Mediator.replans;
  let errs =
    Disco_analysis.Plancheck.errors
      (Mediator.verify_plan med answer.Mediator.plan)
  in
  Alcotest.(check int) "executed plan verifies clean" 0 (List.length errs)

(* --- the default mode and the mode names ------------------------------------ *)

let test_mode_default () =
  let mode =
    Alcotest.testable
      (fun ppf m -> Fmt.string ppf (Optimizer.enum_mode_to_string m))
      ( = )
  in
  Alcotest.(check mode) "mediators default to auto" Optimizer.Auto
    (Mediator.enum_mode (Mediator.create ()));
  Alcotest.(check (list string)) "mode names" [ "dp"; "dpccp"; "greedy"; "auto" ]
    (List.map Optimizer.enum_mode_to_string
       Optimizer.[ Dp; Dpccp; Greedy; Auto ])

let () =
  Alcotest.run "enum"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest differential_prop;
          Alcotest.test_case "demo corpus: dp = dpccp = auto" `Quick
            test_demo_corpus;
          Alcotest.test_case "3-chain pinned counters" `Quick
            test_pinned_counters ] );
      ( "greedy",
        [ Alcotest.test_case "chain-16 cost ratio" `Quick test_greedy_cost_ratio;
          Alcotest.test_case "18-source plans verify" `Quick
            test_greedy_plans_verify;
          Alcotest.test_case "chain-50 end to end" `Slow
            test_chain50_end_to_end ] );
      ( "guards",
        [ Alcotest.test_case "disconnected join graph" `Quick
            test_disconnected_diagnostic;
          Alcotest.test_case "unavailable source" `Quick
            test_unavailable_diagnostic;
          Alcotest.test_case "width limits" `Quick test_width_guards ] );
      ( "modes",
        [ Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "default and names" `Quick test_mode_default ] )
    ]
