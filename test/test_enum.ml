(* Join enumeration (DESIGN.md §15): the exact engine must return the cost
   of the cheapest plan exhaustive enumeration finds, to the bit;
   [optimize] must hand over from DPccp to greedy at the
   threshold; greedy must produce valid plans at near-exact cost on the
   widths where the exact cost is still computable; a NaN cost must never
   win a plan selection; and the width guards and impossible-query
   diagnostics must fire with named, actionable messages. *)

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

(* What it means for two runs to be the same run: same plan text, same cost
   down to the last mantissa bit, same candidates costed, same entries
   kept, same enumeration work. *)
type obs = {
  plan : string;
  cost_bits : int64;
  considered : int;
  entries : int;
  pairs : int;
}

let observe (engine : Optimizer.engine) med spec =
  let stats = Optimizer.new_stats () in
  let ann, cost = engine ~stats (Mediator.registry med) spec in
  { plan = Plan.to_string ann.Disco_core.Estimator.node;
    cost_bits = bits cost;
    considered = stats.Optimizer.plans_considered;
    entries = stats.Optimizer.dp_entries;
    pairs = stats.Optimizer.csg_cmp_pairs }

let check_identical where a b =
  Alcotest.(check string) (where ^ ": plan") a.plan b.plan;
  Alcotest.(check int64) (where ^ ": cost bits") a.cost_bits b.cost_bits;
  Alcotest.(check int) (where ^ ": plans_considered") a.considered b.considered;
  Alcotest.(check int) (where ^ ": dp_entries") a.entries b.entries;
  Alcotest.(check int) (where ^ ": csg_cmp_pairs") a.pairs b.pairs

(* The exhaustive oracle: the cheapest of every complete plan. It shares
   only the cost model with the DP, not the way the DP builds plans. *)
let oracle_cost med spec =
  snd
    (Option.get
       (Optimizer.choose ~prune:false (Mediator.registry med)
          (Optimizer.enumerate spec)))

(* Ties may exist between distinct plans, so only the cost is compared. *)
let check_oracle where med spec =
  let _, cost = Optimizer.optimize (Mediator.registry med) spec in
  let expected = oracle_cost med spec in
  if bits cost <> bits expected then
    Alcotest.failf "%s: optimize cost %h, exhaustive oracle %h" where cost
      expected

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

(* --- property: optimize = exhaustive oracle on random join graphs ---------- *)

let shape_of_idx n = function
  | 0 -> Demo.Chain
  | 1 -> Demo.Star
  | 2 -> Demo.Clique
  | _ -> Demo.Random_edges (max 1 (n / 2))

let oracle_prop =
  let gen =
    QCheck2.Gen.(triple (int_range 0 3) (int_range 2 5) (int_range 0 3))
  in
  let print (s, n, seed) = Fmt.str "shape=%d n=%d seed=%d" s n seed in
  QCheck2.Test.make ~count:12
    ~name:"optimize = oracle on random graphs" ~print gen
    (fun (s, n, seed) ->
      let shape = shape_of_idx n s in
      let med = Mediator.create () in
      List.iter (Mediator.register med) (Demo.synthetic ~seed ~rows:25 ~n ());
      let spec = spec_of med (Demo.synthetic_sql ~seed ~shape ~n ()) in
      let where =
        Fmt.str "%s-%d seed=%d" (Demo.shape_to_string shape) n seed
      in
      check_oracle where med spec;
      true)

(* --- demo corpus: the oracle again; the pinned 3-chain counters ------------ *)

let workload =
  [ "select e.id from Employee e where e.salary > 20000";
    "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 150000";
    "select t.id from Project p, Task t where t.project_id = p.id";
    "select e.id from Employee e, Department d, Project p \
     where e.dept_id = d.id and d.id = p.dept_id and e.salary > 15000";
    "select e.id from Employee e, Department d, Project p, Task t \
     where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id \
     and t.hours > 10" ]

let test_demo_corpus () =
  let med = demo_med () in
  List.iteri
    (fun i sql -> check_oracle (Fmt.str "workload %d" i) med (spec_of med sql))
    workload

let test_pinned_counters () =
  let med = demo_med () in
  let spec =
    spec_of med
      "select e.id from Employee e, Department d, Project p \
       where e.dept_id = d.id and d.id = p.dept_id"
  in
  let ccp = observe Optimizer.dpccp med spec in
  (* 6 seed costings (each base's wrapper-side plan and its submit), then
     4 for {e}{d} (two joins inside relstore, two at the mediator), 2 for
     {d}{p}, 2 for {e}{dp} and 4 for {ed}{p}: a pair of mediator-side
     inputs already joined in a split is not joined again *)
  Alcotest.(check int) "dpccp considered" 18 ccp.considered;
  Alcotest.(check int) "dpccp entries" 10 ccp.entries;
  (* the 3-chain has 4 csg–cmp pairs ({e}{d}, {d}{p}, {e}{dp}, {ed}{p}) *)
  Alcotest.(check int) "dpccp pairs" 4 ccp.pairs

(* --- same-source joins: the wrapper's rules rank what runs inside it ------ *)

let oo7_med () =
  let med = Mediator.create () in
  Mediator.register med
    (Disco_oo7.Oo7.make_source ~config:Disco_oo7.Oo7.small_config ());
  med

(* Two relations of one source in both FROM orders, with a selection on
   either side. *)
let same_source ~from:(r1, r2) ~select ~join (sel1, sel2) =
  List.concat_map
    (fun from ->
      List.map
        (fun sel -> Fmt.str "select %s from %s where %s and %s" select from join sel)
        [ sel1; sel2 ])
    [ r1 ^ ", " ^ r2; r2 ^ ", " ^ r1 ]

let demo_same_source =
  same_source ~from:("Employee e", "Department d") ~select:"e.name"
    ~join:"e.dept_id = d.id" ("e.salary > 20000", "d.id = 3")
  @ same_source ~from:("Project p", "Task t") ~select:"p.id, t.hours"
      ~join:"t.project_id = p.id" ("p.cost < 50000", "t.hours < 3")

let oo7_same_source =
  same_source ~from:("Connection c", "AtomicPart a") ~select:"c.toId"
    ~join:"c.toId = a.id" ("c.length < 10", "a.buildDate < 2")
  @ same_source ~from:("AtomicPart a", "CompositePart p") ~select:"a.id"
      ~join:"a.partOf = p.id" ("a.x < 100", "p.buildDate < 5")

(* A join inside one wrapper is ranked by that wrapper's rules, as the
   oracle's submit costs it. Ranked under the mediator's rules instead,
   DPccp misses the oracle's cost on five of these: the d.id = 3,
   t.hours < 3 and a.buildDate < 2 queries in their first FROM order (the
   oracle's plan is one submit of a join with the selected relation
   outer), and p.cost < 50000 and a.x < 100 in their second. *)
let test_same_source_oracle () =
  let demo = demo_med () and oo7 = oo7_med () in
  List.iter
    (fun (med, sql) -> check_oracle sql med (spec_of med sql))
    (List.map (fun sql -> (demo, sql)) demo_same_source
    @ List.map (fun sql -> (oo7, sql)) oo7_same_source)

(* --- the search's cost is the plan's cost ---------------------------------- *)

(* A search returns the cost its carried annotations computed; a fresh
   estimate of the returned plan must give the same bits, under both
   objectives. Greedy's widths are beyond the oracle's reach. *)
let test_carried_cost () =
  let check where (engine : Optimizer.engine) med spec =
    List.iter
      (fun objective ->
        let registry = Mediator.registry med in
        let ann, cost = engine ~objective registry spec in
        let fresh =
          Option.get
            (Optimizer.cost_of ~objective registry (Optimizer.new_stats ())
               ann.Disco_core.Estimator.node)
        in
        if bits cost <> bits fresh then
          Alcotest.failf "%s: search cost %h, fresh cost_of %h" where cost fresh)
      [ Optimizer.Total_time; Optimizer.First_tuple ]
  in
  List.iter
    (fun n ->
      let med = synth_med ~rows:20 n in
      List.iter
        (fun shape ->
          let sql = Demo.synthetic_sql ~shape ~n () in
          check
            (Fmt.str "greedy %s-%d" (Demo.shape_to_string shape) n)
            Optimizer.greedy med (spec_of med sql))
        [ Demo.Chain; Demo.Star; Demo.Random_edges (n / 2) ])
    [ 13; 18; 24 ];
  let demo = demo_med () and oo7 = oo7_med () in
  List.iter
    (fun (med, sql) -> check sql Optimizer.dpccp med (spec_of med sql))
    (List.map (fun sql -> (demo, sql)) (workload @ demo_same_source)
    @ List.map (fun sql -> (oo7, sql)) oo7_same_source)

(* --- optimize dispatches on width ------------------------------------------ *)

let test_dispatch () =
  let t = Optimizer.default_enum_threshold in
  let med = synth_med ~rows:20 (t + 1) in
  let at n = spec_of med (Demo.synthetic_sql ~shape:Demo.Chain ~n ()) in
  let spec_t = at t and spec_t1 = at (t + 1) in
  let exact = observe Optimizer.dpccp med spec_t in
  check_identical (Fmt.str "%d relations" t)
    exact (observe Optimizer.optimize med spec_t);
  let goo = observe Optimizer.greedy med spec_t1 in
  check_identical (Fmt.str "%d relations" (t + 1))
    goo (observe Optimizer.optimize med spec_t1);
  (* the two engines are told apart by their enumeration work *)
  if (observe Optimizer.greedy med spec_t).pairs = exact.pairs then
    Alcotest.fail "dpccp and greedy do the same work: dispatch is untested"

(* --- greedy: near-exact cost where exact is feasible, valid plans wider ---- *)

let test_greedy_cost_ratio () =
  let n = 16 in
  let med = synth_med n in
  let spec = spec_of med (Demo.synthetic_sql ~shape:Demo.Chain ~n ()) in
  let cost_of (engine : Optimizer.engine) = snd (engine (Mediator.registry med) spec) in
  let exact = cost_of Optimizer.dpccp and greedy = cost_of Optimizer.greedy in
  let ratio = greedy /. exact in
  if ratio < 0.999 || ratio > 1.5 then
    Alcotest.failf "greedy/exact cost ratio %.4f outside [1, 1.5] at chain-16"
      ratio

let test_greedy_plans_verify () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.synthetic ~rows:30 ~n:18 ());
  List.iter
    (fun shape ->
      let sql = Demo.synthetic_sql ~shape ~n:18 () in
      let plan, _cost = Mediator.plan_query med sql in
      let errs =
        Disco_analysis.Finding.errors (Mediator.verify_plan med plan)
      in
      Alcotest.(check int)
        (Fmt.str "%s-18 greedy plan verification errors"
           (Demo.shape_to_string shape))
        0 (List.length errs))
    [ Demo.Chain; Demo.Random_edges 9 ]

(* --- NaN costs never win a plan selection ---------------------------------- *)

(* objstore's join rule replaced by one whose TotalTime is NaN: every plan
   that joins inside objstore costs NaN, every other plan stays finite. *)
let nan_join_med () =
  let rules =
    let s = Demo.objstore_rules and head = "rule join(C1, C2, P) {" in
    let rec find i =
      if String.sub s i (String.length head) = head then i else find (i + 1)
    in
    let i = find 0 in
    let j = String.index_from s i '}' in
    String.sub s 0 i ^ head ^ " TotalTime = ln(0) * 0; }"
    ^ String.sub s (j + 1) (String.length s - j - 1)
  in
  let med = Mediator.create () in
  List.iter
    (fun (w : Wrapper.t) ->
      Mediator.register med
        (if w.Wrapper.name = "objstore" then { w with Wrapper.rules_text = rules }
         else w))
    (Demo.make ~sizes:Demo.small_sizes ());
  med

let test_nan_never_wins () =
  Alcotest.(check bool) "cost_le: NaN after every number" true
    Optimizer.(
      cost_le 1. nan && cost_le infinity nan && cost_le nan nan
      && (not (cost_le nan 1.)) && cost_le 1. 1. && not (cost_le 2. 1.));
  let med = nan_join_med () in
  let registry = Mediator.registry med in
  List.iter
    (fun sql ->
      let spec = spec_of med sql in
      let plans = Optimizer.enumerate spec in
      let pick plans =
        snd (Option.get (Optimizer.choose ~prune:false registry plans))
      in
      let forward = pick plans and backward = pick (List.rev plans) in
      if Float.is_nan forward || bits forward <> bits backward then
        Alcotest.failf "%s: choose depends on list order: %h forward, %h reversed"
          sql forward backward;
      List.iter
        (fun (name, (engine : Optimizer.engine)) ->
          let _, cost = engine registry spec in
          if Float.is_nan cost then Alcotest.failf "%s: %s returned NaN" sql name)
        [ ("dpccp", Optimizer.dpccp); ("greedy", Optimizer.greedy) ];
      check_oracle sql med spec;
      let _, cost = Mediator.plan_query med sql in
      if Float.is_nan cost then Alcotest.failf "%s: plan_query returned NaN" sql)
    [ "select t.id from Project p, Task t where t.project_id = p.id";
      "select e.id from Employee e, Department d, Project p, Task t \
       where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id" ]

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

(* --- width guards ---------------------------------------------------------- *)

let test_width_guards () =
  let med11 = synth_med ~rows:10 11 in
  let spec11 = spec_of med11 (Demo.synthetic_sql ~shape:Demo.Chain ~n:11 ()) in
  expect_plan_error ~what:"enumerate at 11" [ "cannot enumerate"; "11" ]
    (fun () -> Optimizer.enumerate spec11);
  (* DPccp's work follows the graph, not the width: a 21-chain is fine *)
  let med21 = synth_med ~rows:10 21 in
  let spec21 = spec_of med21 (Demo.synthetic_sql ~shape:Demo.Chain ~n:21 ()) in
  let _ = Optimizer.dpccp (Mediator.registry med21) spec21 in
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

(* --- 50 sources end to end (the greedy path) ------------------------------- *)

let test_chain50_end_to_end () =
  let med = synth_med ~rows:15 50 in
  let answer =
    Mediator.run_query med (Demo.synthetic_sql ~shape:Demo.Chain ~n:50 ())
  in
  Alcotest.(check int) "no replans" 0 answer.Mediator.replans;
  let errs =
    Disco_analysis.Finding.errors
      (Mediator.verify_plan med answer.Mediator.plan)
  in
  Alcotest.(check int) "executed plan verifies clean" 0 (List.length errs)

(* --- counter merge ------------------------------------------------------------ *)

(* A search merges its counters into the caller's record once; [merge_stats]
   adds every counter exactly once and leaves its source alone. *)
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

let () =
  Alcotest.run "enum"
    [ ( "differential",
        [ QCheck_alcotest.to_alcotest oracle_prop;
          Alcotest.test_case "demo corpus: optimize = oracle" `Quick
            test_demo_corpus;
          Alcotest.test_case "3-chain pinned counters" `Quick
            test_pinned_counters;
          Alcotest.test_case "same-source joins: dpccp = oracle" `Quick
            test_same_source_oracle;
          Alcotest.test_case "search cost = fresh cost_of" `Quick
            test_carried_cost;
          Alcotest.test_case "NaN cost never beats a finite one" `Quick
            test_nan_never_wins ] );
      ( "greedy",
        [ Alcotest.test_case "chain-16 cost ratio" `Quick test_greedy_cost_ratio;
          Alcotest.test_case "18-source plans verify" `Quick
            test_greedy_plans_verify;
          Alcotest.test_case "chain-50 end to end" `Slow
            test_chain50_end_to_end ] );
      ( "guards",
        [ Alcotest.test_case "disconnected join graph" `Quick
            test_disconnected_diagnostic;
          Alcotest.test_case "width limits" `Quick test_width_guards ] );
      ( "modes",
        [ Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "dispatch by width" `Quick test_dispatch ] );
      ("stats", [ Alcotest.test_case "merge is exact" `Quick test_merge_stats_exact ])
    ]
