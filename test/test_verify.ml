(* Whole-plan static verification (DESIGN.md §14): soundness of the checker
   on everything the optimizer actually emits, and sensitivity on a suite of
   deliberately corrupted plans.

   - soundness: over randomized federation seeds, stats modes and domain
     counts (1 and 4), every optimizer-chosen plan verifies with zero
     error-severity findings — the debug assertion on [Optimizer.optimize]
     output;
   - soundness: random single-source plans (the fuzz grammar) stay within
     the Planbound cardinality intervals;
   - mutations: swapped join keys, dropped attributes, dangling sources,
     negative cost constants, and a wrapper result with a wrong count or an
     out-of-range selection index are each detected with their specific tag;
   - engine preconditions: corrupt batches are rejected by
     [Audit.check_batch], and what really crosses from wrappers to the
     mediator passes [Audit.check_physical]. *)

open Disco_common
open Disco_algebra
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_mediator
module PB = Disco_analysis.Planbound
module Finding = Disco_analysis.Finding

let make_med ?seed ?(stats = false) () =
  let stats_mode =
    if stats then Mediator.Stats_feedback History.default_feedback
    else Mediator.Stats_off
  in
  let med = Mediator.create ~stats_mode () in
  List.iter (Mediator.register med) (Demo.make ?seed ~sizes:Demo.small_sizes ());
  med

let corpus =
  [ "select e.name from Employee e where e.salary > 5000";
    "select e.name, e.age from Employee e where e.age >= 30 order by e.age";
    "select e.name, d.city from Employee e, Department d \
     where e.dept_id = d.id and d.budget > 100000";
    "select p.id, t.hours from Project p, Task t \
     where t.project_id = p.id order by t.hours";
    "select d.id, count(*) as n from Employee e, Department d \
     where e.dept_id = d.id group by d.id";
    "select doc.doc_id from Document doc where doc.bytes > 1000";
    "select l.rating, e.name from Listing l, Employee e where l.emp_id = e.id";
    "select distinct e.dept_id from Employee e" ]

let pp_errors fs =
  Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Finding.pp) (Finding.errors fs)

(* --- qcheck soundness --------------------------------------------------------- *)

(* Mediator construction dominates; memoize per configuration (generation is
   deterministic in the seed, and verification does not mutate). *)
let med_cache : (int * bool, Mediator.t) Hashtbl.t = Hashtbl.create 16

let cached_med (seed, stats) =
  match Hashtbl.find_opt med_cache (seed, stats) with
  | Some m -> m
  | None ->
    let m = make_med ~seed ~stats () in
    Hashtbl.add med_cache (seed, stats) m;
    m

let prop_optimizer_verifies =
  QCheck2.Test.make ~name:"optimizer output verifies clean" ~count:60
    QCheck2.Gen.(
      triple (int_range 0 3) bool (oneofl corpus))
    (fun (seed, stats, sql) ->
      let med = cached_med (seed, stats) in
      let plan, _ = Mediator.plan_query med sql in
      match Finding.errors (Mediator.verify_plan med plan) with
      | [] -> true
      | errs -> QCheck2.Test.fail_reportf "%s: %s" sql (pp_errors errs))

(* Random single-source plans from the fuzz grammar: well-formedness may
   legitimately warn (e.g. a bare scan is only an error in mediator context)
   but the estimates must respect the sound cardinality interval. *)
let scannables =
  [ ("relstore", "Employee", "e", [ "id"; "dept_id"; "salary"; "age" ]);
    ("relstore", "Department", "d", [ "id"; "budget" ]);
    ("objstore", "Project", "p", [ "id"; "dept_id"; "cost"; "hours_budget" ]);
    ("objstore", "Task", "t", [ "id"; "project_id"; "hours" ]);
    ("files", "Document", "doc", [ "doc_id"; "project_id"; "bytes" ]);
    ("web", "Listing", "l", [ "id"; "emp_id"; "rating" ]) ]

let gen_fuzz_plan =
  QCheck2.Gen.(
    let* src, coll, binding, attrs = oneofl scannables in
    let scan = Plan.Scan { Plan.source = src; collection = coll; binding } in
    let* attr = oneofl attrs in
    let* op = oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ] in
    let* v = int_range (-10) 10_000 in
    let* with_select = bool in
    let base =
      if with_select then
        Plan.Select (scan, Pred.Cmp (binding ^ "." ^ attr, op, Constant.Int v))
      else scan
    in
    let* shape = int_range 0 3 in
    let qattr = binding ^ "." ^ attr in
    let decorated =
      match shape with
      | 0 -> base
      | 1 -> Plan.Project (base, [ qattr ])
      | 2 -> Plan.Dedup base
      | _ ->
        Plan.Aggregate
          ( base,
            { Plan.group_by = [ qattr ]; aggs = [ (Plan.Count, "", "n") ] } )
    in
    return (src, Plan.Submit (src, decorated)))

let prop_bounds_sound =
  let med = cached_med (0, false) in
  let registry = Mediator.registry med in
  QCheck2.Test.make ~name:"random plans stay within cardinality bounds"
    ~count:300 gen_fuzz_plan
    (fun (_src, plan) ->
      match Finding.errors (PB.check registry plan) with
      | [] -> true
      | errs -> QCheck2.Test.fail_reportf "%s" (pp_errors errs))

(* --- mutation suite ----------------------------------------------------------- *)

let joined_plan med =
  fst
    (Mediator.plan_query med
       "select e.name, d.city from Employee e, Department d \
        where e.dept_id = d.id")

let has_tag tag fs =
  List.exists (fun f -> f.Finding.severity = Finding.Error && f.Finding.tag = tag) fs

let check_detects med label tag plan =
  let fs = Mediator.verify_plan med plan in
  Alcotest.(check bool)
    (Fmt.str "%s detected via [%s]" label tag)
    true (has_tag tag fs)

let rec rename_source ~from ~to_ = function
  | Plan.Scan r as p ->
    if r.Plan.source = from then Plan.Scan { r with Plan.source = to_ } else p
  | Plan.Select (c, q) -> Plan.Select (rename_source ~from ~to_ c, q)
  | Plan.Project (c, a) -> Plan.Project (rename_source ~from ~to_ c, a)
  | Plan.Sort (c, k) -> Plan.Sort (rename_source ~from ~to_ c, k)
  | Plan.Join (l, r, q) ->
    Plan.Join (rename_source ~from ~to_ l, rename_source ~from ~to_ r, q)
  | Plan.Union (l, r) ->
    Plan.Union (rename_source ~from ~to_ l, rename_source ~from ~to_ r)
  | Plan.Dedup c -> Plan.Dedup (rename_source ~from ~to_ c)
  | Plan.Aggregate (c, a) -> Plan.Aggregate (rename_source ~from ~to_ c, a)
  | Plan.Submit (s, c) -> Plan.Submit (s, rename_source ~from ~to_ c)

let test_dangling_source () =
  let med = make_med () in
  let bad = rename_source ~from:"relstore" ~to_:"ghost" (joined_plan med) in
  check_detects med "dangling source" "unknown-source" bad;
  (* Planbound degrades to a finding rather than leaking Unknown_source *)
  let fs = PB.check (Mediator.registry med) bad in
  Alcotest.(check bool)
    "bound pass reports estimation-failure" true
    (has_tag "estimation-failure" fs)

let test_swapped_join_key () =
  let med = make_med () in
  let bad =
    match joined_plan med with
    | Plan.Project (Plan.Join (l, r, _), attrs) ->
      Plan.Project
        (Plan.Join (l, r, Pred.Attr_cmp ("e.dept_id", Cmp.Eq, "d.city")), attrs)
    | p -> Alcotest.failf "unexpected plan shape %a" Plan.pp p
  in
  check_detects med "swapped join key (int vs string)" "join-type" bad

let test_dropped_attribute () =
  let med = make_med () in
  let bad = Plan.Project (joined_plan med, [ "e.nonexistent" ]) in
  check_detects med "projection of a dropped attribute" "projection" bad

let test_negative_cost () =
  let med = make_med () in
  let plan = joined_plan med in
  Alcotest.(check int)
    "clean before corruption" 0
    (List.length (Finding.errors (Mediator.verify_plan med plan)));
  (* a measured (query-scope) rule asserting a negative total time *)
  ignore
    (Registry.add_query_rule (Mediator.registry med) ~source:"mediator" plan
       [ (Disco_costlang.Ast.Total_time, -5.0) ]);
  check_detects med "negative cost constant" "negative" plan

let test_verify_clean_corpus () =
  let med = make_med () in
  List.iter
    (fun sql ->
      let plan, _ = Mediator.plan_query med sql in
      let errs = Finding.errors (Mediator.verify_plan med plan) in
      Alcotest.(check int) (sql ^ " verifies clean") 0 (List.length errs))
    corpus

let test_run_query_verify () =
  let med = make_med () in
  let a =
    Mediator.run_query ~verify:true med
      "select e.name from Employee e where e.salary > 5000"
  in
  Alcotest.(check bool) "rows returned" true (a.Mediator.rows <> []);
  (* corrupt the model, then the same query must be rejected pre-execution *)
  let plan, _ =
    Mediator.plan_query med "select e.name from Employee e where e.salary > 5000"
  in
  ignore
    (Registry.add_query_rule (Mediator.registry med) ~source:"mediator" plan
       [ (Disco_costlang.Ast.Total_time, Float.neg_infinity) ]);
  match Mediator.run_query ~verify:true med
          "select e.name from Employee e where e.salary > 5000"
  with
  | _ -> Alcotest.fail "corrupted plan executed"
  | exception Mediator.Invalid_plan fs ->
    Alcotest.(check bool) "findings carried" true (Finding.errors fs <> [])

(* --- engine preconditions ----------------------------------------------------- *)

let mk_batch rows =
  let b = Batch.builder [| "e.id"; "e.name" |] in
  List.iter
    (fun (i, n) -> Batch.add_row b [| Constant.Int i; Constant.String n |])
    rows;
  Batch.flush b

let test_check_batch () =
  let good = mk_batch [ (1, "a"); (2, "b") ] in
  Alcotest.(check int) "good batch clean" 0
    (List.length (Finding.errors (Audit.check_batch good)));
  let bad_sel = { good with Batch.sel = Some [| 0; 7 |] } in
  Alcotest.(check bool) "out-of-range selection vector" true
    (has_tag "selection-vector" (Audit.check_batch bad_sel));
  let bad_shape = { good with Batch.attrs = [| "e.id" |] } in
  Alcotest.(check bool) "attrs/cols disagreement" true
    (has_tag "batch-shape" (Audit.check_batch bad_shape));
  let bad_bytes = { good with Batch.bytes = good.Batch.bytes + 3 } in
  Alcotest.(check bool) "bytes accounting" true
    (has_tag "batch-bytes" (Audit.check_batch bad_bytes))

(* A real wrapper result, as it crosses into the mediator: a residual scan's
   batches with their selection vector. *)
let employees_result () =
  let relstore =
    List.find
      (fun w -> w.Wrapper.name = "relstore")
      (Demo.make ~sizes:Demo.small_sizes ())
  in
  Wrapper.execute relstore
    (Plan.Select
       ( Plan.Scan { Plan.source = "relstore"; collection = "Employee"; binding = "e" },
         Pred.Cmp ("e.salary", Cmp.Gt, Constant.Int 5000) ))

let materialized ?count batches (v : Run.vector) =
  let count = Option.value count ~default:(int_of_float v.Run.count) in
  Physical.Pmaterialized { batches; count; first = 0.; total = 0. }

let test_check_physical () =
  let batches, v = employees_result () in
  Alcotest.(check string) "wrapper result clean" ""
    (pp_errors (Audit.check_physical (materialized batches v)));
  (* and so is every physical plan the mediator builds for the corpus *)
  let med = make_med () in
  List.iter
    (fun sql ->
      let plan, _ = Mediator.plan_query med sql in
      Alcotest.(check string) (sql ^ " physical plan clean") ""
        (pp_errors (Audit.check_physical (Mediator.to_physical med plan))))
    corpus

let test_materialized_count () =
  let batches, v = employees_result () in
  let bad = materialized ~count:(int_of_float v.Run.count + 1) batches v in
  Alcotest.(check bool) "wrong count detected via [materialized-count]" true
    (has_tag "materialized-count" (Audit.check_physical bad))

let test_materialized_selection () =
  let batches, v = employees_result () in
  let corrupt i (b : Batch.t) =
    if i > 0 then b else { b with Batch.sel = Some (Array.make b.Batch.len 1_000_000) }
  in
  let bad = materialized (List.mapi corrupt batches) v in
  Alcotest.(check bool) "selection index out of range detected via [selection-vector]"
    true
    (has_tag "selection-vector" (Audit.check_physical bad))

let qcheck = List.map QCheck_alcotest.to_alcotest
    [ prop_optimizer_verifies; prop_bounds_sound ]

let () =
  Alcotest.run "verify"
    [ ("soundness",
       [ Alcotest.test_case "shipped corpus verifies clean" `Quick
           test_verify_clean_corpus;
         Alcotest.test_case "run_query ~verify gate" `Quick
           test_run_query_verify ]);
      ("mutations",
       [ Alcotest.test_case "dangling source" `Quick test_dangling_source;
         Alcotest.test_case "swapped join key" `Quick test_swapped_join_key;
         Alcotest.test_case "dropped attribute" `Quick test_dropped_attribute;
         Alcotest.test_case "negative cost" `Quick test_negative_cost;
         Alcotest.test_case "materialized wrong count" `Quick test_materialized_count;
         Alcotest.test_case "materialized bad selection" `Quick
           test_materialized_selection ]);
      ("engine",
       [ Alcotest.test_case "batch preconditions" `Quick test_check_batch;
         Alcotest.test_case "physical invariants" `Quick test_check_physical ]);
      ("properties", qcheck) ]
