(* Tests for lib/mediator: SQL resolution, optimizer enumeration and DP,
   end-to-end execution correctness against naive reference evaluation,
   pruning statistics, history integration. *)

open Disco_common
open Disco_algebra
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_mediator

let fed () =
  let med = Mediator.create () in
  let wrappers = Demo.make ~sizes:Demo.small_sizes () in
  List.iter (Mediator.register med) wrappers;
  (med, wrappers)

let table_of wrappers source name =
  let w = List.find (fun w -> w.Wrapper.name = source) wrappers in
  Wrapper.find_table w name

(* Naive reference: all rows of a collection as qualified tuples. *)
let rows_of wrappers source name binding =
  let t = table_of wrappers source name in
  let attrs =
    Array.of_list
      (List.map
         (fun (a : Disco_catalog.Schema.attribute) ->
           binding ^ "." ^ a.Disco_catalog.Schema.attr_name)
         t.Table.schema.Disco_catalog.Schema.attributes)
  in
  List.map (Tuple.make attrs) (Table.rows t)

let ids rows attr =
  List.sort compare (List.map (fun t -> Constant.to_string (Tuple.get t attr)) rows)

(* --- End-to-end correctness -------------------------------------------------------- *)

let test_single_source_select () =
  let med, wrappers = fed () in
  let a = Mediator.run_query med "select e.id from Employee e where e.salary > 25000" in
  let expected =
    List.filter
      (fun t -> Pred.eval (Tuple.get t) (Pred.Cmp ("e.salary", Pred.Gt, Constant.Int 25000)))
      (rows_of wrappers "relstore" "Employee" "e")
  in
  Alcotest.(check (list string)) "same ids" (ids expected "e.id") (ids a.Mediator.rows "e.id")

let test_cross_source_join () =
  let med, wrappers = fed () in
  let a =
    Mediator.run_query med
      "select e.id, p.id from Employee e, Project p \
       where e.dept_id = p.dept_id and e.salary > 28000 and p.cost < 8000"
  in
  (* naive nested loop over raw rows *)
  let emps =
    List.filter
      (fun t -> Pred.eval (Tuple.get t) (Pred.Cmp ("e.salary", Pred.Gt, Constant.Int 28000)))
      (rows_of wrappers "relstore" "Employee" "e")
  in
  let projs =
    List.filter
      (fun t -> Pred.eval (Tuple.get t) (Pred.Cmp ("p.cost", Pred.Lt, Constant.Int 8000)))
      (rows_of wrappers "objstore" "Project" "p")
  in
  let expected =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun p ->
            if Constant.equal (Tuple.get e "e.dept_id") (Tuple.get p "p.dept_id") then
              Some (Tuple.concat e p)
            else None)
          projs)
      emps
  in
  Alcotest.(check int) "same cardinality" (List.length expected) (List.length a.Mediator.rows);
  Alcotest.(check bool) "join produced submits for both sources" true
    (let sources = Plan.submit_sources a.Mediator.plan in
     List.mem "relstore" sources && List.mem "objstore" sources)

let test_three_source_join () =
  let med, _ = fed () in
  let a =
    Mediator.run_query med
      "select e.id, l.rating, p.id from Employee e, Listing l, Project p \
       where l.emp_id = e.id and e.dept_id = p.dept_id \
       and e.salary > 28500 and p.cost < 6500"
  in
  (* every output row satisfies all predicates *)
  List.iter
    (fun t ->
      Alcotest.(check bool) "rating in range" true
        (match Tuple.get t "l.rating" with Constant.Int r -> r >= 1 && r <= 5 | _ -> false))
    a.Mediator.rows;
  Alcotest.(check bool) "ran" true (List.length a.Mediator.rows >= 0)

let test_aggregate_group_order () =
  let med, wrappers = fed () in
  let a =
    Mediator.run_query med
      "select e.dept_id, count(*) as n from Employee e group by e.dept_id order by n desc limit 5"
  in
  Alcotest.(check int) "limit applied" 5 (List.length a.Mediator.rows);
  let all =
    Mediator.run_query med
      "select e.dept_id, count(*) as n from Employee e group by e.dept_id order by n desc"
  in
  Alcotest.(check bool) "the first 5 rows of the unlimited answer" true
    (List.equal Tuple.equal a.Mediator.rows (List.filteri (fun i _ -> i < 5) all.Mediator.rows));
  Alcotest.(check (float 0.)) "measured over every row, limit or not"
    all.Mediator.measured.Run.count a.Mediator.measured.Run.count;
  (* counts descending *)
  let counts =
    List.map (fun t -> match Tuple.get t "n" with Constant.Int n -> n | _ -> -1) a.Mediator.rows
  in
  let rec desc = function a :: b :: r -> a >= b && desc (b :: r) | _ -> true in
  Alcotest.(check bool) "descending" true (desc counts);
  (* total over all groups = employee count *)
  let a2 = Mediator.run_query med "select count(*) as n from Employee e" in
  (match (List.hd a2.Mediator.rows).Tuple.values with
   | [| Constant.Int n |] ->
     Alcotest.(check int) "count(*)" (Table.count (table_of wrappers "relstore" "Employee")) n
   | _ -> Alcotest.fail "count shape")

(* LIMIT n boxes n rows: over the default demo's 8,000-row Employee scan,
   [Run.measure ~limit:5] allocates for 5 rows, not 8,000, and measures the
   whole result all the same. *)
let test_limit_boxes_only_kept_rows () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.make ());
  let plan, _ = Mediator.plan_query med "select e.id, e.salary from Employee e" in
  let phys = Mediator.to_physical med plan in
  let env = Mediator.mediator_run_env med in
  let all, v_all = Run.measure env phys in
  Alcotest.(check int) "8,000 employees" 8000 (List.length all);
  let words () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.minor_words
  in
  let before = words () in
  let rows, v = Sys.opaque_identity (Run.measure ~limit:5 env phys) in
  let used = words () -. before in
  Alcotest.(check bool) "the first 5 rows" true
    (List.equal Tuple.equal rows (List.filteri (fun i _ -> i < 5) all));
  Alcotest.(check (float 0.)) "count of the whole result" v_all.Run.count v.Run.count;
  Alcotest.(check (float 0.)) "size of the whole result" v_all.Run.size v.Run.size;
  if used > 2_000. then Alcotest.failf "%.0f minor words to run and box 5 rows" used

let test_distinct_dedup () =
  let med, wrappers = fed () in
  let a = Mediator.run_query med "select distinct d.city from Department d" in
  let expected =
    List.sort_uniq compare
      (List.map
         (fun t -> Constant.to_string (Tuple.get t "d.city"))
         (rows_of wrappers "relstore" "Department" "d"))
  in
  Alcotest.(check int) "distinct cities" (List.length expected) (List.length a.Mediator.rows)

let test_star_and_order () =
  let med, wrappers = fed () in
  let a = Mediator.run_query med "select * from Department d order by d.id" in
  Alcotest.(check int) "all rows"
    (Table.count (table_of wrappers "relstore" "Department"))
    (List.length a.Mediator.rows);
  Alcotest.(check int) "all attrs" 3 (Tuple.arity (List.hd a.Mediator.rows));
  (match List.map (fun t -> Tuple.get t "d.id") a.Mediator.rows with
   | first :: _ -> Alcotest.(check bool) "sorted" true (Constant.equal first (Constant.Int 1))
   | [] -> Alcotest.fail "empty")

let test_resolution_errors () =
  let med, _ = fed () in
  let raises f =
    try
      ignore (f ());
      false
    with Err.Plan_error _ | Err.Unknown_collection _ | Err.Unknown_attribute _ -> true
  in
  Alcotest.(check bool) "unknown collection" true
    (raises (fun () -> Mediator.run_query med "select * from Nothing n"));
  Alcotest.(check bool) "unknown attribute" true
    (raises (fun () -> Mediator.run_query med "select e.wages from Employee e"));
  Alcotest.(check bool) "ambiguous bare attr" true
    (raises (fun () -> Mediator.run_query med "select id from Employee e, Department d"));
  Alcotest.(check bool) "duplicate alias" true
    (raises (fun () -> Mediator.run_query med "select * from Employee x, Department x"));
  Alcotest.(check bool) "non-grouped column" true
    (raises (fun () ->
         Mediator.run_query med "select e.name, count(*) from Employee e group by e.dept_id"))

let test_bare_attribute_resolution () =
  let med, _ = fed () in
  (* salary exists only in Employee: bare reference resolves *)
  let a = Mediator.run_query med "select name from Employee e where salary > 28000" in
  Alcotest.(check bool) "resolved" true (List.length a.Mediator.rows > 0)

let test_explain_mentions_scopes () =
  let med, _ = fed () in
  let s = Mediator.explain med "select p.id from Project p where p.id < 20" in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions submit" true (contains "submit");
  Alcotest.(check bool) "mentions a wrapper scope" true
    (contains "wrapper" || contains "collection")

(* --- Optimizer ------------------------------------------------------------------------ *)

let spec_of med sql =
  let q = Disco_sql.Sql.parse sql in
  (Mediator.resolve med q).Mediator.spec

let test_enumerate_counts () =
  let med, _ = fed () in
  (* single relation: one plan *)
  let s1 = spec_of med "select e.id from Employee e" in
  Alcotest.(check int) "single" 1 (List.length (Optimizer.enumerate s1));
  (* two relations, same source: wrapper-side and mediator-side joins x2 orders *)
  let s2 =
    spec_of med "select e.id from Employee e, Department d where e.dept_id = d.id"
  in
  let plans2 = Optimizer.enumerate s2 in
  Alcotest.(check bool) "several placements" true (List.length plans2 >= 2);
  (* all enumerated plans are complete (mention both submits or a single
     submit containing both scans) *)
  List.iter
    (fun p ->
      Alcotest.(check int) "two scans" 2 (List.length (Plan.scans p)))
    plans2;
  let s3 =
    spec_of med
      "select e.id from Employee e, Department d, Project p \
       where e.dept_id = d.id and d.id = p.dept_id"
  in
  Alcotest.(check bool) "three-way has many plans" true
    (List.length (Optimizer.enumerate s3) > 4)

let test_choose_picks_min () =
  let med, _ = fed () in
  let s =
    spec_of med "select e.id from Employee e, Department d where e.dept_id = d.id"
  in
  let plans = Optimizer.enumerate s in
  let registry = Mediator.registry med in
  let stats = Optimizer.new_stats () in
  let best = Option.get (Optimizer.choose ~prune:false registry ~stats plans) in
  (* chosen cost is the minimum over all plans *)
  List.iter
    (fun p ->
      let c = Option.get (Optimizer.cost_of registry (Optimizer.new_stats ()) p) in
      Alcotest.(check bool) "minimal" true (snd best <= c +. 1e-6))
    plans

let test_dp_matches_exhaustive () =
  let med, _ = fed () in
  let s =
    spec_of med
      "select e.id from Employee e, Department d, Project p \
       where e.dept_id = d.id and d.id = p.dept_id"
  in
  let registry = Mediator.registry med in
  let _, dp_cost = Optimizer.optimize registry s in
  let best =
    Option.get (Optimizer.choose ~prune:false registry (Optimizer.enumerate s))
  in
  (* DP may differ slightly due to local pruning, but must not be worse *)
  Alcotest.(check bool) "dp within 1% of exhaustive best" true
    (dp_cost <= snd best *. 1.01)

let test_pruning_reduces_work () =
  let med, _ = fed () in
  let s =
    spec_of med
      "select e.id from Employee e, Department d, Project p, Task t \
       where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id"
  in
  let registry = Mediator.registry med in
  let plans = Optimizer.enumerate s in
  let with_prune = Optimizer.new_stats () in
  let without = Optimizer.new_stats () in
  let b1 = Option.get (Optimizer.choose ~prune:true registry ~stats:with_prune plans) in
  let b2 = Option.get (Optimizer.choose ~prune:false registry ~stats:without plans) in
  Alcotest.(check (float 1e-6)) "same best cost" (snd b2) (snd b1);
  Alcotest.(check bool) "pruning aborted some plans" true (with_prune.Optimizer.plans_aborted > 0);
  Alcotest.(check bool) "pruning saved evaluations" true
    (with_prune.Optimizer.formula_evals < without.Optimizer.formula_evals)

let test_first_tuple_objective () =
  let med, _ = fed () in
  let registry = Mediator.registry med in
  let q =
    "select t.id, p.kind from Task t, Project p \
     where t.project_id = p.id and t.hours > 380"
  in
  let est plan v =
    Option.get
      (Estimator.var (Estimator.estimate ~require_vars:[ v ] registry plan) v)
  in
  let plan_total, _ = Mediator.plan_query med q in
  let plan_first, _ = Mediator.plan_query ~objective:Optimizer.First_tuple med q in
  (* each plan is at least as good as the other under its own objective *)
  Alcotest.(check bool) "first-tuple plan wins on TimeFirst" true
    (est plan_first Disco_costlang.Ast.Time_first
     <= est plan_total Disco_costlang.Ast.Time_first +. 1e-6);
  Alcotest.(check bool) "total-time plan wins on TotalTime" true
    (est plan_total Disco_costlang.Ast.Total_time
     <= est plan_first Disco_costlang.Ast.Total_time +. 1e-6);
  (* choose under First_tuple returns the argmin over TimeFirst *)
  let spec = spec_of med q in
  let plans = Optimizer.enumerate spec in
  let best =
    Option.get (Optimizer.choose ~prune:false ~objective:Optimizer.First_tuple registry plans)
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "minimal TimeFirst" true
        (snd best <= est p Disco_costlang.Ast.Time_first +. 1e-6))
    plans

let test_disconnected_join_rejected () =
  let med, _ = fed () in
  let s = spec_of med "select e.id from Employee e, Project p" in
  Alcotest.(check bool) "no cross products" true
    (try
       ignore (Optimizer.optimize (Mediator.registry med) s);
       false
     with Err.Plan_error _ -> true)

(* --- History integration ---------------------------------------------------------------- *)

let test_history_improves_repeat_estimates () =
  let med = Mediator.create ~history_mode:History.Exact () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  let q = "select d.id from Department d where d.budget > 100000" in
  let a1 = Mediator.run_query med q in
  (* after execution, the query-scope rule records the measured cost of the
     wrapper subquery; re-estimating the same plan must reproduce it
     (communication aside, compare the submitted subplan) *)
  let sub =
    match Plan.submit_sources a1.Mediator.plan with
    | _ :: _ ->
      let rec find = function
        | Plan.Submit (_, s) -> Some s
        | p -> List.fold_left (fun acc c -> match acc with Some _ -> acc | None -> find c)
                 None (Plan.children p)
      in
      Option.get (find a1.Mediator.plan)
    | [] -> Alcotest.fail "no submit"
  in
  let registry = Mediator.registry med in
  let ann = Estimator.estimate ~source:"relstore" registry sub in
  let recorded =
    List.find_map
      (fun r ->
        if Plan.equal r.History.plan sub then
          List.assoc_opt Disco_costlang.Ast.Total_time r.History.measured
        else None)
      (History.records (Mediator.history med))
  in
  Alcotest.(check (float 0.5)) "estimate = measured after history"
    (Option.get recorded) (Estimator.total_time ann)

let test_history_adjust_converges () =
  let med = Mediator.create ~history_mode:(History.Adjust { smoothing = 0.5 }) () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  let q = "select doc.doc_id from Document doc where doc.bytes > 50000" in
  (* the files source has no rules; the generic model misestimates it, and
     the adjustment factor should drift toward the real ratio *)
  for _ = 1 to 5 do
    ignore (Mediator.run_query med q)
  done;
  let f = Registry.adjust (Mediator.registry med) ~source:"files" in
  Alcotest.(check bool) "factor moved away from 1" true (Float.abs (f -. 1.) > 0.05)

let test_analyze () =
  let med, _ = fed () in
  let s =
    Mediator.analyze med
      "select e.id from Employee e, Project p \
       where e.dept_id = p.dept_id and e.salary > 28000"
  in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-subquery lines" true (contains "per wrapper subquery");
  Alcotest.(check bool) "mentions both sources" true
    (contains "relstore" && contains "objstore");
  Alcotest.(check bool) "overall line" true (contains "overall: estimated")

(* --- Capabilities (paper §2.1) --------------------------------------------------------------- *)

let test_capabilities_scan_only_source () =
  (* the web source declares [capabilities scan;]: selections on Listing must
     be executed by the mediator, above the submit *)
  let med, wrappers = fed () in
  Alcotest.(check bool) "web cannot select" false
    (Disco_catalog.Catalog.capable (Mediator.catalog med) ~source:"web" "select");
  Alcotest.(check bool) "relstore can select" true
    (Disco_catalog.Catalog.capable (Mediator.catalog med) ~source:"relstore" "select");
  let q = "select l.id from Listing l where l.rating = 5" in
  let plan, _ = Mediator.plan_query med q in
  (* no select below the submit *)
  let rec select_below_submit inside = function
    | Plan.Submit (_, sub) -> select_below_submit true sub
    | Plan.Select _ when inside -> true
    | p -> List.exists (select_below_submit inside) (Plan.children p)
  in
  Alcotest.(check bool) "select stays at the mediator" false
    (select_below_submit false plan);
  (* the answer is still correct *)
  let a = Mediator.run_query med q in
  let expected =
    List.filter
      (fun t -> Pred.eval (Tuple.get t) (Pred.Cmp ("l.rating", Pred.Eq, Constant.Int 5)))
      (rows_of wrappers "web" "Listing" "l")
  in
  Alcotest.(check (list string)) "rows match naive" (ids expected "l.id")
    (ids a.Mediator.rows "l.id")

let test_capabilities_join () =
  (* a source without the join capability never hosts a wrapper-side join *)
  let med, _ = fed () in
  let q =
    "select e.id from Employee e, Department d where e.dept_id = d.id and e.age < 25"
  in
  let r = Mediator.resolve med (Disco_sql.Sql.parse q) in
  Alcotest.(check bool) "relstore can join" true (r.Mediator.spec.Optimizer.can_join "relstore");
  let wrapper_side_joins =
    List.filter
      (fun p ->
        Plan.fold
          (fun acc n ->
            acc
            ||
            match n with
            | Plan.Submit (_, sub) ->
              Plan.fold
                (fun acc n -> acc || match n with Plan.Join _ -> true | _ -> false)
                false sub
            | _ -> false)
          false p)
      (Optimizer.enumerate r.Mediator.spec)
  in
  Alcotest.(check bool) "wrapper-side joins exist for capable sources" true
    (wrapper_side_joins <> []);
  (* now deny the capability and re-enumerate *)
  Disco_catalog.Catalog.set_capabilities (Mediator.catalog med) ~source:"relstore"
    [ "scan"; "select"; "project" ];
  let r2 = Mediator.resolve med (Disco_sql.Sql.parse q) in
  let wrapper_side_joins2 =
    List.filter
      (fun p ->
        Plan.fold
          (fun acc n ->
            acc
            ||
            match n with
            | Plan.Submit (_, sub) ->
              Plan.fold
                (fun acc n -> acc || match n with Plan.Join _ -> true | _ -> false)
                false sub
            | _ -> false)
          false p)
      (Optimizer.enumerate r2.Mediator.spec)
  in
  Alcotest.(check (list string)) "no wrapper-side joins without the capability" []
    (List.map Plan.to_string wrapper_side_joins2)

(* --- ADT operations (paper §7) -------------------------------------------------------------- *)

let adt_query =
  (* a wider Project filter than the bench uses: the small test federation
     needs it to produce a non-empty answer *)
  "select d.doc_id from Project p, Document d \
   where p.cost < 20000 and d.project_id = p.id and lang_match(d.lang, \"en\")"

let test_adt_push_and_defer_agree () =
  (* both placements of the expensive predicate produce the same answer *)
  let med, _ = fed () in
  let q = Disco_sql.Sql.parse adt_query in
  let r = Mediator.resolve med q in
  let vs = Mediator.variants r in
  Alcotest.(check int) "two variants" 2 (List.length vs);
  let results =
    List.map
      (fun v ->
        let plan = Mediator.plan_of_variant med v in
        let physical = Mediator.to_physical med plan in
        let rows, _ = Disco_exec.Run.measure (Mediator.mediator_run_env med) physical in
        List.sort compare
          (List.map (fun t -> Constant.to_string (Tuple.get t "d.doc_id")) rows))
      vs
  in
  (match results with
   | [ a; b ] ->
     Alcotest.(check (list string)) "same rows" a b;
     Alcotest.(check bool) "non-trivial result" true (List.length a > 0)
   | _ -> Alcotest.fail "expected two variants")

let test_adt_defer_chosen_with_costs () =
  (* with the exported AdtCost, the optimizer defers past the reducing join *)
  let med, _ = fed () in
  let plan, _ = Mediator.plan_query med adt_query in
  let rec pushed_inside = function
    | Plan.Submit (_, sub) ->
      Plan.fold
        (fun acc n ->
          acc || match n with Plan.Select (_, p) -> Pred.has_apply p | _ -> false)
        false sub
    | p -> List.exists pushed_inside (Plan.children p)
  in
  Alcotest.(check bool) "not pushed into a wrapper" false (pushed_inside plan);
  (* the deferred predicate still filters: every surviving document is "en"
     (checked against the base data) *)
  let a = Mediator.run_query med adt_query in
  let _, wrappers = fed () in
  let docs = rows_of wrappers "files" "Document" "d" in
  List.iter
    (fun t ->
      let id = Tuple.get t "d.doc_id" in
      let doc = List.find (fun d -> Constant.equal (Tuple.get d "d.doc_id") id) docs in
      Alcotest.(check bool) "lang is en" true
        (Constant.equal (Tuple.get doc "d.lang") (Constant.String "en")))
    a.Mediator.rows;
  Alcotest.(check bool) "answer non-empty" true (a.Mediator.rows <> [])

(* --- Answer consistency -------------------------------------------------------------------- *)

let test_measured_vector_consistent () =
  let med, _ = fed () in
  let a = Mediator.run_query med "select e.id from Employee e where e.salary > 20000" in
  Alcotest.(check (float 0.)) "count = rows"
    (float_of_int (List.length a.Mediator.rows))
    a.Mediator.measured.Run.count;
  Alcotest.(check bool) "total >= first" true
    (a.Mediator.measured.Run.total_time >= a.Mediator.measured.Run.time_first)

let () =
  Alcotest.run "mediator"
    [ ( "end-to-end",
        [ Alcotest.test_case "single-source select" `Quick test_single_source_select;
          Alcotest.test_case "cross-source join" `Quick test_cross_source_join;
          Alcotest.test_case "three-source join" `Quick test_three_source_join;
          Alcotest.test_case "aggregate/group/order/limit" `Quick test_aggregate_group_order;
          Alcotest.test_case "limit boxes only kept rows" `Quick test_limit_boxes_only_kept_rows;
          Alcotest.test_case "distinct" `Quick test_distinct_dedup;
          Alcotest.test_case "star and order" `Quick test_star_and_order;
          Alcotest.test_case "resolution errors" `Quick test_resolution_errors;
          Alcotest.test_case "bare attribute resolution" `Quick test_bare_attribute_resolution;
          Alcotest.test_case "explain" `Quick test_explain_mentions_scopes;
          Alcotest.test_case "measured vector" `Quick test_measured_vector_consistent;
          Alcotest.test_case "analyze" `Quick test_analyze ] );
      ( "optimizer",
        [ Alcotest.test_case "enumerate counts" `Quick test_enumerate_counts;
          Alcotest.test_case "choose picks min" `Quick test_choose_picks_min;
          Alcotest.test_case "dp close to exhaustive" `Quick test_dp_matches_exhaustive;
          Alcotest.test_case "pruning reduces work" `Quick test_pruning_reduces_work;
          Alcotest.test_case "first-tuple objective" `Quick test_first_tuple_objective;
          Alcotest.test_case "disconnected join rejected" `Quick test_disconnected_join_rejected ] );
      ( "history",
        [ Alcotest.test_case "exact records repeat" `Quick test_history_improves_repeat_estimates;
          Alcotest.test_case "adjust converges" `Quick test_history_adjust_converges ] );
      ( "capabilities",
        [ Alcotest.test_case "scan-only source" `Quick test_capabilities_scan_only_source;
          Alcotest.test_case "join capability" `Quick test_capabilities_join ] );
      ( "adt",
        [ Alcotest.test_case "push and defer agree" `Quick test_adt_push_and_defer_agree;
          Alcotest.test_case "defer chosen with costs" `Quick test_adt_defer_chosen_with_costs ] ) ]
