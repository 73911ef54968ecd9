(* Tests for lib/core: the scope hierarchy, rule matching and specificity,
   the blended registry, the generic model, the cost-evaluation algorithm and
   its dynamic extensions. *)

open Disco_common
open Disco_algebra
open Disco_costlang
open Disco_core

(* --- Fixtures ---------------------------------------------------------------- *)

let emp = { Plan.source = "src"; collection = "Employee"; binding = "e" }
let mgr = { Plan.source = "src"; collection = "Manager"; binding = "m" }

let base_registry ?(extra = "") () =
  let catalog = Disco_catalog.Catalog.create () in
  let registry = Registry.create catalog in
  Generic.register registry;
  let text =
    Fmt.str
      {|
      source src {
        interface Employee {
          attribute long id;
          attribute long salary;
          attribute long dept_id;
          attribute string name;
          cardinality extent(10000, 1200000, 120);
          cardinality attribute(id, true, 10000, 1, 10000);
          cardinality attribute(salary, true, 100, 1000, 30000);
          cardinality attribute(dept_id, false, 50, 1, 50);
          cardinality attribute(name, false, 9000, "Adiba", "Valduriez");
        }
        interface Manager {
          attribute long id;
          attribute long emp_id;
          cardinality extent(500, 20000, 40);
          cardinality attribute(id, true, 500, 1, 500);
          cardinality attribute(emp_id, false, 500, 1, 10000);
        }
        %s
      }
      |}
      extra
  in
  ignore (Registry.register_text registry ~what:"src" text);
  registry

let scan_emp = Plan.Scan emp
let sel_salary v = Plan.Select (scan_emp, Pred.Cmp ("e.salary", Pred.Eq, Constant.Int v))

let est ?source registry plan = Estimator.estimate ?source registry plan

let total ?source registry plan = Estimator.total_time (est ?source registry plan)

let var_of ?source registry plan v =
  Option.get (Estimator.var (est ?source registry plan) v)

(* --- Scope ------------------------------------------------------------------- *)

let test_scope_order () =
  let open Scope in
  Alcotest.(check bool) "default lowest" true
    (List.for_all (fun s -> compare Default s <= 0) all);
  Alcotest.(check bool) "query highest" true
    (List.for_all (fun s -> compare Query s >= 0) all);
  Alcotest.(check bool) "wrapper < collection" true (compare Wrapper Collection < 0);
  Alcotest.(check bool) "collection < predicate" true (compare Collection Predicate < 0);
  Alcotest.(check bool) "local between default and wrapper" true
    (compare Default Local < 0 && compare Local Wrapper < 0)

let parse_head s =
  (Parser.parse_rule ~what:"head" (Fmt.str "rule %s { TotalTime = 1; }" s)).Ast.head

let test_classify () =
  let cls ?interface_of ?(local = false) s =
    Rule.classify ?interface_of ~local (parse_head s)
  in
  Alcotest.(check string) "wrapper" "wrapper"
    (Scope.to_string (cls "select(C, P)"));
  Alcotest.(check string) "collection by name" "collection"
    (Scope.to_string (cls "select(Employee, P)"));
  Alcotest.(check string) "collection by interface" "collection"
    (Scope.to_string (cls ~interface_of:"Employee" "select(C, P)"));
  Alcotest.(check string) "predicate" "predicate"
    (Scope.to_string (cls "select(Employee, salary = 77)"));
  Alcotest.(check string) "pred needs collection" "wrapper"
    (Scope.to_string (cls "select(C, salary = 77)"));
  Alcotest.(check string) "local" "local" (Scope.to_string (cls ~local:true "join(C1, C2, P)"))

(* --- Specificity (the matching order of paper §4.2) --------------------------- *)

let test_specificity_paper_order () =
  (* select(R, P) < select(Employee, P) < select(Employee, salary = A)
     < select(Employee, salary = 77); join(R1, R2, P) < join(Employee, Book, P)
     < join(Employee, Book, x1.id = x2.id) *)
  let spec s = Rule.specificity_of_head (parse_head s) in
  let ordered =
    [ "select(R, P)";
      "select(Employee, P)";
      "select(Employee, salary = A)";
      "select(Employee, salary = 77)" ]
  in
  let rec check_increasing = function
    | a :: b :: rest ->
      Alcotest.(check bool) (a ^ " < " ^ b) true (compare (spec a) (spec b) < 0);
      check_increasing (b :: rest)
    | _ -> ()
  in
  check_increasing ordered;
  check_increasing
    [ "join(R1, R2, P)"; "join(Employee, Book, P)"; "join(Employee, Book, x1.id = x2.id)" ];
  (* equal specificity ties *)
  Alcotest.(check bool) "same heads tie" true
    (compare (spec "select(Employee, salary = A)") (spec "select(Employee, salary = A)") = 0)

(* --- Matching ------------------------------------------------------------------ *)

let test_match_scan () =
  (match Rule.match_head (parse_head "scan(C)") scan_emp with
   | Some [ ("C", Rule.Boperand (Rule.Base r)) ] ->
     Alcotest.(check string) "bound collection" "Employee" r.Plan.collection
   | _ -> Alcotest.fail "scan(C) should bind C");
  Alcotest.(check bool) "literal match" true
    (Rule.match_head (parse_head "scan(Employee)") scan_emp <> None);
  Alcotest.(check bool) "literal mismatch" true
    (Rule.match_head (parse_head "scan(Manager)") scan_emp = None)

let test_match_select () =
  let node = sel_salary 77 in
  (match Rule.match_head (parse_head "select(C, A = V)") node with
   | Some bs ->
     Alcotest.(check bool) "A bound" true (List.assoc "A" bs = Rule.Battr "salary");
     Alcotest.(check bool) "V bound" true (List.assoc "V" bs = Rule.Bconst (Constant.Int 77))
   | None -> Alcotest.fail "should match");
  (* literal attribute and constant *)
  Alcotest.(check bool) "salary = 77" true
    (Rule.match_head (parse_head "select(Employee, salary = 77)") node <> None);
  Alcotest.(check bool) "salary = 78 mismatch" true
    (Rule.match_head (parse_head "select(Employee, salary = 78)") node = None);
  Alcotest.(check bool) "wrong operator" true
    (Rule.match_head (parse_head "select(C, A < V)") node = None);
  (* predicate variable matches any predicate *)
  let compound =
    Plan.Select
      ( scan_emp,
        Pred.And
          ( Pred.Cmp ("e.salary", Pred.Gt, Constant.Int 1),
            Pred.Cmp ("e.id", Pred.Lt, Constant.Int 5) ) )
  in
  Alcotest.(check bool) "P matches compound" true
    (Rule.match_head (parse_head "select(C, P)") compound <> None);
  Alcotest.(check bool) "A = V rejects compound" true
    (Rule.match_head (parse_head "select(C, A = V)") compound = None)

let test_match_through_operators () =
  (* a collection-literal head matches operations on that collection through
     selects/projects (the subject relation) *)
  let node = Plan.Select (Plan.Project (sel_salary 1, [ "e.id" ]), Pred.True) in
  Alcotest.(check bool) "subject through project/select" true
    (Rule.match_head (parse_head "select(Employee, P)") node <> None)

let test_match_join () =
  let join =
    Plan.Join (scan_emp, Plan.Scan mgr, Pred.Attr_cmp ("e.id", Pred.Eq, "m.emp_id"))
  in
  (match Rule.match_head (parse_head "join(C1, C2, A = B)") join with
   | Some bs ->
     Alcotest.(check bool) "A" true (List.assoc "A" bs = Rule.Battr "id");
     Alcotest.(check bool) "B" true (List.assoc "B" bs = Rule.Battr "emp_id")
   | None -> Alcotest.fail "join should match");
  Alcotest.(check bool) "literal collections" true
    (Rule.match_head (parse_head "join(Employee, Manager, P)") join <> None);
  Alcotest.(check bool) "swapped literals reject" true
    (Rule.match_head (parse_head "join(Manager, Employee, P)") join = None);
  (* dotted literal attrs match on the unqualified part *)
  Alcotest.(check bool) "dotted attrs" true
    (Rule.match_head (parse_head "join(C1, C2, x1.id = x2.emp_id)") join <> None)

let test_match_submit () =
  let node = Plan.Submit ("src", scan_emp) in
  (match Rule.match_head (parse_head "submit(W, C)") node with
   | Some bs -> Alcotest.(check bool) "W" true (List.assoc "W" bs = Rule.Bname "src")
   | None -> Alcotest.fail "submit should match");
  Alcotest.(check bool) "literal source" true
    (Rule.match_head (parse_head "submit(src, C)") node <> None);
  Alcotest.(check bool) "wrong source" true
    (Rule.match_head (parse_head "submit(other, C)") node = None)

let test_match_same_var_twice () =
  (* join(C, C, P): same variable must unify to the same operand -> cannot
     match a join of two different children *)
  let join = Plan.Join (scan_emp, Plan.Scan mgr, Pred.True) in
  Alcotest.(check bool) "nonlinear pattern rejects" true
    (Rule.match_head (parse_head "join(C, C, P)") join = None)

(* --- Generic model completeness --------------------------------------------------- *)

let test_generic_complete () =
  let registry = base_registry () in
  let plans =
    [ scan_emp;
      sel_salary 5;
      Plan.Project (scan_emp, [ "e.id" ]);
      Plan.Sort (scan_emp, [ ("e.id", Plan.Asc) ]);
      Plan.Join (scan_emp, Plan.Scan mgr, Pred.Attr_cmp ("e.id", Pred.Eq, "m.emp_id"));
      Plan.Union (scan_emp, scan_emp);
      Plan.Dedup scan_emp;
      Plan.Aggregate
        (scan_emp, { Plan.group_by = [ "e.dept_id" ]; aggs = [ (Plan.Count, "", "n") ] });
      Plan.Submit ("src", scan_emp) ]
  in
  List.iter
    (fun p ->
      let ann = est ~source:"src" registry p in
      List.iter
        (fun v ->
          match Estimator.var ann v with
          | Some x ->
            Alcotest.(check bool)
              (Fmt.str "%s of %a finite" (Ast.cost_var_name v) Plan.pp p)
              true
              (Float.is_finite x && x >= 0.)
          | None -> Alcotest.failf "missing %s for %a" (Ast.cost_var_name v) Plan.pp p)
        Ast.all_cost_vars)
    plans

let test_generic_cardinalities () =
  let registry = base_registry () in
  (* scan returns the extent cardinality *)
  Alcotest.(check (float 0.)) "scan count" 10000.
    (var_of ~source:"src" registry scan_emp Ast.Count_object);
  (* equality selection on salary: 10000 / CountDistinct(100) = 100 *)
  Alcotest.(check (float 1.)) "eq select count" 100.
    (var_of ~source:"src" registry (sel_salary 1500) Ast.Count_object);
  (* join cardinality via 1/max(distinct): emp.id distinct 10000,
     mgr.emp_id distinct 500 -> 10000 * 500 / 10000 = 500 (see the note in
     Selest about deviating from the paper's 1/min) *)
  let join =
    Plan.Join (scan_emp, Plan.Scan mgr, Pred.Attr_cmp ("e.id", Pred.Eq, "m.emp_id"))
  in
  Alcotest.(check (float 1.)) "join count (1/max rule)" 500.
    (var_of ~source:"src" registry join Ast.Count_object)

let test_generic_index_beats_seq_when_selective () =
  let registry = base_registry () in
  (* salary is indexed with 100 distinct values: equality is selective, the
     index strategy should win and skip the scan cost *)
  let sel = sel_salary 1500 in
  let ann = est ~source:"src" registry sel in
  let t_sel = Estimator.total_time ann in
  let t_scan = total ~source:"src" registry scan_emp in
  Alcotest.(check bool) "select cheaper than full scan" true (t_sel < t_scan);
  (* an unindexed attribute cannot use the index strategy *)
  let sel_dept = Plan.Select (scan_emp, Pred.Cmp ("e.dept_id", Pred.Eq, Constant.Int 3)) in
  let t_dept = total ~source:"src" registry sel_dept in
  Alcotest.(check bool) "unindexed select pays the scan" true (t_dept > t_scan)

(* --- Blending: overriding and fallback ---------------------------------------------- *)

let test_wrapper_rule_overrides () =
  let registry =
    base_registry ~extra:"rule scan(C) { TotalTime = 999; }" ()
  in
  Alcotest.(check (float 0.)) "wrapper total" 999. (total ~source:"src" registry scan_emp);
  (* other variables still come from the default model *)
  Alcotest.(check (float 0.)) "default count" 10000.
    (var_of ~source:"src" registry scan_emp Ast.Count_object);
  (* provenance records the scopes *)
  let ann = est ~source:"src" registry scan_emp in
  let p v = (Option.get (Estimator.provenance ann v)).Estimator.rule_scope in
  Alcotest.(check string) "total from wrapper" "wrapper" (Scope.to_string (p Ast.Total_time));
  Alcotest.(check string) "count from default" "default"
    (Scope.to_string (p Ast.Count_object))

let test_collection_beats_wrapper () =
  let registry =
    base_registry
      ~extra:
        {| rule scan(C) { TotalTime = 111; }
           rule scan(Employee) { TotalTime = 222; } |}
      ()
  in
  Alcotest.(check (float 0.)) "collection wins on Employee" 222.
    (total ~source:"src" registry scan_emp);
  Alcotest.(check (float 0.)) "wrapper on Manager" 111.
    (total ~source:"src" registry (Plan.Scan mgr))

let test_predicate_beats_collection () =
  let registry =
    base_registry
      ~extra:
        {| rule select(Employee, P) { TotalTime = 111; }
           rule select(Employee, salary = 77) { TotalTime = 222; } |}
      ()
  in
  Alcotest.(check (float 0.)) "predicate scope" 222.
    (total ~source:"src" registry (sel_salary 77));
  Alcotest.(check (float 0.)) "collection scope" 111.
    (total ~source:"src" registry (sel_salary 78))

let test_min_combining_same_level () =
  (* two rules at the same level: all evaluated, lowest wins (§4.2 step 3) *)
  let registry =
    base_registry
      ~extra:
        {| rule scan(C) { TotalTime = 500; }
           rule scan(C) { TotalTime = 300; } |}
      ()
  in
  Alcotest.(check (float 0.)) "min" 300. (total ~source:"src" registry scan_emp)

let test_min_combining_prefers_finite_over_nan () =
  (* regression: the fold compared with [<], under which NaN is never less
     and never greater — a NaN first candidate (here ln(0) * 0) used to
     survive over a later finite same-level rule. *)
  let registry =
    base_registry
      ~extra:
        {| rule scan(C) { TotalTime = ln(0) * 0; }
           rule scan(C) { TotalTime = 300; } |}
      ()
  in
  let t = total ~source:"src" registry scan_emp in
  Alcotest.(check bool) "not NaN" false (Float.is_nan t);
  Alcotest.(check (float 0.)) "finite candidate wins" 300. t

let test_first_rule_wins_tie_via_order () =
  (* min-combining makes value ties harmless; check both are evaluated by
     using the evals counter *)
  let registry =
    base_registry
      ~extra:
        {| rule scan(C) { TotalTime = 300; }
           rule scan(C) { TotalTime = 300; } |}
      ()
  in
  let evals = ref 0 in
  ignore (Estimator.estimate ~evals ~source:"src" registry scan_emp);
  Alcotest.(check bool) "both formulas evaluated" true (!evals >= 2)

let test_per_variable_fallback () =
  (* the wrapper rule provides only TotalTime; TimeFirst must fall back to a
     less specific rule without losing the TotalTime override (paper §4.2:
     "the scope hierarchy is scanned until the first less-specific rule") *)
  let registry =
    base_registry ~extra:"rule select(Employee, P) { TotalTime = 42; }" ()
  in
  let ann = est ~source:"src" registry (sel_salary 1) in
  Alcotest.(check (float 0.)) "override total" 42. (Estimator.total_time ann);
  let tf = Option.get (Estimator.var ann Ast.Time_first) in
  Alcotest.(check bool) "fallback TimeFirst computed" true (Float.is_finite tf && tf > 0.)

let test_wrapper_lets_and_defs () =
  let registry =
    base_registry
      ~extra:
        {| let Coef = 7;
           def double(x) = x * 2;
           rule scan(C) { TotalTime = double(Coef) * 10; } |}
      ()
  in
  Alcotest.(check (float 0.)) "lets and defs" 140. (total ~source:"src" registry scan_emp)

let test_lets_reference_catalog () =
  let registry =
    base_registry
      ~extra:
        {| let EmpCount = Employee.CountObject;
           rule scan(Employee) { TotalTime = EmpCount / 100; } |}
      ()
  in
  Alcotest.(check (float 0.)) "catalog let" 100. (total ~source:"src" registry scan_emp)

let test_wrapper_rules_fall_back_to_default_lets () =
  (* a wrapper rule may reference generic coefficients such as IO *)
  let registry = base_registry ~extra:"rule scan(C) { TotalTime = IO; }" () in
  Alcotest.(check (float 0.)) "default IO visible" 25. (total ~source:"src" registry scan_emp)

let test_fig13_yao_rule_evaluates () =
  let registry =
    base_registry
      ~extra:
        {| let PageSize = 4096;
           rule select(C, id = V) {
             CountPage = C.TotalSize / PageSize;
             CountObject = C.CountObject * (V - C.id.Min) / (C.id.Max - C.id.Min);
             TotalSize = CountObject * C.ObjectSize;
             TotalTime = IO * CountPage * (1 - exp(-1 * (CountObject / CountPage)))
                         + CountObject * Output;
           } |}
      ()
  in
  let node = Plan.Select (scan_emp, Pred.Cmp ("e.id", Pred.Eq, Constant.Int 5000)) in
  let ann = est ~source:"src" registry node in
  (* CountObject = 10000 * (5000-1)/(10000-1) ~ 4999.5 *)
  Alcotest.(check bool) "count near 5000" true
    (Float.abs (Option.get (Estimator.var ann Ast.Count_object) -. 5000.) < 2.);
  let t = Estimator.total_time ann in
  (* Yao saturates: pages ~ 292, all fetched: IO*292*(1-exp(-17)) + 5000*9 *)
  Alcotest.(check bool) "total in the expected band" true (t > 45000. && t < 55000.)

(* --- Interface inheritance (paper §3.1: "Support of inheritance ... is
   planned"; conclusion: "inheritance hierarchy of wrapper descriptions with
   overriding of cost formulas") ------------------------------------------- *)

let inherit_extra =
  {| interface Boss : Employee {
       attribute long bonus;
       cardinality extent(50, 6000, 120);
       cardinality attribute(bonus, false, 10, 100, 1000);
     }
     rule scan(Employee) { TotalTime = 111; }
     rule scan(Boss) { TotalTime = 222; } |}

let boss = { Plan.source = "src"; collection = "Boss"; binding = "b" }

let test_inheritance_catalog () =
  let registry = base_registry ~extra:inherit_extra () in
  let catalog = Registry.catalog registry in
  Alcotest.(check bool) "Boss is an Employee" true
    (Disco_catalog.Catalog.is_instance catalog ~source:"src" "Boss" "Employee");
  Alcotest.(check bool) "Employee is not a Boss" false
    (Disco_catalog.Catalog.is_instance catalog ~source:"src" "Employee" "Boss");
  Alcotest.(check bool) "reflexive" true
    (Disco_catalog.Catalog.is_instance catalog ~source:"src" "Boss" "Boss");
  Alcotest.(check int) "depth" 1
    (Disco_catalog.Catalog.inheritance_depth catalog ~source:"src" "Boss");
  (* the sub-interface inherits the parent's attributes *)
  let entry = Disco_catalog.Catalog.find_collection catalog ~source:"src" "Boss" in
  let names = Disco_catalog.Schema.attribute_names entry.Disco_catalog.Catalog.schema in
  Alcotest.(check bool) "inherits salary" true (List.mem "salary" names);
  Alcotest.(check bool) "own attribute" true (List.mem "bonus" names)

let test_inheritance_rule_overriding () =
  let registry = base_registry ~extra:inherit_extra () in
  (* the Boss rule overrides the Employee rule on Boss nodes... *)
  Alcotest.(check (float 0.)) "sub-interface rule wins" 222.
    (total ~source:"src" registry (Plan.Scan boss));
  (* ...while Employee nodes still use the Employee rule *)
  Alcotest.(check (float 0.)) "parent rule on parent" 111.
    (total ~source:"src" registry scan_emp);
  (* a parent rule applies to sub-interfaces when not overridden *)
  let registry2 =
    base_registry
      ~extra:
        {| interface Boss : Employee {
             cardinality extent(50, 6000, 120);
           }
           rule scan(Employee) { TotalTime = 111; } |}
      ()
  in
  Alcotest.(check (float 0.)) "inherited rule" 111.
    (total ~source:"src" registry2 (Plan.Scan boss))

let test_inheritance_undeclared_parent () =
  Alcotest.(check bool) "unknown parent raises" true
    (try
       ignore
         (base_registry
            ~extra:"interface Oops : Nothing { cardinality extent(1, 1, 1); }" ());
       false
     with Err.Eval_error _ -> true)

let test_adt_costs () =
  (* the wrapper exports the cost and selectivity of an ADT operation as
     AdtCost_/AdtSel_ parameters (paper §7) *)
  let registry =
    base_registry ~extra:"let AdtCost_heavy = 150; let AdtSel_heavy = 0.02;" ()
  in
  Alcotest.(check (option (float 0.))) "cost exported" (Some 150.)
    (Registry.adt_cost registry "heavy");
  Alcotest.(check (option (float 0.))) "selectivity exported" (Some 0.02)
    (Registry.adt_selectivity registry "heavy");
  Alcotest.(check (option (float 0.))) "unknown op" None (Registry.adt_cost registry "nope");
  let apply = Pred.Apply ("heavy", "e.name", Constant.String "x") in
  let node = Plan.Select (scan_emp, apply) in
  let with_adt = total ~source:"src" registry node in
  (* same predicate with an unexported operation: priced as a free predicate *)
  let registry2 = base_registry () in
  let without = total ~source:"src" registry2 node in
  Alcotest.(check bool) "exported cost increases the select estimate" true
    (with_adt > without +. 150. *. 9000.);
  (* exported selectivity drives the cardinality *)
  Alcotest.(check (float 1.)) "cardinality via AdtSel" (10000. *. 0.02)
    (var_of ~source:"src" registry node Ast.Count_object);
  (* default selectivity when not exported *)
  Alcotest.(check (float 1.)) "default ADT selectivity" (10000. *. Selest.default_apply)
    (var_of ~source:"src" registry2 node Ast.Count_object)

let test_reregistration_replaces_rules () =
  (* the administrative re-registration of §2.1: updated rules replace the
     old ones instead of accumulating *)
  let registry = base_registry ~extra:"rule scan(C) { TotalTime = 100; }" () in
  let n0 = Registry.rule_count registry ~source:"src" in
  Alcotest.(check (float 0.)) "initial rule" 100. (total ~source:"src" registry scan_emp);
  (* a query-scope record survives re-registration *)
  ignore
    (Registry.add_query_rule registry ~source:"src" (sel_salary 5)
       [ (Ast.Total_time, 7.) ]);
  let decl =
    Parser.parse_source ~what:"rereg"
      {| source src {
           interface Employee {
             attribute long id;
             attribute long salary;
             cardinality extent(20000, 2400000, 120);
             cardinality attribute(salary, true, 100, 1000, 30000);
           }
           rule scan(C) { TotalTime = 55; }
         } |}
  in
  ignore (Registry.register_source_decl registry decl);
  Alcotest.(check (float 0.)) "updated rule wins" 55. (total ~source:"src" registry scan_emp);
  Alcotest.(check int) "no duplicate accumulation" (n0 + 1)
    (Registry.rule_count registry ~source:"src");
  Alcotest.(check (float 0.)) "refreshed statistics" 20000.
    (var_of ~source:"src" registry scan_emp Ast.Count_object);
  Alcotest.(check (float 0.)) "history survives" 7.
    (total ~source:"src" registry (sel_salary 5))

(* --- Query scope and history ----------------------------------------------------- *)

let test_query_scope_exact () =
  let registry = base_registry () in
  let plan = sel_salary 123 in
  ignore
    (Registry.add_query_rule registry ~source:"src" plan
       [ (Ast.Total_time, 777.); (Ast.Count_object, 3.) ]);
  Alcotest.(check (float 0.)) "recorded total" 777. (total ~source:"src" registry plan);
  Alcotest.(check (float 0.)) "recorded count" 3.
    (var_of ~source:"src" registry plan Ast.Count_object);
  (* a similar but different query is unaffected *)
  Alcotest.(check bool) "other constant unaffected" true
    (total ~source:"src" registry (sel_salary 124) <> 777.);
  Registry.remove_query_rules registry ~source:"src";
  Alcotest.(check bool) "removed" true (total ~source:"src" registry plan <> 777.)

let test_history_exact_mode () =
  let registry = base_registry () in
  let history = History.create ~mode:History.Exact registry in
  let plan = sel_salary 9 in
  History.observe history ~source:"src" ~plan
    ~measured:[ (Ast.Total_time, 1234.); (Ast.Count_object, 5.) ]
    ~estimated_total:2000.;
  Alcotest.(check (float 0.)) "next estimate is the real cost" 1234.
    (total ~source:"src" registry plan)

let test_history_adjust_mode () =
  let registry = base_registry () in
  let history = History.create ~mode:(History.Adjust { smoothing = 1.0 }) registry in
  let plan = scan_emp in
  let est0 = total ~source:"src" registry (Plan.Submit ("src", plan)) in
  (* the source is consistently 2x slower than estimated *)
  let sub_est = total ~source:"src" registry plan in
  History.observe history ~source:"src" ~plan
    ~measured:[ (Ast.Total_time, sub_est *. 2.) ]
    ~estimated_total:sub_est;
  Alcotest.(check (float 1e-6)) "factor learned" 2. (Registry.adjust registry ~source:"src");
  let est1 = total ~source:"src" registry (Plan.Submit ("src", plan)) in
  Alcotest.(check bool) "submit estimate doubled" true
    (Float.abs ((est1 /. est0) -. 2.) < 0.01)

let test_history_forget () =
  let registry = base_registry () in
  let history = History.create ~mode:History.Exact registry in
  History.observe history ~source:"src" ~plan:scan_emp
    ~measured:[ (Ast.Total_time, 1.) ] ~estimated_total:1.;
  Registry.set_adjust registry ~source:"src" 3.;
  History.forget history;
  Alcotest.(check (float 0.)) "adjust reset" 1. (Registry.adjust registry ~source:"src");
  Alcotest.(check bool) "query rules dropped" true (total ~source:"src" registry scan_emp > 1.)

(* --- Estimation algorithm mechanics ------------------------------------------------ *)

let test_abort () =
  let registry = base_registry () in
  Alcotest.check_raises "aborts over bound" Estimator.Aborted (fun () ->
      ignore (Estimator.estimate ~abort_above:1.0 ~source:"src" registry scan_emp))

let test_abort_bound_not_reached () =
  let registry = base_registry () in
  let t = total ~source:"src" registry scan_emp in
  let ann = Estimator.estimate ~abort_above:(t +. 1.) ~source:"src" registry scan_emp in
  Alcotest.(check (float 0.)) "same value" t (Estimator.total_time ann)

let test_subtree_cut () =
  (* a query-scope rule with constant formulas must not visit the child: we
     prove it by giving the child a scan over a collection absent from the
     catalog, which would raise if visited *)
  let registry = base_registry () in
  let ghost = Plan.Scan { Plan.source = "src"; collection = "Ghost"; binding = "g" } in
  let plan = Plan.Select (ghost, Pred.Cmp ("g.x", Pred.Eq, Constant.Int 1)) in
  ignore
    (Registry.add_query_rule registry ~source:"src" plan
       (List.map (fun v -> (v, 5.)) Ast.all_cost_vars));
  let ann = est ~source:"src" registry plan in
  Alcotest.(check (float 0.)) "constant rule" 5. (Estimator.total_time ann);
  (* sanity: without the query rule the same plan fails *)
  Registry.remove_query_rules registry ~source:"src";
  Alcotest.(check bool) "child visit raises" true
    (try
       ignore (total ~source:"src" registry plan);
       false
     with _ -> true)

let test_evals_counter_scales () =
  let registry = base_registry () in
  let e1 = ref 0 and e2 = ref 0 in
  ignore (Estimator.estimate ~evals:e1 ~source:"src" registry scan_emp);
  ignore (Estimator.estimate ~evals:e2 ~source:"src" registry (sel_salary 4));
  Alcotest.(check bool) "larger plan, more evals" true (!e2 > !e1);
  Alcotest.(check bool) "counted" true (!e1 > 0)

let test_division_by_zero_in_rule () =
  let registry =
    base_registry
      ~extra:"rule scan(Employee) { TotalTime = 1 / (Employee.CountObject - 10000); }" ()
  in
  (* the formula is statically fine but divides by zero at evaluation *)
  Alcotest.(check bool) "raises Eval_error" true
    (try
       ignore (total ~source:"src" registry scan_emp);
       false
     with Err.Eval_error _ -> true)

let test_if_takes_one_branch () =
  (* a guard protects a division: over an empty extent only the else
     branch is evaluated *)
  let registry =
    base_registry
      ~extra:
        {|interface Empty { attribute long id; cardinality extent(0, 0, 0); }
          rule scan(C) { TotalTime = if(C.CountObject, 100 / C.CountObject, 5); }
          rule select(C, P) { TotalTime = if(C.CountObject, 7, C.TotalTime); }|}
      ()
  in
  let empty = Plan.Scan { Plan.source = "src"; collection = "Empty"; binding = "x" } in
  Alcotest.(check (float 0.)) "guarded division" 5. (total ~source:"src" registry empty);
  Alcotest.(check (float 1e-12)) "taken branch divides" 0.01
    (total ~source:"src" registry scan_emp);
  (* the child's TotalTime is named only in the untaken branch: it is never
     computed, so it cannot trip the abort bound either *)
  let ann =
    Estimator.estimate ~abort_above:10. ~require_vars:[ Ast.Total_time ]
      ~source:"src" registry (sel_salary 4)
  in
  Alcotest.(check (float 0.)) "then branch" 7. (Estimator.total_time ann);
  let child = ann.Estimator.inputs.(0) in
  Alcotest.(check bool) "guard computed" true
    (Estimator.var child Ast.Count_object <> None);
  Alcotest.(check (option (float 0.))) "untaken branch not computed" None
    (Estimator.var child Ast.Total_time)

let test_unknown_attribute_in_rule () =
  let registry =
    base_registry ~extra:"rule select(C, P) { TotalTime = C.nonexistent.Min + 1; }" ()
  in
  Alcotest.(check bool) "raises Eval_error" true
    (try
       ignore (total ~source:"src" registry (sel_salary 1));
       false
     with Err.Eval_error _ -> true)

let test_deep_plan_chain () =
  (* a 30-deep chain of selects estimates fine *)
  let registry = base_registry () in
  let rec deep n p =
    if n = 0 then p
    else deep (n - 1) (Plan.Select (p, Pred.Cmp ("e.id", Pred.Gt, Constant.Int n)))
  in
  let plan = deep 30 scan_emp in
  let t = total ~source:"src" registry plan in
  Alcotest.(check bool) "finite" true (Float.is_finite t && t > 0.)

let test_time_next_consistency () =
  (* the default scan rule defines TimeNext = (TotalTime - TimeFirst)/count *)
  let registry = base_registry () in
  let ann = est ~source:"src" registry scan_emp in
  let v x = Option.get (Estimator.var ann x) in
  Alcotest.(check (float 1e-6)) "TimeNext consistent"
    ((v Ast.Total_time -. v Ast.Time_first) /. v Ast.Count_object)
    (v Ast.Time_next)

let test_groupcard () =
  let registry = base_registry () in
  (* grouping on dept_id (50 distinct): estimated group count = 50 *)
  let agg =
    Plan.Aggregate
      (scan_emp, { Plan.group_by = [ "e.dept_id" ]; aggs = [ (Plan.Count, "", "n") ] })
  in
  Alcotest.(check (float 0.)) "group cardinality" 50.
    (var_of ~source:"src" registry agg Ast.Count_object);
  (* empty grouping: one group *)
  let agg0 =
    Plan.Aggregate (scan_emp, { Plan.group_by = []; aggs = [ (Plan.Count, "", "n") ] })
  in
  Alcotest.(check (float 0.)) "global aggregate" 1.
    (var_of ~source:"src" registry agg0 Ast.Count_object)

let test_report_smoke () =
  let registry = base_registry ~extra:"rule scan(C) { TotalTime = 5; }" () in
  let ann = est ~source:"src" registry (Plan.Submit ("src", sel_salary 9)) in
  let s = Estimator.report ann in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions wrapper scope" true (contains "(wrapper)");
  Alcotest.(check bool) "mentions default scope" true (contains "(default)");
  Alcotest.(check bool) "mentions the collection" true (contains "Employee")

(* --- Derived statistics -------------------------------------------------------- *)

let stats_of registry plan =
  let ann = est ~source:"src" registry plan in
  ignore (Estimator.total_time ann);
  Lazy.force ann.Estimator.stats

let test_derive_scan_and_select () =
  let registry = base_registry () in
  let scan_stats = stats_of registry scan_emp in
  (match Derive.find scan_stats "e.salary" with
   | Some s ->
     Alcotest.(check bool) "indexed" true s.Derive.indexed;
     Alcotest.(check (float 0.)) "distinct" 100. s.Derive.distinct
   | None -> Alcotest.fail "salary stats");
  (* equality select pins the attribute *)
  let sel_stats = stats_of registry (sel_salary 7) in
  (match Derive.find sel_stats "e.salary" with
   | Some s ->
     Alcotest.(check (float 0.)) "distinct 1" 1. s.Derive.distinct;
     Alcotest.(check bool) "min pinned" true (Constant.equal s.Derive.min (Constant.Int 7));
     Alcotest.(check bool) "index cleared" false s.Derive.indexed
   | None -> Alcotest.fail "narrowed stats")

let test_derive_range_narrowing () =
  let registry = base_registry () in
  let node = Plan.Select (scan_emp, Pred.Cmp ("e.salary", Pred.Lt, Constant.Int 15500)) in
  (match Derive.find (stats_of registry node) "e.salary" with
   | Some s ->
     Alcotest.(check bool) "distinct halved" true (s.Derive.distinct < 60.);
     Alcotest.(check bool) "max moved" true (Constant.equal s.Derive.max (Constant.Int 15500))
   | None -> Alcotest.fail "range stats")

let test_derive_join_and_project () =
  let registry = base_registry () in
  let join =
    Plan.Join (scan_emp, Plan.Scan mgr, Pred.Attr_cmp ("e.id", Pred.Eq, "m.emp_id"))
  in
  let js = stats_of registry join in
  Alcotest.(check bool) "has both sides" true
    (Derive.find js "e.salary" <> None && Derive.find js "m.emp_id" <> None);
  Alcotest.(check bool) "join clears indexes" true
    (match Derive.find js "e.id" with Some s -> not s.Derive.indexed | None -> false);
  let pj = stats_of registry (Plan.Project (scan_emp, [ "e.id" ])) in
  Alcotest.(check int) "project restricts" 1 (List.length pj)

let test_find_loose () =
  let registry = base_registry () in
  let s = stats_of registry scan_emp in
  Alcotest.(check bool) "loose by base name" true (Derive.find_loose s "salary" <> None);
  Alcotest.(check bool) "qualified still works" true (Derive.find_loose s "e.salary" <> None);
  Alcotest.(check bool) "missing" true (Derive.find_loose s "zzz" = None)

let test_find_loose_ambiguity () =
  (* two qualified attributes share a bare name, as above a self-join on [id]:
     the bare lookup resolves in derivation order, so the first entry — the
     left operand's attribute — wins, and qualified names stay unambiguous *)
  let left = { Derive.default_stat with Derive.distinct = 11. } in
  let right = { Derive.default_stat with Derive.distinct = 22. } in
  let stats = [ ("e.id", left); ("d.id", right) ] in
  (match Derive.find_loose stats "id" with
   | Some s -> Alcotest.(check (float 0.)) "bare name: left wins" 11. s.Derive.distinct
   | None -> Alcotest.fail "bare lookup");
  (match Derive.find_loose stats "d.id" with
   | Some s -> Alcotest.(check (float 0.)) "qualified picks the side" 22. s.Derive.distinct
   | None -> Alcotest.fail "qualified lookup")

(* --- Selectivity estimation --------------------------------------------------- *)

let test_selest () =
  let registry = base_registry () in
  let ann = est ~source:"src" registry scan_emp in
  let stats = [ Lazy.force ann.Estimator.stats ] in
  let sel p = Selest.of_pred stats p in
  Alcotest.(check (float 1e-9)) "eq = 1/distinct" 0.01
    (sel (Pred.Cmp ("e.salary", Pred.Eq, Constant.Int 5)));
  Alcotest.(check (float 0.01)) "range fraction" 0.5
    (sel (Pred.Cmp ("e.salary", Pred.Lt, Constant.Int 15500)));
  Alcotest.(check (float 1e-9)) "true" 1. (sel Pred.True);
  let a = Pred.Cmp ("e.salary", Pred.Eq, Constant.Int 5) in
  Alcotest.(check (float 1e-9)) "and multiplies" (0.01 *. 0.01) (sel (Pred.And (a, a)));
  Alcotest.(check (float 1e-6)) "not complements" 0.99 (sel (Pred.Not a));
  Alcotest.(check bool) "or combines" true
    (let s = sel (Pred.Or (a, a)) in
     s > 0.01 && s < 0.03);
  Alcotest.(check (float 1e-9)) "unknown attr default" 0.1
    (sel (Pred.Cmp ("e.unknown_attr", Pred.Eq, Constant.Int 1)))

let test_selest_no_stats_fallbacks () =
  (* all six comparison operators against an attribute with no statistics.
     Regression: Ne fell back to the range default (1/3) instead of the
     complement of the equality default. *)
  let registry = base_registry () in
  let ann = est ~source:"src" registry scan_emp in
  let stats = [ Lazy.force ann.Estimator.stats ] in
  let sel op = Selest.of_pred stats (Pred.Cmp ("e.unknown_attr", op, Constant.Int 1)) in
  Alcotest.(check (float 1e-9)) "eq" 0.1 (sel Pred.Eq);
  Alcotest.(check (float 1e-9)) "ne complements eq" 0.9 (sel Pred.Ne);
  List.iter
    (fun op -> Alcotest.(check (float 1e-9)) "range third" (1. /. 3.) (sel op))
    [ Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ]

(* Regression (the satellite fix this PR pins): a wrapper-exported ADT
   selectivity of NaN used to leak through the clamp —
   [Float.max 0. (Float.min 1. nan)] is NaN — poisoning every estimate the
   predicate participated in. The NaN-safe clamp maps it to 0. *)
let test_of_pred_nan_clamp () =
  let nan_sel _ = Some Float.nan in
  let p = Pred.Apply ("noise", "d.lang", Constant.String "en") in
  let check_clamped label q =
    let s = Selest.of_pred ~apply_sel:nan_sel [ [] ] q in
    Alcotest.(check bool)
      (Fmt.str "%s: %.3f finite and in [0,1]" label s)
      true
      (Float.is_finite s && s >= 0. && s <= 1.)
  in
  check_clamped "bare apply" p;
  check_clamped "conjunction" (Pred.And (p, Pred.True));
  check_clamped "disjunction" (Pred.Or (p, p));
  check_clamped "negation" (Pred.Not p)

(* The paper's §2.3 prose gives join selectivity as 1/Min(CountDistinct); we
   deliberately follow the standard System-R 1/Max (see the DESIGN.md
   deviations table). Pinned so the divergence stays intentional. *)
let test_attr_cmp_uses_one_over_max () =
  let sa = { Derive.default_stat with Derive.distinct = 100. } in
  let sb = { Derive.default_stat with Derive.distinct = 20. } in
  let inputs = [ [ ("a.x", sa) ]; [ ("b.y", sb) ] ] in
  let s = Selest.of_attr_cmp inputs "a.x" "b.y" Pred.Eq in
  Alcotest.(check (float 1e-12)) "1/Max(100, 20)" (1. /. 100.) s;
  Alcotest.(check bool) "explicitly not the paper's 1/Min" true
    (s <> 1. /. 20.)

let prop_selest_bounds =
  QCheck2.Test.make ~name:"sel always in [0,1]" ~count:300
    QCheck2.Gen.(
      let atom =
        oneof
          [ map
              (fun (v, op) ->
                Pred.Cmp
                  ( "e.salary",
                    (match op mod 6 with
                     | 0 -> Pred.Eq
                     | 1 -> Pred.Ne
                     | 2 -> Pred.Lt
                     | 3 -> Pred.Le
                     | 4 -> Pred.Gt
                     | _ -> Pred.Ge),
                    Constant.Int v ))
              (pair (int_range (-100) 40000) (int_range 0 5));
            return (Pred.Attr_cmp ("e.id", Pred.Eq, "m.emp_id"));
            return Pred.True ]
      in
      let rec tree n =
        if n = 0 then atom
        else
          oneof
            [ atom;
              map2 (fun a b -> Pred.And (a, b)) (tree (n - 1)) (tree (n - 1));
              map2 (fun a b -> Pred.Or (a, b)) (tree (n - 1)) (tree (n - 1));
              map (fun a -> Pred.Not a) (tree (n - 1)) ]
      in
      tree 3)
    (fun p ->
      let registry = base_registry () in
      let ann = est ~source:"src" registry scan_emp in
      let s = Selest.of_pred [ Lazy.force ann.Estimator.stats ] p in
      s >= 0. && s <= 1.)

(* --- Feedback-driven statistics (§4.3, DESIGN.md §11) ------------------------- *)

(* Sustained misestimation of one predicate bumps the model generation exactly
   once per streak of [consecutive] drifting observations; the streak restarts
   after firing, and an in-band observation resets it. *)
let test_feedback_drift_bumps_once () =
  let registry = base_registry () in
  let history = History.create ~feedback:History.default_feedback registry in
  let plan = sel_salary 9 in
  let g0 = Registry.generation registry in
  let observe ~estimated =
    History.observe ~estimated_count:estimated history ~source:"src" ~plan
      ~measured:[ (Ast.Count_object, 5.) ] ~estimated_total:1.
  in
  let drifting () = observe ~estimated:1000. in
  drifting ();
  drifting ();
  Alcotest.(check int) "no bump before [consecutive] is reached" g0
    (Registry.generation registry);
  drifting ();
  Alcotest.(check int) "third drifting observation bumps exactly once" (g0 + 1)
    (Registry.generation registry);
  drifting ();
  drifting ();
  Alcotest.(check int) "streak restarted after firing" (g0 + 1)
    (Registry.generation registry);
  observe ~estimated:5.;   (* est = actual: in band *)
  drifting ();
  drifting ();
  Alcotest.(check int) "in-band observation cleared the streak" (g0 + 1)
    (Registry.generation registry)

(* The closed loop end to end: the selection over Fact is underestimated 10x
   (perfectly correlated conjuncts — histograms assume independence), so the
   first pass defers the expensive ADT predicate past an expanding join,
   where it actually runs on far more rows than the pushed placement would
   have seen (paper §7's placement decision, made with wrong cardinalities).
   The measured cardinality feeds the §4.3 correction back; the second pass
   plans with the corrected estimate, pushes the ADT into the wrapper, and
   executes measurably cheaper. *)
module Med = Disco_mediator.Mediator
module W = Disco_wrapper.Wrapper

let fanout = 20

let correlated_federation () =
  let open Disco_catalog in
  let open Disco_storage in
  let open Disco_exec in
  let rng = Rng.create ~seed:5 in
  let fact_schema =
    Schema.collection "Fact"
      [ ("id", Schema.Tint); ("dim_id", Schema.Tint); ("v", Schema.Tint);
        ("w", Schema.Tint); ("u", Schema.Tint) ]
  in
  let fact_rows =
    List.init 2000 (fun i ->
        let v = Rng.int rng 1000 in
        (* w = v: the conjunction v < 100 && w < 100 really keeps ~10 %,
           but under independence it is estimated at ~1 % *)
        [| Constant.Int (i + 1); Constant.Int (i mod 50); Constant.Int v;
           Constant.Int v; Constant.Int (Rng.int rng 1000) |])
  in
  let dim_schema =
    Schema.collection "Dim" [ ("k", Schema.Tint); ("pad", Schema.Tint) ]
  in
  let dim_rows =
    (* every key appears [fanout] times: the join expands its input *)
    List.init (50 * fanout) (fun i ->
        [| Constant.Int (i mod 50); Constant.Int (Rng.int rng 100) |])
  in
  let even =
    Adt.make ~name:"even" ~cost_ms:50. ~selectivity:0.5 (fun a _ ->
        match a with Constant.Int x -> x mod 2 = 0 | _ -> false)
  in
  let facts =
    W.create ~name:"facts" ~engine:Costs.relational ~network:Costs.lan
      ~adts:[ even ]
      [ Table.create ~name:"Fact" ~schema:fact_schema ~object_size:24 fact_rows ]
  in
  let dims =
    W.create ~name:"dims" ~engine:Costs.relational ~network:Costs.lan
      [ Table.create ~name:"Dim" ~schema:dim_schema ~object_size:16 dim_rows ]
  in
  let med =
    Med.create ~cache:false
      ~stats_mode:
        (Med.Stats_feedback
           { History.default_feedback with History.smoothing = 1.0 })
      ()
  in
  Med.register med facts;
  Med.register med dims;
  med

let rec pred_has_adt = function
  | Pred.Apply _ -> true
  | Pred.And (a, b) | Pred.Or (a, b) -> pred_has_adt a || pred_has_adt b
  | Pred.Not a -> pred_has_adt a
  | _ -> false

(* Is the ADT predicate evaluated inside a wrapper-submitted subplan? *)
let adt_pushed plan =
  Plan.fold
    (fun acc node ->
      acc
      ||
      match node with
      | Plan.Submit (_, q) ->
        Plan.fold
          (fun a n ->
            a || match n with Plan.Select (_, p) -> pred_has_adt p | _ -> false)
          false q
      | _ -> false)
    false plan

let test_feedback_second_pass_cheaper () =
  let med = correlated_federation () in
  let sql =
    "select f.id from Fact f, Dim d \
     where f.dim_id = d.k and f.v < 100 and f.w < 100 and even(f.u, 0)"
  in
  let pass () =
    let a = Med.run_query med sql in
    ( a.Med.measured.Disco_exec.Run.total_time,
      a.Med.plan,
      List.sort compare (List.map Disco_exec.Tuple.key a.Med.rows) )
  in
  let time1, plan1, rows1 = pass () in
  let time2, plan2, rows2 = pass () in
  Alcotest.(check bool) "first pass defers the ADT past the join" false
    (adt_pushed plan1);
  Alcotest.(check bool) "second pass pushes the ADT into the wrapper" true
    (adt_pushed plan2);
  Alcotest.(check bool)
    (Fmt.str "second-pass plan is cheaper (%.0f < %.0f)" time2 time1)
    true (time2 < time1);
  Alcotest.(check bool) "both passes return the same answer" true
    (rows1 = rows2 && rows1 <> [])

(* --- Invalidation: model writes reach the next estimate ------------------------

   Rules compile once, at registration, and resolve what they reference —
   generic coefficients, catalog statistics, adjustment factors — each time
   they run, so a model write must show up in the very next estimate (paper
   §4.3). *)

let test_calibration_update_reaches_estimates () =
  (* the wrapper rule reads the generic coefficient IO; re-registering the
     generic model with a new calibration leaves the wrapper rule as it was
     compiled *)
  let registry = base_registry ~extra:"rule scan(C) { TotalTime = IO * 10; }" () in
  Alcotest.(check (float 0.)) "initial coefficient" 250.
    (total ~source:"src" registry scan_emp);
  let gen0 = Registry.generation registry in
  Generic.register
    ~calibration:{ Generic.default_calibration with Generic.io_ms = 100. }
    registry;
  Alcotest.(check bool) "re-registration bumps the generation" true
    (Registry.generation registry > gen0);
  Alcotest.(check (float 0.)) "next estimate sees the new coefficient" 1000.
    (total ~source:"src" registry scan_emp)

let test_statistics_update_reaches_estimates () =
  (* re-registering the source replaces its extent statistics *)
  let registry = base_registry () in
  let register count =
    ignore
      (Registry.register_text registry ~what:"src"
         (Fmt.str
            {| source src {
                 interface Employee {
                   attribute long id;
                   cardinality extent(%d, 120000, 120);
                 }
                 rule scan(Employee) { TotalTime = Employee.CountObject / 10; }
               } |}
            count))
  in
  register 1000;
  Alcotest.(check (float 0.)) "initial statistics" 100.
    (total ~source:"src" registry scan_emp);
  register 5000;
  Alcotest.(check (float 0.)) "refreshed statistics" 500.
    (total ~source:"src" registry scan_emp)

let test_adjust_factor_reaches_estimates () =
  (* the files source exports no rules: its submit estimate comes from the
     generic rule, which reads the adjust(W) factor (paper §4.3.1) *)
  let med = Med.create () in
  List.iter (Med.register med)
    (Disco_wrapper.Demo.make ~sizes:Disco_wrapper.Demo.small_sizes ());
  let registry = Med.registry med in
  let q = "select doc.doc_id from Document doc where doc.bytes > 50000" in
  let _, cost0 = Med.plan_query med q in
  Registry.set_adjust registry ~source:"files" 4.;
  let _, cost1 = Med.plan_query med q in
  Alcotest.(check bool) "adjustment factor raises the submit estimate" true
    (cost1 > cost0);
  Registry.set_adjust registry ~source:"files" 1.;
  let _, cost2 = Med.plan_query med q in
  Alcotest.(check bool) "factor reset restores the estimate bit for bit" true
    (Int64.equal (Int64.bits_of_float cost2) (Int64.bits_of_float cost0))

(* --- Name resolution: what each name of a formula denotes ------------------------

   One rule or let per edge of the precedence order ([Compile.resolve]), on
   [base_registry]'s source [src]. The expected figures were computed by the
   resolution cascade this order replaced (each formula evaluation deciding
   afresh), so they pin today's meaning of every edge. *)

type outcome = Is of float | Raises of string

let mentions s part =
  let n = String.length part in
  let rec at i = i + n <= String.length s && (String.sub s i n = part || at (i + 1)) in
  at 0

let name_cases =
  let sel_5000 = sel_salary 5000 in
  let default_employee registry =
    (* the default model also knows a collection named Employee, with other
       statistics: a literal path must read the node's source first *)
    Disco_catalog.Catalog.replace_source (Registry.catalog registry)
      ~source:Registry.default_source ~capabilities:None
      ~collections:
        [ ( "Employee",
            { Disco_catalog.Catalog.schema =
                Disco_catalog.Schema.collection "Employee" [ ("id", Disco_catalog.Schema.Tint) ];
              extent = Disco_catalog.Stats.extent ~count_objects:77 ~total_size:770 ~object_size:10;
              attributes = [];
              parent = None } ) ];
    ignore
      (Registry.add_rule registry ~source:Registry.default_source
         (Parser.parse_rule ~what:"test" "rule scan(Employee) { TotalTime = Employee.CountObject; }"))
  in
  let recalibrate registry =
    Generic.register
      ~calibration:{ Generic.default_calibration with Generic.output_ms = 2. }
      registry
  in
  let none _ = () in
  [ ( "earlier target named like a let",
      "let Coef = 7; rule scan(Employee) { Coef = 3; TotalTime = Coef * 10; }",
      none, scan_emp, Ast.Total_time, Is 30. );
    ( "earlier target named like a cost variable",
      {| rule scan(Employee) { TimeNext = 9; TotalTime = TimeNext * 10; }
         rule scan(Employee) { TimeNext = 1; } |},
      none, scan_emp, Ast.Total_time, Is 90. );
    ( "target read before it is assigned",
      "rule scan(Employee) { TotalTime = CountObject * 2; CountObject = 5; }",
      none, scan_emp, Ast.Total_time, Raises "circular dependency" );
    ( "duplicate assignment, read by a later formula",
      "rule scan(Employee) { TimeFirst = 4; TimeFirst = 6; TotalTime = TimeFirst * 10; }",
      none, scan_emp, Ast.Total_time, Is 60. );
    ( "duplicate assignment, demanded",
      "rule scan(Employee) { TimeFirst = 4; TimeFirst = 6; TotalTime = TimeFirst * 10; }",
      none, scan_emp, Ast.Time_first, Is 4. );
    ( "head variable named like a let",
      "let V = 99; rule select(Employee, salary = V) { TotalTime = V * 1; }",
      none, sel_5000, Ast.Total_time, Is 5000. );
    ( "head attribute variable as a path",
      "rule select(C, A = V) { TotalTime = A.CountDistinct; }",
      none, sel_5000, Ast.Total_time, Is 100. );
    ( "head attribute variable as a segment",
      "rule select(C, A = V) { TotalTime = C.A.Min; }",
      none, sel_5000, Ast.Total_time, Is 1000. );
    ( "source let shadowing a default let",
      "let IO = 3; rule scan(Employee) { TotalTime = IO; }",
      none, scan_emp, Ast.Total_time, Is 3. );
    ( "default let read by a wrapper rule",
      "rule scan(Employee) { TotalTime = Output; }",
      none, scan_emp, Ast.Total_time, Is 9. );
    ( "default let read after a recalibration",
      "rule scan(Employee) { TotalTime = Output; }",
      recalibrate, scan_emp, Ast.Total_time, Is 2. );
    ( "def parameter shadowing a let",
      "let x = 100; def f(x) = x * 2; rule scan(Employee) { TotalTime = f(3); }",
      none, scan_emp, Ast.Total_time, Is 6. );
    ( "def body reading the caller's head variable",
      "def g(k) = V + k; rule select(Employee, salary = V) { TotalTime = g(1); }",
      none, sel_5000, Ast.Total_time, Is 5001. );
    ( "def shadowing a builtin",
      "def max(a, b) = 7; rule scan(Employee) { TotalTime = max(1, 2); }",
      none, scan_emp, Ast.Total_time, Is 7. );
    ( "def shadowing a context function",
      "def sel(p) = 0.5; rule select(Employee, P) { TotalTime = sel(P) * 10; }",
      none, sel_5000, Ast.Total_time, Is 5. );
    ( "def calling a def declared after it",
      "def f(x) = g(x) + 1; def g(y) = y * 10; rule scan(Employee) { TotalTime = f(2); }",
      none, scan_emp, Ast.Total_time, Is 21. );
    ( "let calling a def declared after it",
      "let K = h(4); def h(z) = z + 1; rule scan(Employee) { TotalTime = K; }",
      none, scan_emp, Ast.Total_time, Is 5. );
    ( "unknown lower-case name as an argument",
      "rule select(Employee, salary = V) { TotalTime = selectivity(salary, V) * 1000; }",
      none, sel_5000, Ast.Total_time, Is 10. );
    ( "literal path against the node's source first",
      "", default_employee, scan_emp, Ast.Total_time, Is 10000. );
    ( "unknown function",
      "rule scan(Employee) { TotalTime = frobnicate(1); }",
      none, scan_emp, Ast.Total_time, Raises "unknown function" );
    ( "operand used as a value",
      "rule scan(C) { TotalTime = C * 2; }",
      none, scan_emp, Ast.Total_time, Raises "used as a plain value" ) ]

let test_name_resolution () =
  List.iter
    (fun (label, extra, setup, node, v, expected) ->
      (* registered without Check, as a hostile or careless export could be *)
      let registry = base_registry ~extra () in
      setup registry;
      let got =
        match Estimator.estimate ~require_vars:[ v ] ~source:"src" registry node with
        | ann -> Is (Option.get (Estimator.var ann v))
        | exception Err.Eval_error msg -> Raises msg
      in
      match expected, got with
      | Is x, Is y -> Alcotest.(check (float 1e-9)) label x y
      | Raises part, Raises msg ->
        Alcotest.(check bool) (Fmt.str "%s: %S mentions %S" label msg part) true
          (mentions msg part)
      | _, Is y -> Alcotest.failf "%s: expected an error, got %g" label y
      | _, Raises msg -> Alcotest.failf "%s: unexpected error %s" label msg)
    name_cases

(* Registered without Check, a let defined in terms of itself or a def that
   calls itself raises on its first read, naming the let or def, instead of
   recursing until the stack overflows. *)
let test_hostile_cycles () =
  List.iter
    (fun (label, extra, part) ->
      let registry = base_registry ~extra () in
      match Estimator.estimate ~source:"src" registry scan_emp with
      | _ -> Alcotest.failf "%s: estimated" label
      | exception Err.Eval_error msg ->
        Alcotest.(check bool) (Fmt.str "%s: %S mentions %S" label msg part) true
          (mentions msg part))
    [ ( "let cycle",
        "let A = B + 1; let B = A + 1; rule scan(Employee) { TotalTime = A; }", "let A" );
      ( "let cycle through a def",
        "let A = f(1); def f(x) = A + x; rule scan(Employee) { TotalTime = A; }", "let A" );
      ( "recursive def",
        "def f(x) = f(x) + 1; rule scan(Employee) { TotalTime = f(1); }", "def f" );
      ( "mutually recursive defs",
        "def f(x) = g(x); def g(y) = f(y) * 2; rule scan(Employee) { TotalTime = f(1); }",
        "def f" ) ]

(* --- Concurrent estimation through one registry --------------------------------- *)

(* Registry hammer: [rules_for] fills the registry's merged-rule cache
   lazily, under its lock, while formulas read [let] values, evaluated
   once at registration, without it. Four domains estimate the demo
   federation's chosen plans through one freshly registered mediator's
   registry, so the cache starts cold and the first fills race; each
   domain walks the plans from its own offset. Every estimate's root
   TotalTime, CountObject and TimeFirst must equal the sequential reference
   (taken on another fresh registry), bit for bit. *)
let test_registry_hammer () =
  let open Disco_mediator in
  let registry () = Mediator.registry (fst (Traces.fed ())) in
  let plans =
    let med, _ = Traces.fed () in
    Array.of_list
      (List.map
         (fun sql -> fst (Mediator.plan_query med sql))
         (Traces.optimize_workload @ Traces.execute_workload
         @ [ "select doc.doc_id from Document doc where lang_match(doc.lang, \"en\")" ]))
  in
  let root registry plan =
    let ann = Estimator.estimate registry plan in
    List.map
      (fun v -> Int64.bits_of_float (Option.get (Estimator.var ann v)))
      [ Ast.Total_time; Ast.Count_object; Ast.Time_first ]
  in
  let reference = Array.map (root (registry ())) plans in
  let shared = registry () in
  let n_domains = 4 and rounds = 10 and n = Array.length plans in
  let mismatches = Array.make n_domains 0 in
  let worker slot () =
    for r = 0 to rounds - 1 do
      for k = 0 to n - 1 do
        let i = (k + (slot * 2) + r) mod n in
        if root shared plans.(i) <> reference.(i) then
          mismatches.(slot) <- mismatches.(slot) + 1
      done
    done
  in
  let spawned = List.init (n_domains - 1) (fun s -> Domain.spawn (worker (s + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "every concurrent estimate equals the sequential one" 0
    (Array.fold_left ( + ) 0 mismatches)

let () =
  Alcotest.run "core"
    [ ( "scope",
        [ Alcotest.test_case "ordering" `Quick test_scope_order;
          Alcotest.test_case "classification" `Quick test_classify ] );
      ( "specificity",
        [ Alcotest.test_case "paper matching order" `Quick test_specificity_paper_order ] );
      ( "matching",
        [ Alcotest.test_case "scan" `Quick test_match_scan;
          Alcotest.test_case "select" `Quick test_match_select;
          Alcotest.test_case "subject through operators" `Quick test_match_through_operators;
          Alcotest.test_case "join" `Quick test_match_join;
          Alcotest.test_case "submit" `Quick test_match_submit;
          Alcotest.test_case "nonlinear patterns" `Quick test_match_same_var_twice ] );
      ( "generic model",
        [ Alcotest.test_case "complete coverage" `Quick test_generic_complete;
          Alcotest.test_case "cardinalities" `Quick test_generic_cardinalities;
          Alcotest.test_case "index strategy selection" `Quick
            test_generic_index_beats_seq_when_selective ] );
      ( "blending",
        [ Alcotest.test_case "wrapper overrides" `Quick test_wrapper_rule_overrides;
          Alcotest.test_case "collection beats wrapper" `Quick test_collection_beats_wrapper;
          Alcotest.test_case "predicate beats collection" `Quick test_predicate_beats_collection;
          Alcotest.test_case "min-combining" `Quick test_min_combining_same_level;
          Alcotest.test_case "min-combining vs NaN" `Quick
            test_min_combining_prefers_finite_over_nan;
          Alcotest.test_case "same-level both evaluated" `Quick test_first_rule_wins_tie_via_order;
          Alcotest.test_case "per-variable fallback" `Quick test_per_variable_fallback;
          Alcotest.test_case "lets and defs" `Quick test_wrapper_lets_and_defs;
          Alcotest.test_case "lets reference catalog" `Quick test_lets_reference_catalog;
          Alcotest.test_case "default lets visible" `Quick
            test_wrapper_rules_fall_back_to_default_lets;
          Alcotest.test_case "fig 13 Yao rule" `Quick test_fig13_yao_rule_evaluates;
          Alcotest.test_case "ADT operation costs" `Quick test_adt_costs;
          Alcotest.test_case "re-registration replaces rules" `Quick
            test_reregistration_replaces_rules ] );
      ( "inheritance",
        [ Alcotest.test_case "catalog" `Quick test_inheritance_catalog;
          Alcotest.test_case "rule overriding" `Quick test_inheritance_rule_overriding;
          Alcotest.test_case "undeclared parent" `Quick test_inheritance_undeclared_parent ] );
      ( "history",
        [ Alcotest.test_case "query-scope exact" `Quick test_query_scope_exact;
          Alcotest.test_case "exact mode" `Quick test_history_exact_mode;
          Alcotest.test_case "adjust mode" `Quick test_history_adjust_mode;
          Alcotest.test_case "forget" `Quick test_history_forget ] );
      ( "estimator",
        [ Alcotest.test_case "abort over bound" `Quick test_abort;
          Alcotest.test_case "no abort under bound" `Quick test_abort_bound_not_reached;
          Alcotest.test_case "subtree cut" `Quick test_subtree_cut;
          Alcotest.test_case "evals counter" `Quick test_evals_counter_scales;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_in_rule;
          Alcotest.test_case "unknown attribute" `Quick test_unknown_attribute_in_rule;
          Alcotest.test_case "if takes one branch" `Quick test_if_takes_one_branch;
          Alcotest.test_case "deep plan chain" `Quick test_deep_plan_chain;
          Alcotest.test_case "TimeNext consistency" `Quick test_time_next_consistency;
          Alcotest.test_case "group cardinality" `Quick test_groupcard;
          Alcotest.test_case "report" `Quick test_report_smoke ] );
      ( "names",
        [ Alcotest.test_case "resolution order" `Quick test_name_resolution;
          Alcotest.test_case "hostile cycles" `Quick test_hostile_cycles ] );
      ( "invalidation",
        [ Alcotest.test_case "calibration update" `Quick
            test_calibration_update_reaches_estimates;
          Alcotest.test_case "statistics update" `Quick
            test_statistics_update_reaches_estimates;
          Alcotest.test_case "history feedback" `Quick
            test_adjust_factor_reaches_estimates ] );
      ( "derive",
        [ Alcotest.test_case "scan and select" `Quick test_derive_scan_and_select;
          Alcotest.test_case "range narrowing" `Quick test_derive_range_narrowing;
          Alcotest.test_case "join and project" `Quick test_derive_join_and_project;
          Alcotest.test_case "loose lookup" `Quick test_find_loose;
          Alcotest.test_case "loose lookup ambiguity" `Quick
            test_find_loose_ambiguity ] );
      ( "selectivity",
        [ Alcotest.test_case "estimates" `Quick test_selest;
          Alcotest.test_case "no-stats fallbacks" `Quick test_selest_no_stats_fallbacks;
          Alcotest.test_case "NaN-safe clamp" `Quick test_of_pred_nan_clamp;
          Alcotest.test_case "join uses 1/Max, not the paper's 1/Min" `Quick
            test_attr_cmp_uses_one_over_max;
          QCheck_alcotest.to_alcotest prop_selest_bounds ] );
      ( "feedback",
        [ Alcotest.test_case "drift bumps generation exactly once" `Quick
            test_feedback_drift_bumps_once;
          Alcotest.test_case "second pass plans cheaper" `Quick
            test_feedback_second_pass_cheaper ] );
      ( "concurrency",
        [ Alcotest.test_case "registry hammer" `Quick test_registry_hammer ] ) ]
