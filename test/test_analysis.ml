(* Tests for lib/analysis: the interval domain, soundness of the abstract
   interpreter against the concrete evaluator, and the whole-model analyzer —
   seeded regressions it must catch, and the shipped models it must pass. *)

open Disco_common
open Disco_costlang
open Disco_core
open Disco_wrapper
open Disco_mediator
open Disco_analysis

(* --- Fixtures ---------------------------------------------------------------- *)

let reg_with texts =
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  Generic.register registry;
  List.iter
    (fun t -> ignore (Registry.register_text registry ~what:"test source" t))
    texts;
  registry

(* 1-based line/col of the first (or last) occurrence of [sub] in [text]:
   the expected lexer position of a seeded defect. *)
let pos_of ?(last = false) text sub =
  let idx =
    let rec all from acc =
      match String.index_from_opt text from sub.[0] with
      | Some i when i + String.length sub <= String.length text
                    && String.sub text i (String.length sub) = sub ->
        all (i + 1) (i :: acc)
      | Some i -> all (i + 1) acc
      | None -> acc
    in
    match all 0 [] with
    | [] -> Alcotest.failf "substring %S not found" sub
    | is -> if last then List.hd is else List.hd (List.rev is)
  in
  let line = ref 1 and bol = ref 0 in
  String.iteri
    (fun i c ->
      if i < idx && c = '\n' then begin
        incr line;
        bol := i + 1
      end)
    text;
  { Ast.line = !line; col = idx - !bol + 1 }

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let find_tag fs tag =
  match List.filter (fun f -> f.Finding.tag = tag) fs with
  | [] -> Alcotest.failf "no %S finding" tag
  | f :: _ -> f

let check_sev what expected (f : Finding.t) =
  Alcotest.(check string) what
    (Finding.severity_name expected)
    (Finding.severity_name f.Finding.severity)

let check_loc what expected (f : Finding.t) =
  match f.Finding.loc with
  | None -> Alcotest.failf "%s: finding has no location" what
  | Some p ->
    Alcotest.(check (pair int int)) what
      (expected.Ast.line, expected.Ast.col)
      (p.Ast.line, p.Ast.col)

let item_interface =
  {|interface Item {
    attribute long id;
    cardinality extent(1000, 50000, 50);
    cardinality attribute(id, true, 1000, 1, 1000);
  }|}

(* --- Interval domain ---------------------------------------------------------- *)

let test_interval_ops () =
  let open Interval in
  Alcotest.(check bool) "mul 0*inf endpoint" true
    (let i = mul nonneg unit in
     i.lo = 0. && i.hi = infinity && not i.nan);
  Alcotest.(check bool) "sub introduces negatives" true
    (maybe_neg (sub nonneg nonneg));
  Alcotest.(check bool) "point div ok" true
    (let i, st = div (point 10.) (point 4.) in
     st = Div_ok && i.lo = 2.5 && i.hi = 2.5);
  Alcotest.(check bool) "div by zero definite" true
    (snd (div (point 1.) (point 0.)) = Div_zero);
  Alcotest.(check bool) "div by nonneg maybe zero" true
    (snd (div (point 1.) nonneg) = Div_maybe_zero);
  Alcotest.(check bool) "ln of possibly-negative is nan" true
    (ln_ (v (-1.) 1.)).nan;
  Alcotest.(check bool) "ln of positive is nan-free" true (not (ln_ ge1).nan);
  Alcotest.(check bool) "ln of possibly-zero is tainted" true (ln_ nonneg).nan;
  Alcotest.(check bool) "ite decisive on nonzero cond" true
    (ite (point 1.) (point 2.) (point 3.) = point 2.);
  Alcotest.(check bool) "ite joins on uncertain cond" true
    (let i = ite unit (point 2.) (point 3.) in
     i.lo = 2. && i.hi = 3.)

(* --- Canonical builtin lists (satellite: hoisted into Builtins) --------------- *)

let test_builtin_names_resolve () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " resolves") true
        (Option.is_some (Builtins.find n)))
    Builtins.names;
  (* context functions are the estimator's, not pure builtins — the two
     canonical lists must stay disjoint *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is not a pure builtin") true
        (Option.is_none (Builtins.find n));
      (* the abstract interpreter has a transfer function for each: no
         unknown-call issue, numeric result *)
      let v, issues =
        Absint.eval
          (fun _ -> Absint.Opaque)
          (Compile.let_body ~def_of:(fun _ -> None) (Ast.Call (n, [])))
      in
      Alcotest.(check bool) (n ^ " abstracts to a number") true
        (Option.is_some (Absint.interval_of v));
      Alcotest.(check int) (n ^ " raises no issue") 0 (List.length issues))
    Builtins.context_function_names;
  (* Check consumes the same list: a rule using a context function passes *)
  let r =
    Parser.parse_rule ~what:"test"
      "rule select(C, P) { TotalTime = sel(P) * nnames(C); }"
  in
  Alcotest.(check int) "check accepts context functions" 0
    (List.length (Finding.errors (Check.check_rule r ~lets:[] ~defs:[])))

(* --- Seeded regression: possible division by zero ----------------------------- *)

let divzero_text =
  {|source srcz {
  |} ^ item_interface
  ^ {|
  rule scan(C) {
    CountObject = C.CountObject;
    TotalSize = C.TotalSize;
    TimeFirst = 1;
    TimeNext = 1;
    TotalTime = C.TotalSize / C.CountObject;
  }
}|}

let test_seeded_divzero () =
  let reg = reg_with [ divzero_text ] in
  let fs = Analyzer.analyze_source reg ~source:"srcz" in
  let f = find_tag fs "div-zero" in
  check_sev "possible divisor zero is a warning" Finding.Warning f;
  check_loc "location is the TotalTime assignment"
    (pos_of divzero_text "TotalTime = C.TotalSize") f;
  Alcotest.(check (option string)) "owned by srcz" (Some "srcz") f.Finding.source;
  (* a warning, not an error: strict mode does not reject it *)
  Alcotest.(check int) "no error findings" 0
    (List.length (Finding.errors fs))

(* --- Seeded regression: negative cost ----------------------------------------- *)

let negative_text =
  {|source srcn {
  |} ^ item_interface
  ^ {|
  rule scan(C) {
    CountObject = C.CountObject;
    TotalSize = C.TotalSize;
    TimeFirst = 0 - 5;
    TimeNext = 1;
    TotalTime = 1;
  }
}|}

let test_seeded_negative () =
  let reg = reg_with [ negative_text ] in
  let fs = Analyzer.analyze_source reg ~source:"srcn" in
  let f = find_tag fs "negative" in
  check_sev "definitely negative cost is an error" Finding.Error f;
  check_loc "location is the TimeFirst assignment"
    (pos_of negative_text "TimeFirst = 0 - 5") f

(* --- Seeded regression: dead rule shadowed by a collection-scope rule ---------- *)

let dead_text =
  {|source srcd {
  interface Item {
    attribute long id;
    cardinality extent(1000, 50000, 50);
    cardinality attribute(id, true, 1000, 1, 1000);
    rule scan(C) {
      CountObject = C.CountObject;
      TotalSize = C.TotalSize;
      TimeFirst = 2;
      TimeNext = 2;
      TotalTime = 2;
    }
  }
  rule scan(C) {
    CountObject = C.CountObject;
    TotalSize = C.TotalSize;
    TimeFirst = 5;
    TimeNext = 5;
    TotalTime = 5;
  }
}|}

let test_seeded_dead_rule () =
  let reg = reg_with [ dead_text ] in
  let fs = Analyzer.analyze_source reg ~source:"srcd" in
  let f = find_tag fs "dead-rule" in
  check_sev "dead rule is a warning" Finding.Warning f;
  (* the victim is the toplevel (wrapper-scope) rule — the second
     "rule scan(C)" in the text *)
  check_loc "location is the shadowed toplevel rule"
    (pos_of ~last:true dead_text "rule scan(C)") f;
  Alcotest.(check bool) "message names the collection-scope shadower" true
    (contains_sub f.Finding.msg "collection")

(* --- Seeded regression: cost-variable dependency cycle ------------------------- *)

let cycle_text =
  {|source srcc {
  |} ^ item_interface
  ^ {|
  rule sort(C, A) {
    TotalTime = TotalSize * 2;
  }
  rule sort(C, A) {
    TotalSize = TotalTime / 2;
  }
}|}

let test_seeded_cycle () =
  let reg = reg_with [ cycle_text ] in
  let fs = Analyzer.analyze_source reg ~source:"srcc" in
  let f = find_tag fs "cycle" in
  check_sev "dependency cycle is an error" Finding.Error f;
  Alcotest.(check bool) "cycle names both variables" true
    (contains_sub f.Finding.msg "TotalTime"
     && contains_sub f.Finding.msg "TotalSize")

(* --- Coverage: a chain missing a variable is an error -------------------------- *)

let test_coverage_missing_var () =
  (* an operator nobody (not even the generic model) covers does not exist;
     instead: a conditional-only provider — TimeNext defined only for scans
     of the literal collection, other scans fall back... to nothing once the
     generic chain is absent. Build a registry WITHOUT the generic model. *)
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  ignore
    (Registry.register_text registry ~what:"test"
       ({|source srcm {
  |} ^ item_interface
       ^ {|
  rule scan(C) {
    CountObject = C.CountObject;
    TotalSize = C.TotalSize;
    TimeFirst = 1;
  }
}|}));
  let fs = Analyzer.analyze_chain registry ~source:"srcm" ~operator:"scan" in
  let f = find_tag fs "coverage" in
  check_sev "missing cost variables are an error" Finding.Error f

(* --- The shipped models lint clean (--fail-on error) ----------------------------- *)

let test_generic_model_clean () =
  let reg = reg_with [] in
  let fs = Analyzer.analyze reg in
  Alcotest.(check int) "generic + mediator model has no error findings" 0
    (List.length (Finding.errors fs));
  (* and the expected benign findings are present: the competing same-level
     select strategies are reported as min-combined ambiguity *)
  ignore (find_tag fs "ambiguous")

let test_demo_federation_clean_strict () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  let fs = Analyzer.analyze (Mediator.registry med) in
  Alcotest.(check int) "demo federation has no error findings" 0
    (List.length (Finding.errors fs));
  (* the objstore index join exports no TimeNext: fallback to generic *)
  Alcotest.(check bool) "objstore join falls back for TimeNext" true
    (List.exists
       (fun f ->
         f.Finding.tag = "fallback" && f.Finding.source = Some "objstore"
         && f.Finding.operator = Some "join")
       fs)

let test_oo7_clean_strict () =
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  Generic.register registry;
  let src =
    Disco_oo7.Oo7.make_source ~config:Disco_oo7.Oo7.small_config
      ~with_rules:true ()
  in
  ignore (Registry.register_source_decl registry (Wrapper.registration_decl src));
  let fs = Analyzer.analyze_source registry ~source:"oo7" in
  Alcotest.(check int) "oo7 export has no error findings" 0
    (List.length (Finding.errors fs))

(* --- Registration: Check is the one gate, lint only reports ---------------------- *)

let relstore () =
  match Demo.make ~sizes:Demo.small_sizes () with
  | w :: _ -> w
  | [] -> assert false

let test_lint_only_reports () =
  (* the export passes Check but lints with an error (TimeFirst is always
     negative): registration keeps it, and lint reports the error *)
  let med = Mediator.create () in
  let bad =
    { (relstore ()) with
      Wrapper.rules_text =
        {|rule scan(C) {
  CountObject = C.CountObject;
  TotalSize = C.TotalSize;
  TimeFirst = 0 - 5;
  TimeNext = 1;
  TotalTime = 1;
}|} }
  in
  Alcotest.(check int) "Check passes the export" 0
    (List.length (Finding.errors (Check.check_source (Wrapper.registration_decl bad))));
  Mediator.register med bad;
  Alcotest.(check bool) "the export is registered" true
    (Registry.rule_count (Mediator.registry med) ~source:bad.Wrapper.name > 0);
  Alcotest.(check bool) "lint reports the error" true
    (Finding.errors (Analyzer.analyze_source (Mediator.registry med) ~source:bad.Wrapper.name)
     <> [])

let test_refused_registration () =
  (* an export Check refuses installs nothing: not on a first registration,
     and not over an earlier registration of the source *)
  let med = Mediator.create () in
  let good = relstore () in
  let bad = { good with Wrapper.rules_text = "rule scan(C) { TotalTime = frob(1); }" } in
  let refused () =
    match Mediator.register med bad with
    | () -> Alcotest.fail "Check should have refused the export"
    | exception Err.Eval_error msg ->
      Alcotest.(check bool) "refused by the check" true (contains_sub msg "unknown function")
  in
  let catalog = Mediator.catalog med and registry = Mediator.registry med in
  refused ();
  Alcotest.(check bool) "no collection of the refused export" false
    (List.mem "relstore" (Disco_catalog.Catalog.source_names catalog));
  Alcotest.(check (option string)) "Employee is unknown" None
    (Disco_catalog.Catalog.locate_collection catalog "Employee");
  Alcotest.(check bool) "no wrapper for it" true
    (match Mediator.find_wrapper med "relstore" with
     | _ -> false
     | exception Err.Unknown_source _ -> true);
  Alcotest.(check int) "no rule of it" 0 (Registry.rule_count registry ~source:"relstore");
  Mediator.register med good;
  let scan =
    Disco_algebra.Plan.Scan
      { Disco_algebra.Plan.source = "relstore"; collection = "Employee"; binding = "e" }
  in
  let estimate () =
    let ann = Estimator.estimate ~source:"relstore" registry scan in
    List.map
      (fun v -> (Int64.bits_of_float (Option.get (Estimator.var ann v)), Estimator.provenance ann v))
      Ast.all_cost_vars
  in
  let before = estimate () and rules = Registry.rule_count registry ~source:"relstore" in
  let generation = Registry.generation registry in
  refused ();
  Alcotest.(check int) "the model did not move" generation (Registry.generation registry);
  Alcotest.(check int) "the earlier rules stay" rules (Registry.rule_count registry ~source:"relstore");
  Alcotest.(check bool) "the earlier rules and statistics still estimate" true
    (estimate () = before);
  Alcotest.(check bool) "the earlier wrapper stays" true
    (Mediator.find_wrapper med "relstore" == good)

(* --- JSON output ---------------------------------------------------------------- *)

let test_json_output () =
  let reg = reg_with [ negative_text ] in
  let fs = Analyzer.analyze_source reg ~source:"srcn" in
  let json =
    Disco_server.(Json.to_string (Json.List (List.map Protocol.json_of_finding fs)))
  in
  let has sub = contains_sub json sub in
  Alcotest.(check bool) "json has severity field" true
    (has {|"severity":"error"|});
  Alcotest.(check bool) "json has tag field" true (has {|"tag":"negative"|});
  Alcotest.(check bool) "json has line field" true
    (has {|"line":|} && not (has {|"line":null|}))

(* --- Soundness: abstract interpretation vs the concrete evaluator --------------- *)

(* Random formulas over three typed variables: N abstracted as [0, inf)
   (concrete nonnegative), S as [0, 1] (concrete selectivity), X as top.
   Function set and constant ranges are chosen so intermediates cannot
   overflow to infinity — the domain's "unbounded finite" endpoint reading
   assumes finite inputs (exp/pow excluded). *)
let gen_env =
  QCheck2.Gen.(
    triple (map float_of_int (int_range 0 10_000))
      (float_bound_inclusive 1.0)
      (map float_of_int (int_range (-1000) 1000)))

let gen_expr =
  QCheck2.Gen.(
    sized_size (int_bound 8)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun i -> Ast.Num (float_of_int i)) (int_range (-50) 50);
                 oneofl [ Ast.Ref [ "N" ]; Ast.Ref [ "S" ]; Ast.Ref [ "X" ] ] ]
           in
           if n <= 0 then leaf
           else
             oneof
               [ leaf;
                 map3
                   (fun op a b -> Ast.Binop (op, a, b))
                   (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ])
                   (self (n / 2)) (self (n / 2));
                 map (fun e -> Ast.Neg e) (self (n - 1));
                 map2
                   (fun f e -> Ast.Call (f, [ e ]))
                   (oneofl [ "ln"; "log2"; "sqrt"; "ceil"; "floor"; "abs" ])
                   (self (n - 1));
                 map3
                   (fun f a b -> Ast.Call (f, [ a; b ]))
                   (oneofl [ "min"; "max"; "yaoapprox" ])
                   (self (n / 2)) (self (n / 2));
                 map3
                   (fun c t e -> Ast.Call ("if", [ c; t; e ]))
                   (self (n / 3)) (self (n / 3)) (self (n / 3));
                 map3
                   (fun a b c -> Ast.Call ("yao", [ a; b; c ]))
                   (self (n / 3)) (self (n / 3)) (self (n / 3)) ]))

(* Both evaluations read the formula as resolved in a let's scope: its
   names are [Dynamic], its calls builtins. *)
let abstract_env = function
  | Compile.Dynamic "N" -> Absint.Num Interval.nonneg
  | Compile.Dynamic "S" -> Absint.Num Interval.unit
  | Compile.Dynamic "X" -> Absint.Num Interval.top
  | _ -> Absint.Opaque

let concrete_leaves (n, s, x) =
  { Compile.name =
      (function
        | Compile.Dynamic "N" -> fun () () _ -> Value.num n
        | Compile.Dynamic "S" -> fun () () _ -> Value.num s
        | Compile.Dynamic "X" -> fun () () _ -> Value.num x
        | _ -> Fmt.failwith "unexpected ref");
    call = (fun fn _ -> Fmt.failwith "unexpected call %s" fn) }

let soundness_prop (e, env) =
  let t = Compile.let_body ~def_of:(fun _ -> None) e in
  let av, issues = Absint.eval abstract_env t in
  match Value.to_num (Compile.compile (concrete_leaves env) t () () [||]) with
  | exception Err.Eval_error _ ->
    (* the only raising construct the generator produces is division by
       zero: the abstract pass must have flagged it *)
    List.exists
      (function Absint.Div_by_zero _ -> true | _ -> false)
      issues
  | f ->
    (match av with
     | Absint.Num i -> Interval.contains i f
     | _ -> false (* all generated expressions are numeric *))

let test_soundness =
  QCheck2.Test.make ~name:"interval analysis sound vs concrete evaluation"
    ~count:1000
    ~print:(fun (e, (n, s, x)) ->
      Fmt.str "%a with N=%g S=%g X=%g" Pp.expr e n s x)
    QCheck2.Gen.(pair gen_expr gen_env)
    soundness_prop

(* --- Hostile exports ------------------------------------------------------------- *)

(* Registered without Check, a let cycle makes every read of the let raise
   at once: lint of the source finishes with its findings instead of
   stalling on the let. *)
let test_lint_let_cycle () =
  let registry =
    reg_with
      [ "source s { let A = B + 1; let B = A + 1; rule scan(C) { TotalTime = A; } }" ]
  in
  Alcotest.(check bool) "findings" true (Analyzer.analyze_source registry ~source:"s" <> [])

(* A let registration could not evaluate (registered without Check) is
   kept as its error: lint reports it once per let, located at the let,
   with the evaluation's message. *)
let test_lint_let_error () =
  let let_errors text =
    let registry = reg_with [ text ] in
    List.filter
      (fun (f : Finding.t) -> f.tag = "let-error")
      (Analyzer.analyze_source registry ~source:"s")
  in
  let expect text cases =
    let fs = let_errors text in
    Alcotest.(check int) "one finding per let" (List.length cases) (List.length fs);
    List.iter
      (fun (name, part) ->
        match List.find_opt (fun (f : Finding.t) -> f.where = "let " ^ name) fs with
        | None -> Alcotest.failf "no let-error for %s" name
        | Some f ->
          check_sev ("let " ^ name) Finding.Error f;
          check_loc "located at the let" (pos_of text ("let " ^ name)) f;
          Alcotest.(check bool) (Fmt.str "%S mentions %S" f.msg part) true
            (contains_sub f.msg part))
      cases
  in
  expect
    "source s {\n let A = B + 1;\n let B = A + 1;\n rule scan(C) { TotalTime = A; } }"
    [ ("A", "defined in terms of itself"); ("B", "defined in terms of itself") ];
  expect "source s {\n let Z = 1 / 0;\n rule scan(C) { TotalTime = Z; } }"
    [ ("Z", "division by zero") ];
  expect "source s { let K = 2; rule scan(C) { TotalTime = K; } }" []

(* --- Run ------------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ( "interval",
        [ Alcotest.test_case "operations" `Quick test_interval_ops ] );
      ( "builtins",
        [ Alcotest.test_case "canonical lists resolve" `Quick
            test_builtin_names_resolve ] );
      ( "seeded regressions",
        [ Alcotest.test_case "possible division by zero" `Quick
            test_seeded_divzero;
          Alcotest.test_case "negative cost" `Quick test_seeded_negative;
          Alcotest.test_case "dead rule" `Quick test_seeded_dead_rule;
          Alcotest.test_case "dependency cycle" `Quick test_seeded_cycle;
          Alcotest.test_case "missing coverage" `Quick
            test_coverage_missing_var ] );
      ( "shipped models",
        [ Alcotest.test_case "generic model clean" `Quick
            test_generic_model_clean;
          Alcotest.test_case "demo federation clean under strict" `Quick
            test_demo_federation_clean_strict;
          Alcotest.test_case "oo7 clean under strict" `Quick
            test_oo7_clean_strict ] );
      ( "registration checks",
        [ Alcotest.test_case "lint only reports" `Quick test_lint_only_reports;
          Alcotest.test_case "refused export installs nothing" `Quick
            test_refused_registration;
          Alcotest.test_case "json findings" `Quick test_json_output ] );
      ( "hostile exports",
        [ Alcotest.test_case "lint of a let cycle" `Quick test_lint_let_cycle;
          Alcotest.test_case "lint of a let error" `Quick test_lint_let_error ] );
      ("properties", [ QCheck_alcotest.to_alcotest test_soundness ]) ]
