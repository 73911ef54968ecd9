(* Tests for lib/costlang: lexer, parser, pretty-printer round-trip, formula
   compilation and builtins. The paper's own example rules (Figs 3, 4, 8, 13)
   are used as parser fixtures. *)

open Disco_common
open Disco_algebra
open Disco_costlang

(* --- Lexer -------------------------------------------------------------- *)

let toks text = List.map (fun s -> s.Lexer.tok) (Lexer.tokenize ~what:"test" text)

let test_lexer_basic () =
  Alcotest.(check int) "count" 7 (List.length (toks "a = b + 1.5 ;"));
  (match toks "x <= 10" with
   | [ IDENT "x"; LE; NUMBER n; EOF ] -> Alcotest.(check (float 0.)) "10" 10. n
   | _ -> Alcotest.fail "unexpected tokens");
  (match toks "a <> b" with
   | [ IDENT _; NE; IDENT _; EOF ] -> ()
   | _ -> Alcotest.fail "expected NE")

let test_lexer_numbers () =
  (match toks "1.5e3" with
   | [ NUMBER n; EOF ] -> Alcotest.(check (float 0.)) "1500" 1500. n
   | _ -> Alcotest.fail "exponent");
  (* a dot not followed by a digit is a path separator *)
  (match toks "C.CountObject" with
   | [ IDENT "C"; DOT; IDENT "CountObject"; EOF ] -> ()
   | _ -> Alcotest.fail "path dots");
  (match toks "1.CountObject" with
   | [ NUMBER _; DOT; IDENT _; EOF ] -> ()
   | _ -> Alcotest.fail "number then path dot")

let test_lexer_strings_comments () =
  (match toks {| "hello \"world\"" |} with
   | [ STRING s; EOF ] -> Alcotest.(check string) "escapes" {|hello "world"|} s
   | _ -> Alcotest.fail "string");
  (match toks "a // comment\nb" with
   | [ IDENT "a"; IDENT "b"; EOF ] -> ()
   | _ -> Alcotest.fail "line comment");
  (match toks "a /* multi \n line */ b" with
   | [ IDENT "a"; IDENT "b"; EOF ] -> ()
   | _ -> Alcotest.fail "block comment")

let test_lexer_errors () =
  Alcotest.(check bool) "bad char raises" true
    (try
       ignore (toks "a # b");
       false
     with Err.Parse_error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (toks "\"abc");
       false
     with Err.Parse_error _ -> true)

let test_lexer_positions () =
  (try
     ignore (toks "ab\ncd @")
   with Err.Parse_error { line; col; _ } ->
     Alcotest.(check int) "line" 2 line;
     Alcotest.(check int) "col" 4 col)

(* --- Parser: expressions -------------------------------------------------- *)

let pexpr s = Parser.parse_expr ~what:"test" s

let test_expr_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match pexpr "1 + 2 * 3" with
   | Ast.Binop (Ast.Add, Ast.Num 1., Ast.Binop (Ast.Mul, Ast.Num 2., Ast.Num 3.)) -> ()
   | e -> Alcotest.failf "bad tree: %a" Pp.expr e);
  (* left associativity: 1 - 2 - 3 = (1 - 2) - 3 *)
  (match pexpr "1 - 2 - 3" with
   | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, _, _), Ast.Num 3.) -> ()
   | e -> Alcotest.failf "bad assoc: %a" Pp.expr e);
  (* parentheses *)
  (match pexpr "(1 + 2) * 3" with
   | Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, _, _), Ast.Num 3.) -> ()
   | e -> Alcotest.failf "bad parens: %a" Pp.expr e)

let test_expr_paths_calls () =
  (match pexpr "Employee.salary.Min" with
   | Ast.Ref [ "Employee"; "salary"; "Min" ] -> ()
   | _ -> Alcotest.fail "path");
  (match pexpr "max(C.CountObject, 1)" with
   | Ast.Call ("max", [ Ast.Ref [ "C"; "CountObject" ]; Ast.Num 1. ]) -> ()
   | _ -> Alcotest.fail "call");
  (match pexpr "exp(-1 * x)" with
   | Ast.Call ("exp", [ Ast.Binop (Ast.Mul, Ast.Neg (Ast.Num 1.), Ast.Ref [ "x" ]) ]) -> ()
   | _ -> Alcotest.fail "unary minus")

(* --- Parser: rules (paper examples) ---------------------------------------- *)

let test_rule_fig8_scan () =
  (* Fig 8, first rule *)
  let r =
    Parser.parse_rule ~what:"fig8"
      {| rule scan(employee) {
           TotalTime = 120 + employee.TotalSize * 12 + employee.CountObject / employee.CountDistinct;
         } |}
  in
  (match r.Ast.head with
   | Ast.Hscan (Ast.Pname "employee") -> ()
   | _ -> Alcotest.fail "head should be literal collection");
  Alcotest.(check int) "one formula" 1 (List.length r.Ast.body)

let test_rule_fig8_select () =
  (* Fig 8, second rule: select(C, A = V) with free variables *)
  let r =
    Parser.parse_rule ~what:"fig8"
      {| rule select(C, A = V) {
           CountObject = C.CountObject * selectivity(A, V);
           TotalSize = CountObject * C.ObjectSize;
           TotalTime = C.TotalTime + C.TotalSize * 25;
         } |}
  in
  (match r.Ast.head with
   | Ast.Hselect (Ast.Pvar "C", Ast.Pcmp (Ast.Pvar "A", Pred.Eq, Ast.Pvar "V")) -> ()
   | _ -> Alcotest.fail "head variables");
  Alcotest.(check (list string)) "provides"
    [ "CountObject"; "TotalSize"; "TotalTime" ]
    (List.map Ast.cost_var_name (Ast.rule_provides r))

let test_rule_fig13_locals () =
  (* Fig 13: a local variable (CountPage) feeding later formulas *)
  let r =
    Parser.parse_rule ~what:"fig13"
      {| rule select(C, id = V) {
           CountPage = C.TotalSize / PageSize;
           CountObject = C.CountObject * (V - C.id.Min) / (C.id.Max - C.id.Min);
           TotalSize = CountObject * C.ObjectSize;
           TotalTime = IO * (C.TotalSize / CountPage * (1 - exp(-1 * (CountObject / CountPage))))
                       + CountObject * Output;
         } |}
  in
  Alcotest.(check int) "four assignments" 4 (List.length r.Ast.body);
  (match List.hd r.Ast.body with
   | Ast.Local "CountPage", _ -> ()
   | _ -> Alcotest.fail "first assignment is a local");
  Alcotest.(check int) "three cost vars" 3 (List.length (Ast.rule_provides r))

let test_rule_heads_variants () =
  let heads =
    [ "rule project(C, G) { TotalTime = 1; }";
      "rule sort(C, G) { TotalTime = 1; }";
      "rule join(C1, C2, P) { TotalTime = 1; }";
      "rule join(Employee, Book, id = id) { TotalTime = 1; }";
      "rule union(C1, C2) { TotalTime = 1; }";
      "rule dedup(C) { TotalTime = 1; }";
      "rule aggregate(C, G) { TotalTime = 1; }";
      "rule submit(W, C) { TotalTime = 1; }";
      "rule select(Employee, salary = 77) { TotalTime = 1; }" ]
  in
  List.iter (fun s -> ignore (Parser.parse_rule ~what:"heads" s)) heads

let test_variable_convention () =
  Alcotest.(check bool) "C is var" true (Ast.is_variable_name "C");
  Alcotest.(check bool) "R1 is var" true (Ast.is_variable_name "R1");
  Alcotest.(check bool) "V is var" true (Ast.is_variable_name "V");
  Alcotest.(check bool) "Employee is not" false (Ast.is_variable_name "Employee");
  Alcotest.(check bool) "employee is not" false (Ast.is_variable_name "employee");
  Alcotest.(check bool) "CX is not" false (Ast.is_variable_name "CX")

let test_parse_errors () =
  let bad s =
    try
      ignore (Parser.parse_rule ~what:"bad" s);
      false
    with Err.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown operator" true (bad "rule frobnicate(C) { TotalTime = 1; }");
  Alcotest.(check bool) "missing semicolon" true (bad "rule scan(C) { TotalTime = 1 }");
  Alcotest.(check bool) "lone literal predicate" true
    (bad "rule select(C, salary) { TotalTime = 1; }")

(* --- Parser: interfaces and sources (Figs 3-5) ------------------------------ *)

let employee_source =
  {|
  source objstore {
    let PageSize = 4096;
    def half(x) = x / 2;
    interface Employee {
      attribute long salary;
      attribute string Name;
      cardinality extent(10000, 15, 120);
      cardinality attribute(salary, true, 10000, 1000, 30000);
      cardinality attribute(Name, true, 10000, "Adiba", "Valduriez");
      rule scan(Employee) { TotalTime = 42; }
    }
    rule select(C, P) { TotalTime = C.TotalTime; }
  }
  |}

let test_parse_source () =
  let s = Parser.parse_source ~what:"fig4" employee_source in
  Alcotest.(check string) "name" "objstore" s.Ast.source_name;
  Alcotest.(check int) "items" 4 (List.length s.Ast.items);
  let rules = Ast.rules_of_source s in
  Alcotest.(check int) "two rules" 2 (List.length rules);
  (match rules with
   | [ (Some "Employee", _); (None, _) ] -> ()
   | _ -> Alcotest.fail "interface attribution");
  (match List.nth s.Ast.items 2 with
   | Ast.Interface i ->
     Alcotest.(check string) "iface" "Employee" i.Ast.iface_name;
     Alcotest.(check int) "members" 6 (List.length i.Ast.members);
     (match List.nth i.Ast.members 3 with
      | Ast.Attr_stats { attr = "salary"; indexed = true; distinct; min; max } ->
        Alcotest.(check (float 0.)) "distinct" 10000. distinct;
        Alcotest.(check bool) "min" true (Constant.equal min (Constant.Int 1000));
        Alcotest.(check bool) "max" true (Constant.equal max (Constant.Int 30000))
      | _ -> Alcotest.fail "salary stats")
   | _ -> Alcotest.fail "expected interface")

let test_parse_inheritance_and_capabilities () =
  let s =
    Parser.parse_source ~what:"inh"
      {| source s {
           capabilities scan, select;
           interface A { attribute long x; cardinality extent(1, 1, 1); }
           interface B : A { attribute long y; cardinality extent(2, 2, 1); }
         } |}
  in
  (match s.Ast.items with
   | [ Ast.Capabilities [ "scan"; "select" ];
       Ast.Interface { iface_parent = None; _ };
       Ast.Interface { iface_name = "B"; iface_parent = Some "A"; _ } ] ->
     ()
   | _ -> Alcotest.fail "bad inheritance/capabilities parse");
  (* round-trips through the pretty-printer *)
  let printed = Pp.source_to_string s in
  Alcotest.(check bool) "round-trip" true (Parser.parse_source ~what:"rt" printed = s)

let test_parse_items () =
  let items = Parser.parse_items ~what:"items" "let X = 3; rule scan(C) { TotalTime = X; }" in
  Alcotest.(check int) "two items" 2 (List.length items)

(* --- Static checking ---------------------------------------------------------- *)

module Check = Disco_analysis.Check
module Finding = Disco_analysis.Finding

let check text = Check.check_source (Parser.parse_source ~what:"check" text)

let has_error issues needle =
  List.exists
    (fun i ->
      i.Finding.severity = Finding.Error
      &&
      let s = i.Finding.msg in
      let nl = String.length needle and hl = String.length s in
      let rec go j = j + nl <= hl && (String.sub s j nl = needle || go (j + 1)) in
      go 0)
    issues

(* An error finding with this tag located on this line. *)
let error_at issues tag line =
  List.exists
    (fun f ->
      f.Finding.severity = Finding.Error
      && f.Finding.tag = tag
      && Option.map (fun (p : Ast.pos) -> p.Ast.line) f.Finding.loc = Some line)
    issues

let test_check_clean () =
  (* the real exports are clean *)
  Alcotest.(check int) "employee fixture has no errors" 0
    (List.length (Finding.errors (check employee_source)))

let test_check_unbound_variable () =
  let issues =
    check "source s { rule scan(C) { TotalTime = V * 2; } }"
  in
  Alcotest.(check bool) "unbound V" true (has_error issues "unbound variable \"V\"");
  (* bound by the head: fine *)
  Alcotest.(check int) "bound is clean" 0
    (List.length
       (Finding.errors (check "source s { rule select(C, A = V) { TotalTime = V * 2; } }")))

let test_check_locals_bind () =
  (* a body-local assignment binds for later formulas (Fig 13 style) *)
  Alcotest.(check int) "local ok" 0
    (List.length
       (Finding.errors
          (check
             "source s { rule scan(C) { X1 = 3; TotalTime = X1 * 2; } }")));
  (* but not before its assignment *)
  Alcotest.(check bool) "use before assignment" true
    (has_error
       (check "source s { rule scan(C) { TotalTime = X1 * 2; X1 = 3; } }")
       "unbound variable")

let test_check_unknown_function () =
  Alcotest.(check bool) "unknown fn" true
    (has_error (check "source s { rule scan(C) { TotalTime = frob(1); } }")
       "unknown function");
  Alcotest.(check int) "context fns allowed" 0
    (List.length
       (Finding.errors
          (check "source s { rule select(C, P) { TotalTime = sel(P) * 10; } }")));
  Alcotest.(check int) "defs allowed" 0
    (List.length
       (Finding.errors
          (check "source s { def f(x) = x; rule scan(C) { TotalTime = f(1); } }")))

let test_check_duplicates () =
  Alcotest.(check bool) "duplicate assignment" true
    (has_error
       (check "source s { rule scan(C) { TotalTime = 1; TotalTime = 2; } }")
       "duplicate assignment");
  Alcotest.(check bool) "duplicate attribute" true
    (has_error
       (check
          "source s { interface A { attribute long x; attribute long x; \
           cardinality extent(1,1,1); } }")
       "duplicate attribute")

let test_check_def_if () =
  (* [if] compiles to a conditional, so a def of that name is refused *)
  Alcotest.(check bool) "def if" true
    (has_error
       (check "source s { def if(c, t, e) = t; rule scan(C) { TotalTime = 1; } }")
       "cannot be redefined");
  Alcotest.(check int) "if is callable" 0
    (List.length
       (Finding.errors
          (check "source s { rule scan(C) { TotalTime = if(1, 2, 3); } }")))

let test_check_cycles () =
  (* a let defined in terms of itself, counting the lets read through the
     defs it calls, and a def that calls itself, directly or not: errors
     located at the let or def, so Mediator.register refuses the export *)
  let at = error_at in
  let lets = check "source s {\n let A = B + 1;\n let B = A + 1;\n rule scan(C) { TotalTime = A; } }" in
  Alcotest.(check bool) "let A" true (at lets "let-cycle" 2);
  Alcotest.(check bool) "let B" true (at lets "let-cycle" 3);
  Alcotest.(check bool) "through a def" true
    (has_error
       (check "source s { let A = f(1); def f(x) = A + x; rule scan(C) { TotalTime = A; } }")
       "let A is defined in terms of itself");
  Alcotest.(check bool) "direct recursion" true
    (at (check "source s {\n def f(x) = f(x) + 1;\n rule scan(C) { TotalTime = f(1); } }")
       "recursive-def" 2);
  Alcotest.(check int) "mutual recursion: both defs" 2
    (List.length
       (List.filter
          (fun f -> f.Finding.tag = "recursive-def")
          (check
             "source s { def f(x) = g(x); def g(y) = f(y) * 2; rule scan(C) { TotalTime = f(1); } }")));
  Alcotest.(check int) "acyclic lets and defs, forward references included" 0
    (List.length
       (Finding.errors
          (check
             "source s { let A = B + f(1); let B = 2; def f(x) = g(x); def g(y) = y; \
              rule scan(C) { TotalTime = A; } }")))

let test_check_bodies () =
  (* the calls of def and let bodies bind as a rule's do, and a def called
     with the wrong number of arguments is refused wherever the call is;
     each finding is located at its declaration (in a rule, its
     assignment) *)
  Alcotest.(check bool) "unknown function in a def" true
    (error_at
       (check "source s {\n def f(x) = frob(x);\n rule scan(C) { TotalTime = f(1); } }")
       "unknown-function" 2);
  Alcotest.(check bool) "unknown function in a let" true
    (error_at
       (check "source s {\n rule scan(C) { TotalTime = K; }\n let K = zork(2); }")
       "unknown-function" 3);
  Alcotest.(check bool) "wrong arity in a rule" true
    (error_at
       (check "source s { def f(x) = x;\n rule scan(C) {\n TotalTime = f(1, 2); } }")
       "arity" 3);
  Alcotest.(check bool) "wrong arity in a def" true
    (error_at
       (check "source s { def f(x) = x;\n def g(y) = f(y, y);\n rule scan(C) { TotalTime = g(1); } }")
       "arity" 2);
  Alcotest.(check bool) "wrong arity in a let" true
    (error_at
       (check "source s { def f(x) = x;\n\n let K = f();\n rule scan(C) { TotalTime = K; } }")
       "arity" 3);
  Alcotest.(check int) "builtins, context functions and defs in bodies" 0
    (List.length
       (Finding.errors
          (check
             "source s { def s(p) = sel(p) * max(1, 2); def t(p) = s(p); let K = min(3, 4); \
              rule select(C, P) { TotalTime = t(P) * K; } }")))

let test_check_interface_issues () =
  Alcotest.(check bool) "stats for undeclared attribute" true
    (has_error
       (check
          "source s { interface A { attribute long x; \
           cardinality extent(1,1,1); \
           cardinality attribute(y, false, 1, 0, 1); } }")
       "undeclared attribute");
  Alcotest.(check bool) "parent after child" true
    (has_error
       (check
          "source s { interface B : A { cardinality extent(1,1,1); } \
           interface A { cardinality extent(1,1,1); } }")
       "not declared before");
  (* missing extent: a warning, not an error *)
  let issues = check "source s { interface A { attribute long x; } }" in
  Alcotest.(check int) "no errors" 0 (List.length (Finding.errors issues));
  Alcotest.(check bool) "warns" true
    (List.exists (fun i -> i.Finding.severity = Finding.Warning) issues)

let test_check_generic_model_clean () =
  (* the generic model itself passes its own checker *)
  let decl =
    Parser.parse_source ~what:"generic" (Disco_core.Generic.text ())
  in
  Alcotest.(check int) "generic model clean" 0
    (List.length (Finding.errors (Check.check_source decl)));
  let local =
    Parser.parse_source ~what:"local" Disco_core.Generic.local_text
  in
  Alcotest.(check int) "local rules clean" 0
    (List.length (Finding.errors (Check.check_source local)))

(* --- Pretty-printer round-trip ----------------------------------------------- *)

(* Reparsing pretty-printed text yields different source positions, which
   don't participate in semantic identity — compare position-erased ASTs. *)
let test_pp_roundtrip_source () =
  let s1 = Parser.parse_source ~what:"rt1" employee_source in
  let printed = Pp.source_to_string s1 in
  let s2 = Parser.parse_source ~what:"rt2" printed in
  Alcotest.(check bool) "round-trip equal" true
    (Ast.erase_source_pos s1 = Ast.erase_source_pos s2)

(* parse ∘ pp ∘ parse = parse on every real export in the tree: the generic
   model, the mediator's local rules, and each demo wrapper's registration
   text — as whole sources and rule by rule. *)
let real_sources () =
  [ ("generic", Disco_core.Generic.text ());
    ("local", Disco_core.Generic.local_text) ]
  @ List.map
      (fun w ->
        (w.Disco_wrapper.Wrapper.name, Disco_wrapper.Wrapper.registration_text w))
      (Disco_wrapper.Demo.make ~sizes:Disco_wrapper.Demo.small_sizes ())

let test_pp_roundtrip_real_sources () =
  List.iter
    (fun (name, text) ->
      let s1 = Parser.parse_source ~what:name text in
      let s2 = Parser.parse_source ~what:(name ^ " reparsed") (Pp.source_to_string s1) in
      Alcotest.(check bool) (name ^ " source round-trips") true
        (Ast.erase_source_pos s1 = Ast.erase_source_pos s2))
    (real_sources ())

let test_pp_roundtrip_real_rules () =
  List.iter
    (fun (name, text) ->
      let s = Parser.parse_source ~what:name text in
      List.iter
        (fun (_iface, r) ->
          let printed = Fmt.str "%a" Pp.rule r in
          let r2 = Parser.parse_rule ~what:(name ^ " rule reparsed") printed in
          let r = Ast.erase_rule_pos r and r2 = Ast.erase_rule_pos r2 in
          if r2 <> r then
            Alcotest.failf "%s: rule does not round-trip:@.%s" name printed)
        (Ast.rules_of_source s))
    (real_sources ())

(* Evaluate a formula resolved in a let's scope: its names read through
   [value], its calls bound to [def_of]'s defs and the builtins. *)
let eval_let ?(def_of = fun _ -> None) value e =
  let leaves =
    { Compile.name =
        (function
          | Compile.Dynamic x -> fun () () _ -> value [ x ]
          | Compile.Path segs -> fun () () _ -> value (List.map fst segs)
          | _ -> invalid_arg "eval_let");
      call = (fun fn _ () () _ -> raise (Err.Eval_error ("no fn " ^ fn))) }
  in
  Compile.compile leaves (Compile.let_body ~def_of e) () () [||]

(* random expression generator for the round-trip property *)
let rec expr_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [ map (fun f -> Ast.Num (Float.of_int f)) (int_range 0 100);
        map (fun v -> Ast.Ref [ v ]) (oneofl [ "x"; "y"; "IO"; "C" ]);
        return (Ast.Ref [ "C"; "CountObject" ]) ]
  else
    oneof
      [ expr_gen 0;
        map2
          (fun op (a, b) -> Ast.Binop (op, a, b))
          (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ])
          (pair (expr_gen (depth - 1)) (expr_gen (depth - 1)));
        map (fun a -> Ast.Neg a) (expr_gen (depth - 1));
        map
          (fun (a, b) -> Ast.Call ("max", [ a; b ]))
          (pair (expr_gen (depth - 1)) (expr_gen (depth - 1))) ]

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"expr print/reparse round-trip" ~count:300 (expr_gen 4)
    (fun e ->
      let printed = Fmt.str "%a" Pp.expr e in
      let reparsed = Parser.parse_expr ~what:"rt" printed in
      (* compare by evaluation on a fixed environment to tolerate
         reassociation-invariant printing differences *)
      let value path = Value.Vnum (float_of_int (Hashtbl.hash path mod 7) +. 1.) in
      let safe_eval e = try Some (Value.to_num (eval_let value e)) with _ -> None in
      match safe_eval e, safe_eval reparsed with
      | Some a, Some b -> Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a)
      | None, None -> true
      | _ -> false)

(* --- Compilation and builtins -------------------------------------------------- *)

let eval ?(bindings = []) s =
  Value.to_num
    (eval_let
       (fun path ->
         match List.assoc_opt (String.concat "." path) bindings with
         | Some v -> Value.Vnum v
         | None -> raise (Err.Eval_error "unbound"))
       (pexpr s))

let test_compile_arith () =
  Alcotest.(check (float 1e-9)) "arith" 7. (eval "1 + 2 * 3");
  Alcotest.(check (float 1e-9)) "div" 2.5 (eval "5 / 2");
  Alcotest.(check (float 1e-9)) "neg" (-4.) (eval "-(2 + 2)");
  Alcotest.(check (float 1e-9)) "ref" 10. (eval ~bindings:[ ("x", 4.) ] "x + 6")

let test_compile_division_by_zero () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (eval "1 / 0");
       false
     with Err.Eval_error _ -> true)

let test_builtins_math () =
  Alcotest.(check (float 1e-9)) "min" 2. (eval "min(5, 2, 3)");
  Alcotest.(check (float 1e-9)) "max" 5. (eval "max(5, 2, 3)");
  Alcotest.(check (float 1e-9)) "ceil" 3. (eval "ceil(2.1)");
  Alcotest.(check (float 1e-9)) "floor" 2. (eval "floor(2.9)");
  Alcotest.(check (float 1e-6)) "exp/ln" 1. (eval "ln(exp(1))");
  Alcotest.(check (float 1e-9)) "log2" 10. (eval "log2(1024)");
  Alcotest.(check (float 1e-9)) "pow" 8. (eval "pow(2, 3)");
  Alcotest.(check (float 1e-9)) "if true" 1. (eval "if(2 - 1, 1, 0)");
  Alcotest.(check (float 1e-9)) "if false" 0. (eval "if(0, 1, 0)")

let test_builtin_arity_errors () =
  Alcotest.(check bool) "exp arity" true
    (try
       ignore (eval "exp(1, 2)");
       false
     with Err.Eval_error _ -> true)

let test_yao_exact () =
  (* bounds *)
  Alcotest.(check (float 1e-9)) "k=0" 0. (Builtins.yao_exact ~objects:100. ~pages:10. ~selected:0.);
  Alcotest.(check (float 1e-9)) "k=n" 1.
    (Builtins.yao_exact ~objects:100. ~pages:10. ~selected:100.);
  (* one object per page: fraction = k/n *)
  Alcotest.(check (float 1e-6)) "m=n" 0.25
    (Builtins.yao_exact ~objects:100. ~pages:100. ~selected:25.);
  (* close to the exponential approximation for large n *)
  let exact = Builtins.yao_exact ~objects:70000. ~pages:1000. ~selected:700. in
  let approx = Builtins.yao_approx ~pages:1000. ~selected:700. in
  Alcotest.(check bool) "close to approx" true (Float.abs (exact -. approx) < 0.02)

let prop_yao_monotone =
  QCheck2.Test.make ~name:"yao monotone and bounded" ~count:200
    QCheck2.Gen.(pair (int_range 1 500) (int_range 0 500))
    (fun (k1, k2) ->
      let f k = Builtins.yao_exact ~objects:1000. ~pages:50. ~selected:(float_of_int k) in
      let a = f (min k1 k2) and b = f (max k1 k2) in
      a <= b +. 1e-9 && a >= 0. && b <= 1.)

let test_defs () =
  let d = { Compile.params = [ "x"; "y" ]; def_ast = pexpr "x * 10 + y" } in
  let def_of = function "f" -> Some d | _ -> None in
  let unbound _ = raise (Err.Eval_error "unbound") in
  Alcotest.(check (float 1e-9)) "def apply" 42.
    (Value.to_num (eval_let ~def_of unbound (pexpr "f(4, 2)")));
  Alcotest.(check bool) "wrong arity raises" true
    (try
       ignore (eval_let ~def_of unbound (pexpr "f(1)"));
       false
     with Err.Eval_error _ -> true)

let test_value_to_num () =
  Alcotest.(check (float 0.)) "const int" 3. (Value.to_num (Value.Vconst (Constant.Int 3)));
  Alcotest.(check bool) "string raises" true
    (try
       ignore (Value.to_num (Value.Vconst (Constant.String "x")));
       false
     with Err.Eval_error _ -> true);
  Alcotest.(check bool) "pred raises" true
    (try
       ignore (Value.to_num (Value.Vpred Pred.True));
       false
     with Err.Eval_error _ -> true)

let () =
  Alcotest.run "costlang"
    [ ( "lexer",
        [ Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "numbers and paths" `Quick test_lexer_numbers;
          Alcotest.test_case "strings and comments" `Quick test_lexer_strings_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions ] );
      ( "parser",
        [ Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
          Alcotest.test_case "paths and calls" `Quick test_expr_paths_calls;
          Alcotest.test_case "fig 8 scan rule" `Quick test_rule_fig8_scan;
          Alcotest.test_case "fig 8 select rule" `Quick test_rule_fig8_select;
          Alcotest.test_case "fig 13 locals" `Quick test_rule_fig13_locals;
          Alcotest.test_case "all head forms" `Quick test_rule_heads_variants;
          Alcotest.test_case "variable convention" `Quick test_variable_convention;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "full source" `Quick test_parse_source;
          Alcotest.test_case "inheritance and capabilities" `Quick
            test_parse_inheritance_and_capabilities;
          Alcotest.test_case "bare items" `Quick test_parse_items ] );
      ( "checker",
        [ Alcotest.test_case "clean exports" `Quick test_check_clean;
          Alcotest.test_case "unbound variables" `Quick test_check_unbound_variable;
          Alcotest.test_case "locals bind sequentially" `Quick test_check_locals_bind;
          Alcotest.test_case "unknown functions" `Quick test_check_unknown_function;
          Alcotest.test_case "duplicates" `Quick test_check_duplicates;
          Alcotest.test_case "def if" `Quick test_check_def_if;
          Alcotest.test_case "let and def cycles" `Quick test_check_cycles;
          Alcotest.test_case "def and let bodies" `Quick test_check_bodies;
          Alcotest.test_case "interface issues" `Quick test_check_interface_issues;
          Alcotest.test_case "generic model is clean" `Quick
            test_check_generic_model_clean ] );
      ( "pretty-printer",
        [ Alcotest.test_case "source round-trip" `Quick test_pp_roundtrip_source;
          Alcotest.test_case "real sources round-trip" `Quick
            test_pp_roundtrip_real_sources;
          Alcotest.test_case "real rules round-trip" `Quick
            test_pp_roundtrip_real_rules;
          QCheck_alcotest.to_alcotest prop_expr_roundtrip ] );
      ( "compile",
        [ Alcotest.test_case "arithmetic" `Quick test_compile_arith;
          Alcotest.test_case "division by zero" `Quick test_compile_division_by_zero;
          Alcotest.test_case "math builtins" `Quick test_builtins_math;
          Alcotest.test_case "builtin arity errors" `Quick test_builtin_arity_errors;
          Alcotest.test_case "yao exact" `Quick test_yao_exact;
          QCheck_alcotest.to_alcotest prop_yao_monotone;
          Alcotest.test_case "wrapper-defined functions" `Quick test_defs;
          Alcotest.test_case "value conversions" `Quick test_value_to_num ] ) ]
