(* Tests for lib/sql: the client query language. *)

open Disco_common
open Disco_algebra
open Disco_sql

let parse = Sql.parse ~what:"test"

let test_basic_select () =
  let q = parse "select e.name, e.salary from Employee e where e.salary > 1000" in
  Alcotest.(check bool) "not star" false q.Sql.star;
  Alcotest.(check int) "two items" 2 (List.length q.Sql.items);
  Alcotest.(check int) "one relation" 1 (List.length q.Sql.relations);
  let r = List.hd q.Sql.relations in
  Alcotest.(check string) "collection" "Employee" r.Sql.rel_collection;
  Alcotest.(check string) "alias" "e" r.Sql.rel_alias;
  Alcotest.(check (option string)) "no source" None r.Sql.rel_source;
  (match q.Sql.where with
   | Pred.Cmp ("e.salary", Pred.Gt, Constant.Int 1000) -> ()
   | p -> Alcotest.failf "bad where: %a" Pred.pp p)

let test_source_qualified_relation () =
  let q = parse "select * from relstore.Employee as e" in
  Alcotest.(check bool) "star" true q.Sql.star;
  let r = List.hd q.Sql.relations in
  Alcotest.(check (option string)) "source" (Some "relstore") r.Sql.rel_source;
  Alcotest.(check string) "alias via AS" "e" r.Sql.rel_alias

let test_default_alias () =
  let q = parse "select * from Employee" in
  Alcotest.(check string) "alias = collection" "Employee"
    (List.hd q.Sql.relations).Sql.rel_alias

let test_join_query () =
  let q =
    parse
      "select e.name from Employee e, Department d \
       where e.dept_id = d.id and d.city = \"Paris\""
  in
  Alcotest.(check int) "two relations" 2 (List.length q.Sql.relations);
  (match Pred.conjuncts q.Sql.where with
   | [ Pred.Attr_cmp ("e.dept_id", Pred.Eq, "d.id");
       Pred.Cmp ("d.city", Pred.Eq, Constant.String "Paris") ] ->
     ()
   | _ -> Alcotest.fail "bad conjuncts")

let test_compound_where () =
  let q =
    parse
      "select * from T where (a < 5 or a > 10) and not b = 3"
  in
  (match q.Sql.where with
   | Pred.And (Pred.Or _, Pred.Not _) -> ()
   | p -> Alcotest.failf "bad structure: %a" Pred.pp p)

let test_aggregates () =
  let q =
    parse
      "select d.city, count(*) as n, avg(e.salary) from Employee e, Department d \
       where e.dept_id = d.id group by d.city order by n desc limit 3"
  in
  (match q.Sql.items with
   | [ Sql.Col "d.city"; Sql.Agg (Plan.Count, "", "n"); Sql.Agg (Plan.Avg, "e.salary", name) ] ->
     Alcotest.(check string) "default agg name" "avg_salary" name
   | _ -> Alcotest.fail "bad items");
  Alcotest.(check (list string)) "group" [ "d.city" ] q.Sql.group_by;
  (match q.Sql.order_by with
   | [ ("n", Plan.Desc) ] -> ()
   | _ -> Alcotest.fail "bad order");
  Alcotest.(check (option int)) "limit" (Some 3) q.Sql.limit

let test_order_variants () =
  let q = parse "select a from T order by a asc, b desc, c" in
  (match q.Sql.order_by with
   | [ ("a", Plan.Asc); ("b", Plan.Desc); ("c", Plan.Asc) ] -> ()
   | _ -> Alcotest.fail "bad order keys")

let test_distinct () =
  Alcotest.(check bool) "distinct" true (parse "select distinct a from T").Sql.distinct;
  Alcotest.(check bool) "no distinct" false (parse "select a from T").Sql.distinct

let test_case_insensitive_keywords () =
  let q = parse "SELECT a FROM T WHERE a = 1 ORDER BY a" in
  Alcotest.(check int) "parsed" 1 (List.length q.Sql.items)

let test_constants () =
  let q = parse "select * from T where a = -5 and b = 2.5 and c = true and d = null" in
  (match Pred.conjuncts q.Sql.where with
   | [ Pred.Cmp (_, _, Constant.Int (-5));
       Pred.Cmp (_, _, Constant.Float 2.5);
       Pred.Cmp (_, _, Constant.Bool true);
       Pred.Cmp (_, _, Constant.Null) ] ->
     ()
   | _ -> Alcotest.fail "bad constants")

let test_adt_condition () =
  let q =
    parse "select d.doc_id from Document d where lang_match(d.lang, \"en\") and d.bytes > 10"
  in
  (match Pred.conjuncts q.Sql.where with
   | [ Pred.Apply ("lang_match", "d.lang", Constant.String "en"); Pred.Cmp _ ] -> ()
   | _ -> Alcotest.fail "bad ADT condition");
  (* aggregate-function names still parse as aggregates in the item list,
     not as ADT predicates *)
  let q2 = parse "select count(*) from T where fuzzy(a, 3)" in
  (match q2.Sql.where with
   | Pred.Apply ("fuzzy", "a", Constant.Int 3) -> ()
   | _ -> Alcotest.fail "bare attr ADT")

let test_errors () =
  let bad s =
    try
      ignore (parse s);
      false
    with Err.Parse_error _ -> true
  in
  Alcotest.(check bool) "missing from" true (bad "select a");
  Alcotest.(check bool) "dangling where" true (bad "select a from T where");
  Alcotest.(check bool) "trailing junk" true (bad "select a from T where a = 1 1");
  Alcotest.(check bool) "bad item" true (bad "select , from T");
  Alcotest.(check bool) "bad limit" true (bad "select a from T limit x")

let test_semicolon_tolerated () =
  let q = parse "select a from T;" in
  Alcotest.(check int) "one relation" 1 (List.length q.Sql.relations)

let test_aliases_helper () =
  let q = parse "select * from A x, B y" in
  Alcotest.(check (list string)) "aliases" [ "x"; "y" ] (Sql.aliases q)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* LIMIT takes a plain integer in [0, max_int]; a literal the lexer's float
   would round, overflow or truncate is a parse error naming LIMIT. *)
let test_limit_literals () =
  let limit sql = (parse sql).Sql.limit in
  Alcotest.(check (option int)) "LIMIT 0" (Some 0) (limit "select a from T limit 0");
  Alcotest.(check (option int)) "LIMIT 3" (Some 3) (limit "select a from T limit 3");
  Alcotest.(check (option int)) "LIMIT max_int" (Some max_int)
    (limit (Fmt.str "select a from T limit %d" max_int));
  Alcotest.(check (option int)) "LIMIT on a later line" (Some 7)
    (limit "select a\nfrom T\n  limit 7;");
  List.iter
    (fun lit ->
      match parse ("select e.id from Employee e\nlimit " ^ lit) with
      | q -> Alcotest.failf "LIMIT %s parsed as %a" lit Fmt.(option int) q.Sql.limit
      | exception Err.Parse_error { msg; _ } ->
        if not (contains msg "LIMIT") then
          Alcotest.failf "LIMIT %s: the error does not name LIMIT: %s" lit msg)
    [ "99999999999999999999999"; "1e400"; "4611686018427387904"; "2.9" ]

(* --- Parser fuzz ------------------------------------------------------------- *)

(* Texts the demo federation really sends through the two parsers: client
   queries, and the cost-language exports its wrappers upload at
   registration (untrusted input to the mediator). *)
let sql_corpus =
  [ "select e.name from Employee e where e.salary > 5000";
    "select e.name, e.age from Employee e where e.age >= 30 order by e.age desc";
    "select e.name, d.city from Employee e, Department d \
     where e.dept_id = d.id and d.budget > 100000";
    "select d.id, count(*) as n, sum(e.salary) as s from Employee e, \
     Department d where e.dept_id = d.id group by d.id";
    "select distinct e.dept_id from Employee e limit 5";
    "select doc.doc_id from Document doc where lang_match(doc.lang, \"en\")";
    "select * from relstore.Employee as e where e.name <> \"Ann\" and e.age <= 40.5;" ]

let export_corpus =
  List.map Disco_wrapper.Wrapper.registration_text
    (Disco_wrapper.Demo.make ~sizes:Disco_wrapper.Demo.small_sizes ())

(* 1–4 byte edits (replace, insert or delete at a random position, any byte
   value), applied in turn. *)
let gen_edited texts =
  QCheck2.Gen.(
    let* text = oneofl texts in
    let* n = int_range 1 4 in
    let* edits = list_repeat n (triple (int_range 0 2) nat char) in
    return
      (List.fold_left
         (fun t (kind, pos, c) ->
           let n = String.length t in
           match kind with
           | 0 when n > 0 ->
             let p = pos mod n in
             String.mapi (fun i x -> if i = p then c else x) t
           | 1 ->
             let p = pos mod (n + 1) in
             String.sub t 0 p ^ String.make 1 c ^ String.sub t p (n - p)
           | _ when n > 0 ->
             let p = pos mod n in
             String.sub t 0 p ^ String.sub t (p + 1) (n - p - 1)
           | _ -> t)
         text edits))

(* An edited text parses or raises [Err.Parse_error]; any other exception
   escapes and fails the property with the text. *)
let parses_or_fails_typed parse text =
  match parse text with _ -> true | exception Err.Parse_error _ -> true

let prop_sql_fuzz =
  QCheck2.Test.make ~count:20_000 ~name:"edited SQL fails typed"
    ~print:(Printf.sprintf "%S") (gen_edited sql_corpus)
    (parses_or_fails_typed parse)

let prop_export_fuzz =
  QCheck2.Test.make ~count:10_000 ~name:"edited exports fail typed"
    ~print:(Printf.sprintf "%S") (gen_edited export_corpus)
    (parses_or_fails_typed (Disco_costlang.Parser.parse_source ~what:"fuzz"))

let () =
  Alcotest.run "sql"
    [ ( "parser",
        [ Alcotest.test_case "basic select" `Quick test_basic_select;
          Alcotest.test_case "source-qualified relation" `Quick test_source_qualified_relation;
          Alcotest.test_case "default alias" `Quick test_default_alias;
          Alcotest.test_case "join query" `Quick test_join_query;
          Alcotest.test_case "compound where" `Quick test_compound_where;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "order variants" `Quick test_order_variants;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "case-insensitive keywords" `Quick test_case_insensitive_keywords;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "ADT conditions" `Quick test_adt_condition;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "semicolon" `Quick test_semicolon_tolerated;
          Alcotest.test_case "aliases" `Quick test_aliases_helper;
          Alcotest.test_case "LIMIT literals" `Quick test_limit_literals ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_sql_fuzz;
          QCheck_alcotest.to_alcotest prop_export_fuzz ] ) ]
