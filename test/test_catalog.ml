(* Tests for lib/catalog: schemas, statistics, catalog registration. *)

open Disco_common
open Disco_catalog

let employee =
  Schema.collection "Employee"
    [ ("id", Schema.Tint); ("salary", Schema.Tint); ("name", Schema.Tstring) ]

(* --- Schema ---------------------------------------------------------------- *)

let test_schema_lookup () =
  Alcotest.(check (list string)) "attribute names" [ "id"; "salary"; "name" ]
    (Schema.attribute_names employee);
  Alcotest.(check bool) "has salary" true (Schema.has_attribute employee "salary");
  Alcotest.(check bool) "no age" false (Schema.has_attribute employee "age");
  Alcotest.(check (option int)) "index of name" (Some 2) (Schema.attr_index employee "name");
  Alcotest.(check (option int)) "index of missing" None (Schema.attr_index employee "xyz")

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_of_values () =
  let vals = [ Constant.Int 5; Constant.Int 1; Constant.Int 5; Constant.Int 9 ] in
  let st = Stats.attribute_of_values ~indexed:true vals in
  Alcotest.(check int) "distinct" 3 st.Stats.count_distinct;
  Alcotest.(check bool) "min" true (Constant.equal st.Stats.min (Constant.Int 1));
  Alcotest.(check bool) "max" true (Constant.equal st.Stats.max (Constant.Int 9));
  Alcotest.(check bool) "indexed" true st.Stats.indexed

let test_stats_of_empty () =
  let st = Stats.attribute_of_values [] in
  Alcotest.(check int) "default distinct" Stats.default_attribute.Stats.count_distinct
    st.Stats.count_distinct

let test_stats_of_strings () =
  let vals = [ Constant.String "Valduriez"; Constant.String "Adiba"; Constant.String "Naacke" ] in
  let st = Stats.attribute_of_values vals in
  Alcotest.(check bool) "min Adiba" true (Constant.equal st.Stats.min (Constant.String "Adiba"));
  Alcotest.(check bool) "max Valduriez" true
    (Constant.equal st.Stats.max (Constant.String "Valduriez"));
  Alcotest.(check int) "distinct" 3 st.Stats.count_distinct

(* --- Catalog ------------------------------------------------------------------ *)

let entry ?(attributes = []) schema extent =
  (schema.Schema.coll_name, { Catalog.schema; extent; attributes; parent = None })

let sample_catalog () =
  let c = Catalog.create () in
  Catalog.replace_source c ~source:"s1" ~capabilities:None
    ~collections:
      [ entry employee
          (Stats.extent ~count_objects:10000 ~total_size:1_200_000 ~object_size:120)
          ~attributes:
            [ ( "salary",
                Stats.attribute ~indexed:true ~count_distinct:5000
                  ~min:(Constant.Int 1000) ~max:(Constant.Int 30000) () ) ] ];
  c

let test_catalog_roundtrip () =
  let c = sample_catalog () in
  let e = Catalog.extent_stats c ~source:"s1" "Employee" in
  Alcotest.(check int) "count" 10000 e.Stats.count_objects;
  Alcotest.(check int) "size" 1_200_000 e.Stats.total_size;
  let a = Catalog.attribute_stats c ~source:"s1" ~collection:"Employee" "salary" in
  Alcotest.(check bool) "indexed" true a.Stats.indexed;
  Alcotest.(check int) "distinct" 5000 a.Stats.count_distinct

let test_catalog_default_attribute () =
  let c = sample_catalog () in
  (* name exists in the schema but exported no statistics: defaults *)
  let a = Catalog.attribute_stats c ~source:"s1" ~collection:"Employee" "name" in
  Alcotest.(check bool) "not indexed" false a.Stats.indexed

let test_catalog_unknown () =
  let c = sample_catalog () in
  Alcotest.check_raises "unknown source" (Err.Unknown_source "nope") (fun () ->
      ignore (Catalog.extent_stats c ~source:"nope" "Employee"));
  Alcotest.check_raises "unknown collection" (Err.Unknown_collection "s1.Missing")
    (fun () -> ignore (Catalog.extent_stats c ~source:"s1" "Missing"));
  Alcotest.check_raises "unknown attribute"
    (Err.Unknown_attribute { collection = "Employee"; attribute = "age" })
    (fun () -> ignore (Catalog.attribute_stats c ~source:"s1" ~collection:"Employee" "age"))

let test_catalog_reregistration () =
  let c = sample_catalog () in
  (* re-registration replaces statistics (the administrative interface for
     out-of-date statistics, paper §2.1) *)
  Catalog.replace_source c ~source:"s1" ~capabilities:None
    ~collections:
      [ entry employee
          (Stats.extent ~count_objects:20000 ~total_size:2_400_000 ~object_size:120) ];
  let e = Catalog.extent_stats c ~source:"s1" "Employee" in
  Alcotest.(check int) "updated count" 20000 e.Stats.count_objects;
  Alcotest.(check (list string)) "still one collection" [ "Employee" ]
    (Catalog.collections c ~source:"s1")

let test_locate_collection () =
  let c = sample_catalog () in
  Catalog.replace_source c ~source:"s2" ~capabilities:None
    ~collections:
      [ entry (Schema.collection "Project" [ ("id", Schema.Tint) ]) Stats.default_extent ];
  Alcotest.(check (option string)) "employee in s1" (Some "s1")
    (Catalog.locate_collection c "Employee");
  Alcotest.(check (option string)) "project in s2" (Some "s2")
    (Catalog.locate_collection c "Project");
  Alcotest.(check (option string)) "missing" None (Catalog.locate_collection c "Nope")

let test_mem_collection () =
  let c = sample_catalog () in
  Alcotest.(check bool) "mem" true (Catalog.mem_collection c ~source:"s1" "Employee");
  Alcotest.(check bool) "not mem" false (Catalog.mem_collection c ~source:"s1" "X");
  Alcotest.(check bool) "no source" false (Catalog.mem_collection c ~source:"zz" "Employee")

(* qcheck: attribute_of_values matches a naive specification *)
let prop_stats_spec =
  QCheck2.Test.make ~name:"attribute_of_values = naive spec" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_range (-20) 20))
    (fun ints ->
      let vals = List.map (fun i -> Constant.Int i) ints in
      let st = Stats.attribute_of_values vals in
      let sorted = List.sort_uniq compare ints in
      st.Stats.count_distinct = List.length sorted
      && Constant.equal st.Stats.min (Constant.Int (List.hd sorted))
      && Constant.equal st.Stats.max (Constant.Int (List.nth sorted (List.length sorted - 1))))

let () =
  Alcotest.run "catalog"
    [ ("schema", [ Alcotest.test_case "lookup" `Quick test_schema_lookup ]);
      ( "stats",
        [ Alcotest.test_case "of values" `Quick test_stats_of_values;
          Alcotest.test_case "of empty" `Quick test_stats_of_empty;
          Alcotest.test_case "of strings" `Quick test_stats_of_strings;
          QCheck_alcotest.to_alcotest prop_stats_spec ] );
      ( "catalog",
        [ Alcotest.test_case "roundtrip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "default attribute stats" `Quick test_catalog_default_attribute;
          Alcotest.test_case "unknown entries raise" `Quick test_catalog_unknown;
          Alcotest.test_case "re-registration" `Quick test_catalog_reregistration;
          Alcotest.test_case "locate collection" `Quick test_locate_collection;
          Alcotest.test_case "mem collection" `Quick test_mem_collection ] ) ]
