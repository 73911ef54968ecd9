(* Tests for lib/exec: tuples, physical translation (access-path selection),
   and the measuring evaluator — checked against a naive reference
   implementation on randomized data. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_storage
open Disco_exec

(* --- Fixtures ------------------------------------------------------------------ *)

let part_schema =
  Schema.collection "Part"
    [ ("id", Schema.Tint); ("weight", Schema.Tint); ("kind", Schema.Tstring) ]

let box_schema =
  Schema.collection "Box" [ ("id", Schema.Tint); ("part_id", Schema.Tint) ]

let mk_part_rows n =
  let rng = Rng.create ~seed:11 in
  let rows =
    List.init n (fun i ->
        [| Constant.Int (i + 1);
           Constant.Int (Rng.int rng 50);
           Constant.String (Rng.pick rng [| "a"; "b"; "c" |]) |])
  in
  let arr = Array.of_list rows in
  Rng.shuffle rng arr;
  Array.to_list arr

let part_table ?(n = 400) () =
  Table.create ~name:"Part" ~schema:part_schema ~object_size:56 ~index_on:[ "id" ]
    (mk_part_rows n)

let box_table ?(n = 120) ~parts () =
  let rng = Rng.create ~seed:13 in
  let rows =
    List.init n (fun i ->
        [| Constant.Int (i + 1); Constant.Int (1 + Rng.int rng parts) |])
  in
  Table.create ~name:"Box" ~schema:box_schema ~object_size:24 ~index_on:[ "id"; "part_id" ]
    rows

let engine = Costs.relational

let env () =
  { Run.engine; buffer = Buffer.create ~capacity:1024; hash_join = false; adts = [] }

let find_table parts boxes name =
  match name with
  | "Part" -> parts
  | "Box" -> boxes
  | other -> raise (Err.Unknown_collection other)

let exec ?parts ?boxes plan =
  let parts = match parts with Some t -> t | None -> part_table () in
  let boxes = match boxes with Some t -> t | None -> box_table ~parts:400 () in
  let phys = Physical.of_logical ~engine ~find_table:(find_table parts boxes) plan in
  (Run.run (env ()) phys, phys)

let scan_part = Plan.Scan { Plan.source = "s"; collection = "Part"; binding = "p" }
let scan_box = Plan.Scan { Plan.source = "s"; collection = "Box"; binding = "b" }

(* Naive reference evaluation over the raw rows. *)
let naive_part_rows table =
  List.map
    (fun row ->
      Tuple.make [| "p.id"; "p.weight"; "p.kind" |] row)
    (Table.rows table)

(* --- Tuple ---------------------------------------------------------------------- *)

let test_tuple_basics () =
  let t = Tuple.make [| "p.id"; "p.weight" |] [| Constant.Int 1; Constant.Int 9 |] in
  Alcotest.(check bool) "get qualified" true (Constant.equal (Tuple.get t "p.id") (Constant.Int 1));
  Alcotest.(check bool) "get by suffix" true
    (Constant.equal (Tuple.get t "weight") (Constant.Int 9));
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Tuple.get t "zzz");
       false
     with Err.Eval_error _ -> true);
  let u = Tuple.concat t (Tuple.make [| "b.id" |] [| Constant.Int 5 |]) in
  Alcotest.(check int) "concat arity" 3 (Tuple.arity u);
  let v = Tuple.project u [ "b.id"; "p.id" ] in
  Alcotest.(check int) "project arity" 2 (Tuple.arity v);
  Alcotest.(check bool) "project order" true
    (Constant.equal v.Tuple.values.(0) (Constant.Int 5))

let test_tuple_ambiguous_suffix () =
  let t =
    Tuple.make [| "p.id"; "b.id" |] [| Constant.Int 1; Constant.Int 2 |]
  in
  Alcotest.(check bool) "ambiguous bare name raises" true
    (try
       ignore (Tuple.get t "id");
       false
     with Err.Eval_error _ -> true)

(* --- Physical translation: access-path selection ---------------------------------- *)

let test_access_path_index_for_equality () =
  let parts = part_table () in
  let plan = Plan.Select (scan_part, Pred.Cmp ("p.id", Pred.Eq, Constant.Int 5)) in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:400 ()))
      plan
  in
  (match phys with
   | Physical.Pscan { access = Physical.Index_scan { attr = "id"; _ }; _ } -> ()
   | p -> Alcotest.failf "expected index scan, got %a" Physical.pp p)

let test_access_path_seq_when_unindexed () =
  let parts = part_table () in
  let plan = Plan.Select (scan_part, Pred.Cmp ("p.weight", Pred.Eq, Constant.Int 5)) in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:400 ()))
      plan
  in
  (match phys with
   | Physical.Pscan { access = Physical.Full_scan; residual; _ } ->
     Alcotest.(check bool) "residual kept" false (Pred.equal residual Pred.True)
   | p -> Alcotest.failf "expected full scan, got %a" Physical.pp p)

let test_access_path_cost_consistent () =
  (* whatever access is chosen, it must be the one its own cost model ranks
     cheapest *)
  let parts = part_table () in
  List.iter
    (fun (op, v) ->
      let pred = Pred.Cmp ("p.id", op, Constant.Int v) in
      let phys =
        Physical.of_logical ~engine
          ~find_table:(find_table parts (box_table ~parts:400 ()))
          (Plan.Select (scan_part, pred))
      in
      let idx = Option.get (Table.index parts "id") in
      let k = Btree.count idx op (Constant.Int v) in
      let icost = Physical.index_scan_cost engine parts ~clustered:false k in
      let fcost = Physical.full_scan_cost engine parts ~matches:k in
      match phys with
      | Physical.Pscan { access = Physical.Index_scan _; _ } ->
        Alcotest.(check bool) "index is argmin" true (icost < fcost)
      | Physical.Pscan { access = Physical.Full_scan; _ } ->
        Alcotest.(check bool) "full is argmin" true (fcost <= icost)
      | p -> Alcotest.failf "unexpected plan %a" Physical.pp p)
    [ (Pred.Eq, 5); (Pred.Le, 10); (Pred.Ge, 1); (Pred.Lt, 390); (Pred.Ne, 0) ]

let test_access_path_seq_when_probe_expensive () =
  (* a flat-file-like engine with a prohibitive probe cost prefers the full
     scan even when an index exists *)
  let parts = part_table ~n:150 () in
  let plan = Plan.Select (scan_part, Pred.Cmp ("p.id", Pred.Ge, Constant.Int 1)) in
  let phys =
    Physical.of_logical ~engine:Costs.flat_file
      ~find_table:(find_table parts (box_table ~parts:150 ()))
      plan
  in
  (match phys with
   | Physical.Pscan { access = Physical.Full_scan; _ } -> ()
   | p -> Alcotest.failf "expected full scan, got %a" Physical.pp p)

let test_residual_after_index_choice () =
  let parts = part_table () in
  let pred =
    Pred.And
      ( Pred.Cmp ("p.id", Pred.Eq, Constant.Int 5),
        Pred.Cmp ("p.weight", Pred.Lt, Constant.Int 100) )
  in
  let plan = Plan.Select (scan_part, pred) in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:400 ()))
      plan
  in
  (match phys with
   | Physical.Pscan { access = Physical.Index_scan _; residual; _ } ->
     Alcotest.(check bool) "residual is the weight conjunct" true
       (Pred.equal residual (Pred.Cmp ("p.weight", Pred.Lt, Constant.Int 100)))
   | p -> Alcotest.failf "expected index scan with residual, got %a" Physical.pp p)

let test_index_join_selected () =
  let plan =
    Plan.Join (scan_box, scan_part, Pred.Attr_cmp ("b.part_id", Pred.Eq, "p.id"))
  in
  let parts = part_table () in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:400 ()))
      plan
  in
  (match phys with
   | Physical.Pindex_join { inner_attr = "id"; outer_attr = "b.part_id"; _ } -> ()
   | p -> Alcotest.failf "expected index join, got %a" Physical.pp p)

let test_submit_rejected () =
  let parts = part_table () in
  Alcotest.(check bool) "submit in wrapper subplan raises" true
    (try
       ignore
         (Physical.of_logical ~engine
            ~find_table:(find_table parts (box_table ~parts:400 ()))
            (Plan.Submit ("s", scan_part)));
       false
     with Err.Plan_error _ -> true)

(* --- Evaluator correctness ---------------------------------------------------------- *)

let test_scan_results () =
  let parts = part_table () in
  let r, _ = exec ~parts scan_part in
  Alcotest.(check int) "all rows" 400 (List.length r.Run.rows);
  Alcotest.(check bool) "times ordered" true (r.Run.total >= r.Run.first && r.Run.first > 0.)

let test_select_equivalence_index_vs_naive () =
  let parts = part_table () in
  let pred = Pred.Cmp ("p.id", Pred.Le, Constant.Int 37) in
  let r, phys = exec ~parts (Plan.Select (scan_part, pred)) in
  (match phys with
   | Physical.Pscan { access = Physical.Index_scan _; _ } -> ()
   | _ -> Alcotest.fail "expected index scan for selective range");
  let expected =
    List.filter (fun t -> Pred.eval (Tuple.get t) pred) (naive_part_rows parts)
  in
  Alcotest.(check int) "same count" (List.length expected) (List.length r.Run.rows);
  let ids rows =
    List.sort compare
      (List.map (fun t -> Constant.to_string (Tuple.get t "p.id")) rows)
  in
  Alcotest.(check (list string)) "same ids" (ids expected) (ids r.Run.rows)

let test_join_equivalence () =
  let parts = part_table ~n:100 () in
  let boxes = box_table ~n:50 ~parts:100 () in
  let pred = Pred.Attr_cmp ("b.part_id", Pred.Eq, "p.id") in
  (* index join (inner scan of Part) *)
  let r1, phys1 = exec ~parts ~boxes (Plan.Join (scan_box, scan_part, pred)) in
  (match phys1 with
   | Physical.Pindex_join _ -> ()
   | _ -> Alcotest.fail "expected index join");
  (* force nested loop by joining the other way with an unindexed pred *)
  let r2, _ =
    exec ~parts ~boxes
      (Plan.Join (scan_box, Plan.Select (scan_part, Pred.True), pred))
  in
  Alcotest.(check int) "both joins agree" (List.length r1.Run.rows)
    (List.length r2.Run.rows);
  Alcotest.(check int) "one row per box" 50 (List.length r1.Run.rows)

let test_sort_order () =
  let parts = part_table ~n:50 () in
  let r, _ = exec ~parts (Plan.Sort (scan_part, [ ("p.id", Plan.Desc) ])) in
  let ids = List.map (fun t -> Tuple.get t "p.id") r.Run.rows in
  let rec desc = function
    | a :: b :: rest -> Constant.compare a b >= 0 && desc (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "descending" true (desc ids);
  Alcotest.(check bool) "sort is blocking" true (r.Run.first > 0.)

let test_dedup () =
  let parts = part_table ~n:200 () in
  let r, _ = exec ~parts (Plan.Dedup (Plan.Project (scan_part, [ "p.kind" ]))) in
  Alcotest.(check int) "three kinds" 3 (List.length r.Run.rows)

let test_union () =
  let parts = part_table ~n:30 () in
  let r, _ = exec ~parts (Plan.Union (scan_part, scan_part)) in
  Alcotest.(check int) "bag union" 60 (List.length r.Run.rows)

let test_aggregate () =
  let parts = part_table ~n:100 () in
  let r, _ =
    exec ~parts
      (Plan.Aggregate
         ( scan_part,
           { Plan.group_by = [ "p.kind" ];
             aggs =
               [ (Plan.Count, "", "n");
                 (Plan.Sum, "p.weight", "total_weight");
                 (Plan.Min, "p.id", "min_id");
                 (Plan.Max, "p.id", "max_id");
                 (Plan.Avg, "p.weight", "avg_weight") ] } ))
  in
  Alcotest.(check int) "three groups" 3 (List.length r.Run.rows);
  (* spot check: counts sum to the input size *)
  let total_n =
    List.fold_left
      (fun acc t ->
        match Tuple.get t "n" with Constant.Int n -> acc + n | _ -> acc)
      0 r.Run.rows
  in
  Alcotest.(check int) "counts partition input" 100 total_n;
  (* avg consistent with sum/count on each group *)
  List.iter
    (fun t ->
      let n = Constant.to_float_opt (Tuple.get t "n") |> Option.get in
      let sum = Constant.to_float_opt (Tuple.get t "total_weight") |> Option.get in
      let avg = Constant.to_float_opt (Tuple.get t "avg_weight") |> Option.get in
      Alcotest.(check (float 1e-6)) "avg = sum/n" (sum /. n) avg)
    r.Run.rows

let test_aggregate_empty_group_by () =
  let parts = part_table ~n:10 () in
  let r, _ =
    exec ~parts
      (Plan.Aggregate (scan_part, { Plan.group_by = []; aggs = [ (Plan.Count, "", "n") ] }))
  in
  Alcotest.(check int) "single group" 1 (List.length r.Run.rows);
  (match (List.hd r.Run.rows).Tuple.values with
   | [| Constant.Int 10 |] -> ()
   | _ -> Alcotest.fail "count(*) = 10")

let test_materialized_passthrough () =
  let rows = [ Tuple.make [| "x" |] [| Constant.Int 1 |] ] in
  let r =
    Run.run (env ())
      (Physical.Pmaterialized
         { batches = [ Batch.of_tuples [| "x" |] rows ];
           count = 1;
           first = 5.;
           total = 9. })
  in
  Alcotest.(check int) "rows" 1 (List.length r.Run.rows);
  Alcotest.(check (float 0.)) "first" 5. r.Run.first;
  Alcotest.(check (float 0.)) "total" 9. r.Run.total

(* --- Measured costs ------------------------------------------------------------------ *)

let test_measure_vector () =
  let parts = part_table ~n:100 () in
  let plan = Plan.Select (scan_part, Pred.Cmp ("p.id", Pred.Le, Constant.Int 10)) in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:100 ()))
      plan
  in
  let rows, v = Run.measure (env ()) phys in
  Alcotest.(check (float 0.)) "count matches rows" (float_of_int (List.length rows)) v.Run.count;
  Alcotest.(check bool) "size positive" true (v.Run.size > 0.);
  Alcotest.(check bool) "total >= first" true (v.Run.total_time >= v.Run.time_first);
  let vars = Run.to_cost_vars v in
  Alcotest.(check int) "five cost vars" 5 (List.length vars)

let test_index_scan_cheaper_than_full_when_selective () =
  let parts = part_table ~n:400 () in
  let selective = Pred.Cmp ("p.id", Pred.Eq, Constant.Int 7) in
  let via_index, _ = exec ~parts (Plan.Select (scan_part, selective)) in
  let full, _ = exec ~parts scan_part in
  Alcotest.(check bool) "index scan cheaper" true (via_index.Run.total < full.Run.total)

let test_buffer_effect_on_repeat () =
  (* a warm buffer makes the second identical scan cheaper *)
  let parts = part_table ~n:400 () in
  let e = env () in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:400 ()))
      scan_part
  in
  let cold = Run.run e phys in
  let warm = Run.run e phys in
  Alcotest.(check bool) "warm run cheaper" true (warm.Run.total < cold.Run.total)

(* --- Batch boundaries ----------------------------------------------------------------

   The batched engine at its boundary sizes — 1 row per batch, a batch
   larger than the whole input, and an empty input — produces exactly the
   tuple engine's rows and simulated times (the full operator-by-operator
   differential lives in test_batch.ml). *)

let test_batched_boundary_sizes () =
  let parts = part_table ~n:50 () in
  let plan = Plan.Select (scan_part, Pred.Cmp ("p.weight", Pred.Lt, Constant.Int 25)) in
  let phys =
    Physical.of_logical ~engine ~find_table:(find_table parts (box_table ~parts:50 ()))
      plan
  in
  let want = Run.run ~mode:Run.Tuple_at_a_time (env ()) phys in
  List.iter
    (fun batch_size ->
      let got = Run.run ~mode:(Run.Batched { batch_size }) (env ()) phys in
      Alcotest.(check int)
        (Fmt.str "rows @%d" batch_size)
        (List.length want.Run.rows) (List.length got.Run.rows);
      Alcotest.(check bool)
        (Fmt.str "identical rows @%d" batch_size)
        true
        (List.for_all2 Tuple.equal want.Run.rows got.Run.rows);
      Alcotest.(check (float 0.)) (Fmt.str "first @%d" batch_size) want.Run.first
        got.Run.first;
      Alcotest.(check (float 0.)) (Fmt.str "total @%d" batch_size) want.Run.total
        got.Run.total)
    [ 1; 49; 50; 51; 10_000 ]

let test_batched_empty_input () =
  let empty =
    Table.create ~name:"Part" ~schema:part_schema ~object_size:56 ~index_on:[ "id" ] []
  in
  let phys =
    Physical.Pscan
      { table = empty; binding = "p"; access = Physical.Full_scan; residual = Pred.True }
  in
  let want = Run.run ~mode:Run.Tuple_at_a_time (env ()) phys in
  let got = Run.run ~mode:(Run.Batched { batch_size = 1 }) (env ()) phys in
  Alcotest.(check int) "no rows" 0 (List.length got.Run.rows);
  Alcotest.(check (float 0.)) "total" want.Run.total got.Run.total

(* qcheck: filter equivalence between the evaluator and naive evaluation for
   random single-attribute predicates *)
let prop_filter_equivalence =
  QCheck2.Test.make ~name:"select = naive filter (random preds)" ~count:60
    QCheck2.Gen.(pair (int_range 0 6) (int_range (-10) 420))
    (fun (opn, v) ->
      let parts = part_table ~n:150 () in
      let op =
        match opn mod 6 with
        | 0 -> Pred.Eq
        | 1 -> Pred.Ne
        | 2 -> Pred.Lt
        | 3 -> Pred.Le
        | 4 -> Pred.Gt
        | _ -> Pred.Ge
      in
      let pred = Pred.Cmp ("p.id", op, Constant.Int v) in
      let r, _ = exec ~parts (Plan.Select (scan_part, pred)) in
      let expected =
        List.filter (fun t -> Pred.eval (Tuple.get t) pred) (naive_part_rows parts)
      in
      List.length r.Run.rows = List.length expected)

let () =
  Alcotest.run "exec"
    [ ( "tuple",
        [ Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "ambiguous suffix" `Quick test_tuple_ambiguous_suffix ] );
      ( "access paths",
        [ Alcotest.test_case "index for equality" `Quick test_access_path_index_for_equality;
          Alcotest.test_case "seq when unindexed" `Quick test_access_path_seq_when_unindexed;
          Alcotest.test_case "choice is cost-consistent" `Quick test_access_path_cost_consistent;
          Alcotest.test_case "seq when probe expensive" `Quick
            test_access_path_seq_when_probe_expensive;
          Alcotest.test_case "residual after index" `Quick test_residual_after_index_choice;
          Alcotest.test_case "index join" `Quick test_index_join_selected;
          Alcotest.test_case "submit rejected" `Quick test_submit_rejected ] );
      ( "evaluator",
        [ Alcotest.test_case "scan" `Quick test_scan_results;
          Alcotest.test_case "select index = naive" `Quick test_select_equivalence_index_vs_naive;
          Alcotest.test_case "join strategies agree" `Quick test_join_equivalence;
          Alcotest.test_case "sort" `Quick test_sort_order;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate no groups" `Quick test_aggregate_empty_group_by;
          Alcotest.test_case "materialized leaf" `Quick test_materialized_passthrough;
          Alcotest.test_case "batched boundary sizes" `Quick test_batched_boundary_sizes;
          Alcotest.test_case "batched empty input" `Quick test_batched_empty_input;
          QCheck_alcotest.to_alcotest prop_filter_equivalence ] );
      ( "measurement",
        [ Alcotest.test_case "vector" `Quick test_measure_vector;
          Alcotest.test_case "index cheaper when selective" `Quick
            test_index_scan_cheaper_than_full_when_selective;
          Alcotest.test_case "buffer warming" `Quick test_buffer_effect_on_repeat ] ) ]
