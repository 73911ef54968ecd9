(* Tests for lib/oo7: the benchmark database matches the paper's parameters,
   and the Yao-rule estimates track the simulated measurements much better
   than the linear calibrated model (the §5 validation, in miniature). *)

open Disco_common
open Disco_algebra
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_oo7

let test_paper_parameters () =
  (* full-size database: 70000 AtomicParts of 56 bytes on exactly 1000
     pages (4096-byte pages at 96% fill) *)
  let tables = Oo7.make_tables Oo7.paper_config in
  let atomic = List.find (fun t -> t.Table.name = "AtomicPart") tables in
  Alcotest.(check int) "70000 objects" 70_000 (Table.count atomic);
  Alcotest.(check int) "1000 pages" 1000 (Table.page_count atomic);
  Alcotest.(check int) "56-byte objects" 56 atomic.Table.object_size;
  Alcotest.(check bool) "id indexed" true (Table.has_index atomic "id");
  Alcotest.(check bool) "unclustered" true (atomic.Table.clustered_on = None);
  (* ids are dense 1..70000 *)
  let st = Table.attribute_stats atomic "id" in
  Alcotest.(check int) "distinct ids" 70_000 st.Disco_catalog.Stats.count_distinct

let test_structure () =
  let tables = Oo7.make_tables Oo7.small_config in
  let names = List.map (fun t -> t.Table.name) tables in
  Alcotest.(check (list string)) "four collections"
    [ "AtomicPart"; "CompositePart"; "Connection"; "Document" ]
    names;
  let conn = List.find (fun t -> t.Table.name = "Connection") tables in
  Alcotest.(check int) "3 connections per part"
    (Oo7.small_config.Oo7.atomic_parts * 3)
    (Table.count conn)

let test_deterministic () =
  let t1 = Oo7.make_tables Oo7.small_config and t2 = Oo7.make_tables Oo7.small_config in
  let rows t = Table.rows (List.hd t) in
  Alcotest.(check bool) "same generation" true (rows t1 = rows t2)

(* The §5 experiment in miniature: measured index-scan times vs the linear
   calibrated estimate and the Yao estimate across selectivities. *)
let test_yao_beats_calibration () =
  let config = { Oo7.small_config with Oo7.atomic_parts = 7_000 } in
  let source = Oo7.make_source ~config ~with_rules:true () in
  (* registry with rules (Yao) *)
  let catalog = Disco_catalog.Catalog.create () in
  let registry = Registry.create catalog in
  Generic.register registry;
  ignore (Registry.register_source_decl registry (Wrapper.registration_decl source));
  (* registry without rules: pure calibrated generic model *)
  let source_bare = Oo7.make_source ~config ~with_rules:false () in
  let catalog2 = Disco_catalog.Catalog.create () in
  let registry2 = Registry.create catalog2 in
  Generic.register registry2;
  ignore (Registry.register_source_decl registry2 (Wrapper.registration_decl source_bare));
  let n = config.Oo7.atomic_parts in
  let errors =
    List.map
      (fun sel ->
        let k = int_of_float (float_of_int n *. sel) in
        let plan =
          Plan.Select
            ( Plan.Scan { Plan.source = "oo7"; collection = "AtomicPart"; binding = "a" },
              Pred.Cmp ("a.id", Pred.Le, Constant.Int k) )
        in
        Oo7.cold_cache source;
        let _, measured = Wrapper.execute source plan in
        let est_yao =
          Estimator.total_time (Estimator.estimate ~source:"oo7" registry plan)
        in
        let est_cal =
          Estimator.total_time (Estimator.estimate ~source:"oo7" registry2 plan)
        in
        let err e = Float.abs (e -. measured.Run.total_time) /. measured.Run.total_time in
        (err est_yao, err est_cal))
      [ 0.05; 0.1; 0.2; 0.4; 0.6 ]
  in
  let avg f = List.fold_left (fun a x -> a +. f x) 0. errors /. float_of_int (List.length errors) in
  let yao_err = avg fst and cal_err = avg snd in
  Alcotest.(check bool)
    (Fmt.str "yao (%.3f) at least as accurate as calibration (%.3f)" yao_err cal_err)
    true (yao_err < cal_err);
  Alcotest.(check bool) "yao reasonably tight" true (yao_err < 0.35)

let test_measured_curve_is_concave () =
  (* the measured response time saturates once every page is touched: the
     increment from sel 0.4 to 0.6 in IO terms is smaller than from 0.0 to
     0.2 (concavity of Yao) — checked on the IO component, i.e. with output
     cost subtracted *)
  let config = { Oo7.small_config with Oo7.atomic_parts = 7_000 } in
  let source = Oo7.make_source ~config () in
  let measure sel =
    let k = int_of_float (float_of_int config.Oo7.atomic_parts *. sel) in
    let plan =
      Plan.Select
        ( Plan.Scan { Plan.source = "oo7"; collection = "AtomicPart"; binding = "a" },
          Pred.Cmp ("a.id", Pred.Le, Constant.Int k) )
    in
    Oo7.cold_cache source;
    let _, v = Wrapper.execute source plan in
    v.Run.total_time -. (float_of_int k *. Costs.objectstore.Costs.output_ms)
  in
  let t0 = measure 0.001 and t2 = measure 0.2 and t4 = measure 0.4 and t6 = measure 0.6 in
  Alcotest.(check bool) "early increment dominates late" true (t2 -. t0 > t6 -. t4);
  Alcotest.(check bool) "monotone" true (t0 <= t2 && t2 <= t4 +. 1. && t4 <= t6 +. 1.)

module Util_err = struct
  let rel est real = Float.abs (est -. real) /. Float.max real 1e-9
end

let test_query_workload () =
  (* the OO7 query subset runs, produces sane results, and the wrapper rules
     estimate the workload better than the calibrated model on average *)
  let config = { Oo7.small_config with Oo7.atomic_parts = 7_000 } in
  let source = Oo7.make_source ~config ~with_rules:true () in
  let registry_of src =
    let registry = Registry.create (Disco_catalog.Catalog.create ()) in
    Generic.register registry;
    ignore (Registry.register_source_decl registry (Wrapper.registration_decl src));
    registry
  in
  let reg_yao = registry_of source in
  let reg_cal = registry_of (Wrapper.without_rules source) in
  let queries = Oo7.queries config in
  Alcotest.(check int) "seven queries" 7 (List.length queries);
  let errs =
    List.map
      (fun (label, plan) ->
        Oo7.cold_cache source;
        let batches, v = Wrapper.execute source plan in
        let rows = List.fold_left (fun acc b -> acc + Batch.length b) 0 batches in
        Alcotest.(check bool) (label ^ " rows sane") true
          (float_of_int rows = v.Run.count && v.Run.total_time > 0.);
        let est r = Estimator.total_time (Estimator.estimate ~source:"oo7" r plan) in
        ( Util_err.rel (est reg_cal) v.Run.total_time,
          Util_err.rel (est reg_yao) v.Run.total_time ))
      queries
  in
  let mean f = List.fold_left (fun a e -> a +. f e) 0. errs /. float_of_int (List.length errs) in
  Alcotest.(check bool)
    (Fmt.str "rules (%.2f) beat calibration (%.2f)" (mean snd) (mean fst))
    true
    (mean snd < mean fst)

let () =
  Alcotest.run "oo7"
    [ ( "database",
        [ Alcotest.test_case "paper parameters" `Slow test_paper_parameters;
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "deterministic" `Quick test_deterministic ] );
      ( "validation",
        [ Alcotest.test_case "yao beats calibration" `Slow test_yao_beats_calibration;
          Alcotest.test_case "measured curve concave" `Slow test_measured_curve_is_concave;
          Alcotest.test_case "query workload" `Slow test_query_workload ] ) ]
