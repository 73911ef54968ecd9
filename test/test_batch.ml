(* Tests for the batched execution engine: the columnar Batch representation,
   per-batch predicate compilation (Bpred), and the engine-differential
   guarantee — batched execution returns the same rows in the same order and
   bit-identical simulated cost vectors as tuple-at-a-time, at any batch
   size, including the boundary sizes 1 and larger-than-input. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_storage
open Disco_exec

(* --- Fixtures (mirrors test_exec) ----------------------------------------------- *)

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
  Table.create ~name:"Box" ~schema:box_schema ~object_size:24
    ~index_on:[ "id"; "part_id" ] rows

let engine = Costs.relational

let env ?(hash_join = false) () =
  { Run.engine; buffer = Buffer.create ~capacity:1024; hash_join; adts = [] }

let pscan table binding =
  Physical.Pscan { table; binding; access = Physical.Full_scan; residual = Pred.True }

(* --- Batch representation -------------------------------------------------------- *)

let test_builder_typing () =
  (* all-int column stays unboxed; a mixed column promotes to boxed, and the
     byte accounting stays exact either way *)
  let bld = Batch.builder [| "p.a"; "p.b" |] in
  Batch.add_row bld [| Constant.Int 1; Constant.Int 10 |];
  Batch.add_row bld [| Constant.Int 2; Constant.String "xyz" |];
  Batch.add_row bld [| Constant.Int 3; Constant.Null |];
  let b = Batch.flush bld in
  Alcotest.(check int) "len" 3 (Batch.length b);
  (match b.Batch.cols.(0) with
   | Batch.Ints a -> Alcotest.(check (array int)) "ints kept" [| 1; 2; 3 |] a
   | _ -> Alcotest.fail "first column should be unboxed ints");
  (match b.Batch.cols.(1) with
   | Batch.Boxed _ -> ()
   | _ -> Alcotest.fail "mixed column should be boxed");
  let tuples = Batch.to_tuples b in
  let bytes = List.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 tuples in
  Alcotest.(check int) "bytes exact" bytes (Batch.byte_size b)

let test_find_col_matches_tuple_get () =
  let bld = Batch.builder [| "p.id"; "b.id" |] in
  Batch.add_row bld [| Constant.Int 1; Constant.Int 2 |];
  let b = Batch.flush bld in
  Alcotest.(check int) "qualified" 0 (Batch.find_col b "p.id");
  Alcotest.(check bool) "ambiguous bare name raises" true
    (try ignore (Batch.find_col b "id"); false with Err.Eval_error _ -> true);
  Alcotest.(check bool) "missing raises" true
    (try ignore (Batch.find_col b "zzz"); false with Err.Eval_error _ -> true)

let test_mask_matches_pred_eval () =
  let parts = part_table ~n:200 () in
  let e = env () in
  let br = Run.run_batched ~batch_size:64 e (pscan parts "p") in
  let pred =
    Pred.And
      ( Pred.Cmp ("p.weight", Pred.Lt, Constant.Int 25),
        Pred.Not (Pred.Cmp ("p.kind", Pred.Eq, Constant.String "b")) )
  in
  List.iter
    (fun b ->
      let mask, kept = Bpred.mask ~apply:(Adt.apply []) b pred in
      let expect = ref 0 in
      List.iteri
        (fun i t ->
          let want = Pred.eval ~apply:(Adt.apply []) (Tuple.get t) pred in
          if want then incr expect;
          Alcotest.(check bool)
            (Fmt.str "row %d" i) want
            (Bytes.get mask i <> '\000'))
        (Batch.to_tuples b);
      Alcotest.(check int) "kept count" !expect kept)
    br.Run.batches

(* --- Engine differential ---------------------------------------------------------- *)

let bits = Int64.bits_of_float

let check_vec name (vt : Run.vector) (vb : Run.vector) =
  let same what a b =
    Alcotest.(check int64) (name ^ " " ^ what) (bits a) (bits b)
  in
  same "count" vt.Run.count vb.Run.count;
  same "size" vt.Run.size vb.Run.size;
  same "time_first" vt.Run.time_first vb.Run.time_first;
  same "time_next" vt.Run.time_next vb.Run.time_next;
  same "total_time" vt.Run.total_time vb.Run.total_time

(* Batch sizes straddling every boundary: 1, mid-batch, exactly page-ish,
   larger than any input. *)
let batch_sizes = [ 1; 7; 64; 100_000 ]

let check_diff ?hash_join name phys =
  let rt, vt = Run.measure ~mode:Run.Tuple_at_a_time (env ?hash_join ()) phys in
  List.iter
    (fun bsz ->
      let rb, vb =
        Run.measure ~mode:(Run.Batched { batch_size = bsz }) (env ?hash_join ()) phys
      in
      let n = Fmt.str "%s @%d" name bsz in
      Alcotest.(check int) (n ^ " row count") (List.length rt) (List.length rb);
      Alcotest.(check bool) (n ^ " rows identical") true
        (List.for_all2 Tuple.equal rt rb);
      check_vec n vt vb)
    batch_sizes

let test_diff_operators () =
  let parts = part_table () in
  let boxes = box_table ~parts:400 () in
  let p = pscan parts "p" and b = pscan boxes "b" in
  let sel =
    Physical.Pscan
      { table = parts;
        binding = "p";
        access = Physical.Full_scan;
        residual = Pred.Cmp ("p.weight", Pred.Lt, Constant.Int 20) }
  in
  check_diff "full scan" p;
  check_diff "scan+residual" sel;
  check_diff "index scan"
    (Physical.Pscan
       { table = parts;
         binding = "p";
         access = Physical.Index_scan { attr = "id"; op = Cmp.Le; value = Constant.Int 120 };
         residual = Pred.Cmp ("p.weight", Pred.Ge, Constant.Int 10) });
  check_diff "filter" (Physical.Pfilter (p, Pred.Cmp ("p.kind", Pred.Eq, Constant.String "a")));
  check_diff "project" (Physical.Pproject (sel, [ "p.id"; "p.kind" ]));
  check_diff "sort"
    (Physical.Psort (sel, [ ("p.weight", Plan.Desc); ("p.id", Plan.Asc) ]));
  check_diff "dedup" (Physical.Pdedup (Physical.Pproject (p, [ "p.kind" ])));
  check_diff "union mixed schemas" (Physical.Punion (sel, b));
  check_diff "aggregate"
    (Physical.Paggregate
       ( p,
         { Plan.group_by = [ "p.kind" ];
           aggs =
             [ (Plan.Count, "", "n");
               (Plan.Sum, "p.weight", "w");
               (Plan.Avg, "p.weight", "aw");
               (Plan.Min, "p.weight", "mn");
               (Plan.Max, "p.weight", "mx") ] } ));
  check_diff "aggregate no groups"
    (Physical.Paggregate
       (sel, { Plan.group_by = []; aggs = [ (Plan.Count, "", "n") ] }));
  let join_pred = Pred.Attr_cmp ("b.part_id", Pred.Eq, "p.id") in
  check_diff "nl join" (Physical.Pnested_join (b, p, join_pred));
  check_diff ~hash_join:true "hash join" (Physical.Pnested_join (b, p, join_pred));
  check_diff ~hash_join:true "hash join + residual"
    (Physical.Pnested_join
       (b, p, Pred.And (join_pred, Pred.Cmp ("p.weight", Pred.Gt, Constant.Int 5))));
  check_diff "index join"
    (Physical.Pindex_join
       { outer = b;
         table = parts;
         binding = "p";
         outer_attr = "b.part_id";
         inner_attr = "id";
         residual = Pred.Cmp ("p.weight", Pred.Gt, Constant.Int 5) })

let test_diff_empty_table () =
  let empty =
    Table.create ~name:"Part" ~schema:part_schema ~object_size:56 ~index_on:[ "id" ] []
  in
  check_diff "empty scan" (pscan empty "p");
  check_diff "empty sort" (Physical.Psort (pscan empty "p", [ ("p.id", Plan.Asc) ]));
  check_diff "empty aggregate"
    (Physical.Paggregate
       ( pscan empty "p",
         { Plan.group_by = [ "p.kind" ]; aggs = [ (Plan.Sum, "p.weight", "w") ] } ))

let test_materialized_roundtrip () =
  let rows =
    List.init 10 (fun i ->
        Tuple.make [| "x.a" |] [| Constant.Int (i mod 3) |])
  in
  let phys =
    Physical.Pdedup
      (Physical.Pmaterialized { rows; count = 10; first = 2.; total = 11. })
  in
  check_diff "dedup over materialized" phys

(* --- Incremental accounting (the O(n^2) fix) -------------------------------------- *)

let test_incremental_accounting () =
  let parts = part_table ~n:1000 () in
  let br = Run.run_batched ~batch_size:13 (env ()) (pscan parts "p") in
  let rows = Run.rows_of_batched br in
  (* the carried totals are exact: equal to a full refold over the rows *)
  Alcotest.(check int) "carried count" (List.length rows) br.Run.bcount;
  Alcotest.(check int) "carried bytes"
    (List.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 rows)
    br.Run.bbytes;
  let v = Run.vector_of_batched br in
  Alcotest.(check int64) "vector count from carried total"
    (bits (float_of_int br.Run.bcount)) (bits v.Run.count);
  (* no produced batch is empty (scans may exceed the requested size: a
     full scan emits zero-copy batches over the whole columnar mirror) *)
  List.iter
    (fun b -> Alcotest.(check bool) "batch non-empty" true (Batch.length b > 0))
    br.Run.batches

let test_wall_clock_present () =
  let parts = part_table () in
  let r = Run.run ~mode:Run.Tuple_at_a_time (env ()) (pscan parts "p") in
  Alcotest.(check bool) "tuple wall >= 0" true (r.Run.wall_ms >= 0.);
  let br = Run.run_batched ~batch_size:64 (env ()) (pscan parts "p") in
  Alcotest.(check bool) "batched wall >= 0" true (br.Run.bwall_ms >= 0.)

(* --- Output builder capacity ---------------------------------------------------- *)

(* Words allocated straight into the major heap (not promoted from the minor
   heap) since the program started, on this domain. *)
let direct_major_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* Operator output builders start small and double up to the batch size. A
   builder preallocated at the full batch size puts every mediator-side
   operator output straight into the major heap, whatever its row count:
   some 300 000 words for one 20-way chain over 50-row sources. *)
let test_small_outputs_stay_minor () =
  Alcotest.(check bool) "the batched engine is the default" true
    (Run.default_mode () = Run.Batched { batch_size = Run.default_batch_size });
  let open Disco_mediator in
  let open Disco_wrapper in
  let med = Mediator.create ~domains:1 () in
  List.iter (Mediator.register med) (Demo.synthetic ~rows:50 ~n:20 ());
  let plan, _ =
    Mediator.plan_query med (Demo.synthetic_sql ~shape:Demo.Chain ~n:20 ())
  in
  let phys = Mediator.to_physical med plan in
  let env = Mediator.mediator_run_env med in
  let want, _ = Run.measure ~mode:Run.Tuple_at_a_time env phys in
  let before = direct_major_words () in
  let rows, _ = Run.measure env phys in
  let words = direct_major_words () -. before in
  Alcotest.(check bool) "same rows as the reference engine" true
    (List.equal Tuple.equal want rows);
  if words > 20_000. then
    Alcotest.failf "%.0f words allocated directly in the major heap" words

let () =
  Alcotest.run "batch"
    [ ( "representation",
        [ Alcotest.test_case "builder typing + bytes" `Quick test_builder_typing;
          Alcotest.test_case "find_col = Tuple.get" `Quick test_find_col_matches_tuple_get;
          Alcotest.test_case "mask = Pred.eval" `Quick test_mask_matches_pred_eval ] );
      ( "differential",
        [ Alcotest.test_case "all operators, boundary batch sizes" `Quick
            test_diff_operators;
          Alcotest.test_case "empty inputs" `Quick test_diff_empty_table;
          Alcotest.test_case "materialized input" `Quick test_materialized_roundtrip ] );
      ( "accounting",
        [ Alcotest.test_case "incremental count/bytes exact" `Quick
            test_incremental_accounting;
          Alcotest.test_case "wall clock populated" `Quick test_wall_clock_present;
          Alcotest.test_case "small outputs stay in the minor heap" `Quick
            test_small_outputs_stay_minor ] ) ]
