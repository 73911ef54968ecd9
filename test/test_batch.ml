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
  let br = Run.run_batched ~mode:(Run.Batched { batch_size = 64 }) e (pscan parts "p") in
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

(* Bit-identical rows: same names, same constructors, same float bits (no
   numeric coercion, unlike [Tuple.equal]). *)
let same_value (a : Constant.t) (b : Constant.t) =
  match a, b with
  | Constant.Float x, Constant.Float y -> Int64.equal (bits x) (bits y)
  | Constant.Float _, _ | _, Constant.Float _ -> false
  | _ -> a = b

let same_row (a : Tuple.t) (b : Tuple.t) =
  a.Tuple.attrs = b.Tuple.attrs
  && Array.length a.Tuple.values = Array.length b.Tuple.values
  && Array.for_all2 same_value a.Tuple.values b.Tuple.values

let check_diff ?hash_join name phys =
  let rt, vt = Run.measure ~mode:Run.Tuple_at_a_time (env ?hash_join ()) phys in
  (* the reference rows in batch form, as a wrapper in reference mode hands
     them to the mediator: one batch per schema run, same rows and names *)
  let tb = Run.run_batched ~mode:Run.Tuple_at_a_time (env ?hash_join ()) phys in
  Alcotest.(check bool) (name ^ " reference batches: rows and names") true
    (List.equal same_row rt (Run.rows_of_batched tb));
  check_vec (name ^ " reference batches") vt (Run.vector_of_batched tb);
  List.iter
    (fun bsz ->
      let rb, vb =
        Run.measure ~mode:(Run.Batched { batch_size = bsz }) (env ?hash_join ()) phys
      in
      let n = Fmt.str "%s @%d" name bsz in
      Alcotest.(check int) (n ^ " row count") (List.length rt) (List.length rb);
      Alcotest.(check bool) (n ^ " rows identical") true
        (List.for_all2 same_row rt rb);
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
      (Physical.Pmaterialized
         { batches = [ Batch.of_tuples [| "x.a" |] rows ]; count = 10; first = 2.;
           total = 11. })
  in
  check_diff "dedup over materialized" phys

(* --- Composition kernels: edge cases ------------------------------------------------ *)

(* A batch from boxed rows: the builder keeps a column unboxed while its
   values share one numeric constructor and boxes it otherwise. *)
let batch attrs rows =
  let bld = Batch.builder attrs in
  List.iter (fun r -> Batch.add_row bld (Array.of_list r)) rows;
  Batch.flush bld

(* Keep every row whose index satisfies [keep]: a selection-vector batch. *)
let select keep (b : Batch.t) =
  let m = Bytes.init (Batch.length b) (fun i -> if keep i then '\001' else '\000') in
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) m;
  Batch.filter b m ~keep:!n

let mat batches =
  Physical.Pmaterialized
    { batches;
      count = List.fold_left (fun a b -> a + Batch.length b) 0 batches;
      first = 1.;
      total = 3. }

let i x = Constant.Int x
let f x = Constant.Float x
let str x = Constant.String x

let rep (b : Batch.t) c =
  match b.Batch.cols.(c) with Batch.Ints _ -> "ints" | Batch.Floats _ -> "floats" | Batch.Boxed _ -> "boxed"

(* The key column is Ints in one batch, Floats in the next and boxed in a
   third: the sort coerces Int against Float as [Constant.compare] does. *)
let mixed_key_input () =
  let xs = [| "x.k"; "x.v" |] in
  let a = batch xs [ [ i 3; i 0 ]; [ i 1; i 1 ]; [ i 2; i 2 ]; [ i 1; i 3 ] ] in
  let b = batch xs [ [ f 1.; i 4 ]; [ f 2.5; i 5 ]; [ f Float.nan; i 6 ]; [ f (-0.); i 7 ]; [ f 0.; i 8 ] ] in
  let c = batch xs [ [ i 2; i 9 ]; [ f 1.; i 10 ]; [ Constant.Null; i 11 ]; [ str "a"; i 12 ]; [ i 0; i 13 ] ] in
  Alcotest.(check (list string)) "key representations" [ "ints"; "floats"; "boxed" ]
    [ rep a 0; rep b 0; rep c 0 ];
  [ a; b; c ]

let test_sort_edge_cases () =
  let input = mixed_key_input () in
  List.iter
    (fun ord ->
      check_diff "sort mixed representations" (Physical.Psort (mat input, [ ("x.k", ord) ]));
      check_diff "sort mixed representations, two keys"
        (Physical.Psort (mat input, [ ("x.k", ord); ("x.v", Plan.Desc) ])))
    [ Plan.Asc; Plan.Desc ];
  (* special floats: NaN lowest, -0.0 ties 0.0, the tie keeps input order *)
  let xs = [| "x.k"; "x.v" |] in
  let floats =
    batch xs
      (List.mapi
         (fun n v -> [ f v; i n ])
         [ 0.; Float.infinity; Float.nan; -0.; 1.5; Float.neg_infinity; 0.; Float.nan; -0.;
           Float.infinity; -1.5; 0. ])
  in
  List.iter
    (fun ord -> check_diff "sort special floats" (Physical.Psort (mat [ floats ], [ ("x.k", ord) ])))
    [ Plan.Asc; Plan.Desc ];
  (* extreme ints: the key range overflows, so radix must give way *)
  let extremes =
    batch xs
      (List.init 200 (fun n ->
           let k = match n mod 5 with 0 -> max_int | 1 -> min_int | 2 -> 0 | 3 -> -1 | _ -> n in
           [ i k; i n ]))
  in
  List.iter
    (fun ord ->
      check_diff "sort min_int/max_int" (Physical.Psort (mat [ extremes ], [ ("x.k", ord) ]));
      check_diff "sort min_int/max_int, selection vector"
        (Physical.Psort (mat [ select (fun n -> n mod 3 <> 0) extremes ], [ ("x.k", ord) ])))
    [ Plan.Asc; Plan.Desc ];
  (* many ties in a small range: radix with the row position as tie break *)
  let ties = batch xs (List.init 300 (fun n -> [ i ((n * 7) mod 10); i (n mod 4) ])) in
  check_diff "sort radix ties"
    (Physical.Psort (mat [ ties; ties ], [ ("x.k", Plan.Desc); ("x.v", Plan.Asc) ]));
  (* keys that never resolve, reached by no comparison *)
  check_diff "sort one row, unknown key"
    (Physical.Psort (mat [ batch xs [ [ i 1; i 2 ] ] ], [ ("zzz", Plan.Asc) ]));
  let distinct = batch xs (List.init 50 (fun n -> [ i ((n * 17) mod 50); i n ])) in
  check_diff "sort, second key unresolved but never reached"
    (Physical.Psort (mat [ distinct ], [ ("x.k", Plan.Asc); ("zzz", Plan.Asc) ]));
  (* ...and reached through a tie: both engines raise *)
  let raises mode =
    try
      ignore
        (Run.run ~mode (env ())
           (Physical.Psort (mat [ ties ], [ ("x.k", Plan.Asc); ("zzz", Plan.Asc) ])));
      false
    with Err.Eval_error _ -> true
  in
  Alcotest.(check bool) "tuple engine raises on a reached unknown key" true
    (raises Run.Tuple_at_a_time);
  Alcotest.(check bool) "batched engine raises on a reached unknown key" true
    (raises (Run.Batched { batch_size = 64 }));
  (* a union's mixed schemas go through the row-wise builder *)
  let other = batch [| "y.k" |] [ [ i 2 ]; [ i (-4) ]; [ f 2. ] ] in
  check_diff "sort over a union of two schemas"
    (Physical.Psort (Physical.Punion (mat [ distinct ], mat [ other ]), [ ("k", Plan.Desc) ]))

let test_hash_join_edge_cases () =
  let ls = [| "b.id"; "b.part_id" |] and rs = [| "p.id"; "p.weight" |] in
  (* duplicate keys on both sides: each left row's matches newest first *)
  let left = batch ls (List.init 40 (fun n -> [ i n; i (n mod 7) ])) in
  let right = batch rs (List.init 30 (fun n -> [ i (n mod 9); i (n * 3) ])) in
  let right2 = batch rs (List.init 12 (fun n -> [ i (n mod 5); i (100 + n) ])) in
  let bare = Pred.Attr_cmp ("b.part_id", Pred.Eq, "p.id") in
  let residual = Pred.And (bare, Pred.Cmp ("p.weight", Pred.Gt, i 20)) in
  let join l r p = Physical.Pnested_join (mat l, mat r, p) in
  check_diff ~hash_join:true "hash join duplicate keys, bare equi" (join [ left ] [ right; right2 ] bare);
  check_diff ~hash_join:true "hash join duplicate keys, flipped equi"
    (join [ left ] [ right; right2 ] (Pred.Attr_cmp ("p.id", Pred.Eq, "b.part_id")));
  check_diff ~hash_join:true "hash join with residual" (join [ left; left ] [ right ] residual);
  check_diff ~hash_join:true "hash join, key by unqualified suffix"
    (join [ left ] [ right ] (Pred.Attr_cmp ("part_id", Pred.Eq, "p.id")));
  check_diff ~hash_join:true "hash join, selection vectors on both sides"
    (join
       [ select (fun n -> n mod 2 = 0) left; select (fun n -> n mod 3 = 0) left ]
       [ select (fun n -> n mod 4 <> 1) right; right2 ]
       bare);
  (* Int in one batch, Float in another: rendered keys, so 1 and 1. differ *)
  let fright = batch rs [ [ f 1.; i 7 ]; [ f 2.; i 8 ]; [ f 1.5; i 9 ] ] in
  check_diff ~hash_join:true "hash join, Int and Float key batches"
    (join [ left ] [ right; fright ] bare);
  check_diff ~hash_join:true "hash join, boxed keys"
    (join [ left ] [ batch rs [ [ Constant.Null; i 1 ]; [ i 3; i 2 ]; [ str "3"; i 3 ] ] ] bare);
  (* a union's mixed schemas on the build side *)
  let other = batch [| "q.id" |] [ [ i 3 ]; [ i 4 ] ] in
  let probe = batch [| "b.part_id"; "b.n" |] (List.init 20 (fun n -> [ i (n mod 6); i n ])) in
  check_diff ~hash_join:true "hash join over a union"
    (Physical.Pnested_join
       (mat [ probe ], Physical.Punion (mat [ right ], mat [ other ]),
        Pred.Attr_cmp ("b.part_id", Pred.Eq, "id")));
  (* a suffix key ambiguous in the concatenated schema: the predicate's
     recheck raises in both engines *)
  let raises mode =
    try
      ignore
        (Run.run ~mode (env ~hash_join:true ())
           (join [ left ] [ right ] (Pred.Attr_cmp ("b.part_id", Pred.Eq, "id"))));
      false
    with Err.Eval_error _ -> true
  in
  Alcotest.(check bool) "tuple engine raises on an ambiguous key" true (raises Run.Tuple_at_a_time);
  Alcotest.(check bool) "batched engine raises on an ambiguous key" true
    (raises (Run.Batched { batch_size = 64 }))

let test_aggregate_edge_cases () =
  let xs = [| "x.k"; "x.v" |] in
  let ints = batch xs (List.init 60 (fun n -> [ i (n mod 7); f (0.1 *. float_of_int n) ])) in
  let floats = batch xs [ [ f 1.; f 0.3 ]; [ f 2.; f 0.7 ]; [ f 1.; f Float.nan ] ] in
  let boxed = batch xs [ [ i 1; i 3 ]; [ str "a"; Constant.Null ]; [ f 1.; str "z" ] ] in
  (* equal minima and maxima of different constructors: the newest wins *)
  let ties = batch xs [ [ i 5; i 1 ]; [ i 5; f 1. ]; [ i 5; i 2 ]; [ i 5; f 2. ]; [ i 5; i 1 ] ] in
  let aggs =
    [ (Plan.Count, "", "n"); (Plan.Sum, "x.v", "s"); (Plan.Avg, "x.v", "a");
      (Plan.Min, "x.v", "mn"); (Plan.Max, "x.v", "mx") ]
  in
  let agg bats group_by = Physical.Paggregate (mat bats, { Plan.group_by; aggs }) in
  check_diff "aggregate int keys" (agg [ ints; select (fun n -> n mod 2 = 0) ints ] [ "x.k" ]);
  check_diff "aggregate 1 and 1. are different groups" (agg [ ints; floats; boxed ] [ "x.k" ]);
  check_diff "aggregate two keys" (agg [ ints; floats ] [ "x.k"; "x.v" ]);
  check_diff "aggregate no keys" (agg [ floats; ints ] []);
  check_diff "aggregate ties across constructors" (agg [ ties; ties ] [ "x.k" ])

(* Random multi-batch inputs: each batch picks its key column's
   representation (Ints, Floats or boxed) and may carry a selection
   vector. The batched engine must equal the tuple engine, rows and
   simulated costs, for sort, hash join, aggregate and dedup. *)
let prop_kernels_match_reference =
  let open QCheck2.Gen in
  let value = function
    | 0 -> map (fun n -> i n) (int_range (-3) 3)
    | 1 -> map (fun x -> f x) (oneofl [ 0.; -0.; 1.; 2.; -1.; 0.5; Float.nan; Float.infinity ])
    | _ ->
      oneof
        [ map (fun n -> i n) (int_range (-3) 3);
          map (fun x -> f x) (oneofl [ 1.; 2.; Float.nan ]);
          pure Constant.Null;
          map str (oneofl [ "a"; "b" ]) ]
  in
  let gen_batch attrs =
    let* kind = int_range 0 2 and* n = int_range 1 12 in
    let* rows = list_repeat n (pair (value kind) (int_range 0 5)) in
    let* sel = option (int_range 2 3) in
    let b = batch attrs (List.map (fun (k, v) -> [ k; i v ]) rows) in
    pure
      (match sel with
       | Some m when n > 1 -> select (fun r -> r mod m <> 0) b
       | _ -> b)
  in
  let gen_input attrs = list_size (int_range 1 4) (gen_batch attrs) in
  let gen =
    let* l = gen_input [| "x.k"; "x.v" |] and* r = gen_input [| "y.k"; "y.v" |] in
    let* asc = bool and* residual = bool and* bsz = oneofl [ 1; 3; 1024 ] in
    pure (l, r, asc, residual, bsz)
  in
  let run ~hash_join mode phys =
    match Run.measure ~mode (env ~hash_join ()) phys with
    | rows, v -> Ok (rows, v)
    | exception Err.Eval_error _ -> Error ()
  in
  let same a b =
    match a, b with
    | Ok (ra, (va : Run.vector)), Ok (rb, (vb : Run.vector)) ->
      List.length ra = List.length rb
      && List.for_all2 same_row ra rb
      && List.for_all2
           (fun x y -> Int64.equal (bits x) (bits y))
           [ va.Run.count; va.Run.size; va.Run.time_first; va.Run.time_next; va.Run.total_time ]
           [ vb.Run.count; vb.Run.size; vb.Run.time_first; vb.Run.time_next; vb.Run.total_time ]
    | Error (), Error () -> true
    | _ -> false
  in
  QCheck2.Test.make ~name:"kernels = tuple engine on mixed representations" ~count:300 gen
    (fun (l, r, asc, residual, bsz) ->
      let ord = if asc then Plan.Asc else Plan.Desc in
      let eq = Pred.Attr_cmp ("x.k", Pred.Eq, "y.k") in
      let pred = if residual then Pred.And (eq, Pred.Cmp ("y.v", Pred.Lt, i 3)) else eq in
      let plans =
        [ (false, Physical.Psort (mat l, [ ("x.k", ord); ("x.v", Plan.Asc) ]));
          (true, Physical.Pnested_join (mat l, mat r, pred));
          ( false,
            Physical.Paggregate
              ( mat l,
                { Plan.group_by = [ "x.k" ];
                  aggs = [ (Plan.Count, "", "n"); (Plan.Sum, "x.v", "s"); (Plan.Min, "x.v", "m") ] }
              ) );
          (false, Physical.Pdedup (mat l)) ]
      in
      List.for_all
        (fun (hash_join, phys) ->
          same
            (run ~hash_join Run.Tuple_at_a_time phys)
            (run ~hash_join (Run.Batched { batch_size = bsz }) phys))
        plans)

(* --- Index access on the table's columns ------------------------------------------ *)

let ix_schema =
  Schema.collection "Ix"
    [ ("id", Schema.Tint); ("k", Schema.Tint); ("m", Schema.Tint); ("name", Schema.Tstring) ]

let ox_schema =
  Schema.collection "Ox" [ ("oid", Schema.Tint); ("rk", Schema.Tint); ("rm", Schema.Tint) ]

(* 300 shuffled rows, 9 to a page: [k] has duplicates, [m] mixes Int and
   Null (a boxed column), all three indexed. *)
let ix_table () =
  let rng = Rng.create ~seed:5 in
  let arr =
    Array.init 300 (fun j ->
        [| i (j + 1);
           i (Rng.int rng 20);
           (if Rng.int rng 4 = 0 then Constant.Null else i (Rng.int rng 12));
           str (Rng.pick rng [| "a"; "b" |]) |])
  in
  Rng.shuffle rng arr;
  Table.create ~name:"Ix" ~schema:ix_schema ~object_size:400 ~index_on:[ "id"; "k"; "m" ]
    (Array.to_list arr)

let ox_table () =
  let rng = Rng.create ~seed:6 in
  Table.create ~name:"Ox" ~schema:ox_schema ~object_size:24
    (List.init 60 (fun j ->
         [| i j;
            i (Rng.int rng 24);
            (if Rng.int rng 3 = 0 then Constant.Null else i (Rng.int rng 14)) |]))

(* Rows, their order, bytes, first/total bits and the buffer pool's hits
   and misses, batched at 1/7/64/1024 against the tuple engine. The pool
   holds 6 of the table's 34 pages, so the order of page accesses shows in
   the counts. *)
let check_index_diff name phys =
  let run mode =
    let e = { (env ()) with Run.buffer = Buffer.create ~capacity:6 } in
    let rows, v = Run.measure ~mode e phys in
    (rows, v, Buffer.hits e.Run.buffer, Buffer.misses e.Run.buffer)
  in
  let rt, vt, ht, mt = run Run.Tuple_at_a_time in
  Alcotest.(check bool) (name ^ " touches the pool") true (ht + mt > 0 || rt = []);
  List.iter
    (fun bsz ->
      let rb, vb, hb, mb = run (Run.Batched { batch_size = bsz }) in
      let n = Fmt.str "%s @%d" name bsz in
      Alcotest.(check int) (n ^ " row count") (List.length rt) (List.length rb);
      Alcotest.(check bool) (n ^ " rows identical") true (List.for_all2 same_row rt rb);
      check_vec n vt vb;
      Alcotest.(check (pair int int)) (n ^ " buffer hits, misses") (ht, mt) (hb, mb))
    [ 1; 7; 64; 1024 ]

let test_index_access_diff () =
  let ix = ix_table () and ox = ox_table () in
  let iscan attr op value residual =
    Physical.Pscan
      { table = ix; binding = "x"; access = Physical.Index_scan { attr; op; value }; residual }
  in
  let ops = [ Cmp.Eq; Cmp.Ne; Cmp.Lt; Cmp.Le; Cmp.Gt; Cmp.Ge ] in
  List.iter
    (fun op ->
      List.iter
        (fun (attr, v) ->
          let name = Fmt.str "index scan %s %a %a" attr Cmp.pp op Constant.pp v in
          check_index_diff name (iscan attr op v Pred.True);
          check_index_diff (name ^ " + residual")
            (iscan attr op v (Pred.Cmp ("x.name", Pred.Eq, str "a"))))
        [ ("k", i 7); ("k", i 25); ("k", i (-1)); ("m", i 5); ("m", Constant.Null);
          ("m", f 3.); ("id", i 150) ])
    ops;
  let ijoin ?(residual = Pred.True) outer outer_attr inner_attr =
    Physical.Pindex_join
      { outer; table = ix; binding = "x"; outer_attr; inner_attr; residual }
  in
  let o = pscan ox "o" in
  check_index_diff "index join, Ints outer" (ijoin o "o.rk" "k");
  check_index_diff "index join, Int/Null outer into Int/Null index" (ijoin o "o.rm" "m");
  check_index_diff "index join + residual"
    (ijoin ~residual:(Pred.Cmp ("x.id", Pred.Gt, i 100)) o "o.rk" "k");
  check_index_diff "index join, outer from an index scan"
    (ijoin (iscan "k" Cmp.Le (i 4) Pred.True) "x.m" "m");
  check_index_diff "index join, Floats outer"
    (ijoin (mat [ batch [| "y.v" |] [ [ f 1. ]; [ f 2.5 ]; [ f Float.nan ]; [ f 3. ]; [ f 1. ] ] ])
       "y.v" "k");
  check_index_diff "index join, outer schemas change mid-stream"
    (ijoin (Physical.Punion (o, Physical.Pproject (o, [ "o.rk" ]))) "o.rk" "k")

(* --- Incremental accounting (the O(n^2) fix) -------------------------------------- *)

let test_incremental_accounting () =
  let parts = part_table ~n:1000 () in
  let br =
    Run.run_batched ~mode:(Run.Batched { batch_size = 13 }) (env ()) (pscan parts "p")
  in
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
     full scan emits the whole table's columns as one zero-copy batch) *)
  List.iter
    (fun b -> Alcotest.(check bool) "batch non-empty" true (Batch.length b > 0))
    br.Run.batches

(* This domain's allocation counters, exact: OCaml 5 folds the current
   minor heap's allocations into the counters only at a minor collection,
   and direct major allocations only at a major slice, which a minor
   collection does not always run. Force both first. *)
let gc_stat () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  Gc.quick_stat ()

(* Words allocated on this domain so far, minor and direct-major. *)
let allocated_words () =
  let s = gc_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A wrapper result reaches the mediator's engine as the batches the wrapper
   produced: taking a materialized input costs O(#batches) words, not a
   rebuild per row. *)
let test_materialized_input_allocation () =
  let parts = part_table ~n:10_000 () in
  let input =
    Run.run_batched ~mode:(Run.Batched { batch_size = 1024 }) (env ())
      (Physical.Pscan
         { table = parts;
           binding = "p";
           access =
             Physical.Index_scan { attr = "id"; op = Cmp.Le; value = Constant.Int 10_000 };
           residual = Pred.True })
  in
  let nbatches = List.length input.Run.batches in
  Alcotest.(check int) "10,000 rows" 10_000 input.Run.bcount;
  let phys =
    Physical.Pmaterialized
      { batches = input.Run.batches; count = input.Run.bcount; first = 1.; total = 2. }
  in
  let e = env () in
  let before = allocated_words () in
  let r = Sys.opaque_identity (Run.run_batched e phys) in
  let words = allocated_words () -. before in
  Alcotest.(check bool) "the input batches are passed on as they are" true
    (List.equal ( == ) input.Run.batches r.Run.batches);
  Alcotest.(check int) "bytes carried" input.Run.bbytes r.Run.bbytes;
  if words > float_of_int ((16 * nbatches) + 256) then
    Alcotest.failf "%.0f words for a %d-batch materialized input" words nbatches

(* The sort and the hash join work on row ids over unboxed keys and write
   their outputs column by column: a constant number of words per row,
   whatever the row count. Inputs are materialized, so only the kernel is
   measured. *)
let kernel_words phys =
  let e = env ~hash_join:true () in
  let before = allocated_words () in
  let r = Sys.opaque_identity (Run.run_batched e phys) in
  (allocated_words () -. before, r)

let materialized_scan table binding =
  let input =
    Run.run_batched ~mode:(Run.Batched { batch_size = 1024 }) (env ())
      (Physical.Pscan
         { table;
           binding;
           access = Physical.Index_scan { attr = "id"; op = Cmp.Ge; value = Constant.Int 0 };
           residual = Pred.True })
  in
  Physical.Pmaterialized
    { batches = input.Run.batches; count = input.Run.bcount; first = 1.; total = 2. }

let test_sort_allocation () =
  let parts = materialized_scan (part_table ~n:10_000 ()) "p" in
  let words, r = kernel_words (Physical.Psort (parts, [ ("p.weight", Plan.Desc) ])) in
  Alcotest.(check int) "10,000 rows sorted" 10_000 r.Run.bcount;
  let per_row = words /. 10_000. in
  Printf.printf "sort: %.1f words per row\n" per_row;
  if per_row > 16. then Alcotest.failf "%.1f words per sorted row" per_row

let test_hash_join_allocation () =
  let parts = materialized_scan (part_table ~n:1_000 ()) "p" in
  let boxes = materialized_scan (box_table ~n:10_000 ~parts:1_000 ()) "b" in
  let words, r =
    kernel_words
      (Physical.Pnested_join (boxes, parts, Pred.Attr_cmp ("b.part_id", Pred.Eq, "p.id")))
  in
  Alcotest.(check int) "every box finds its part" 10_000 r.Run.bcount;
  let per_row = words /. 10_000. in
  Printf.printf "hash join: %.1f words per output row\n" per_row;
  if per_row > 16. then Alcotest.failf "%.1f words per joined row" per_row

(* Index access reads the table's columns: an index scan emits its postings
   as selection vectors over them (one word per fetched row, however wide
   the row), and an index join gathers its output column by column from the
   outer batches and the table. *)
let index_scan_all table binding =
  Physical.Pscan
    { table;
      binding;
      access = Physical.Index_scan { attr = "id"; op = Cmp.Ge; value = Constant.Int 0 };
      residual = Pred.True }

let test_index_scan_allocation () =
  let words, r = kernel_words (index_scan_all (part_table ~n:10_000 ()) "p") in
  Alcotest.(check int) "10,000 rows fetched" 10_000 r.Run.bcount;
  let per_row = words /. 10_000. in
  Printf.printf "index scan: %.1f words per fetched row\n" per_row;
  if per_row > 4. then Alcotest.failf "%.1f words per fetched row" per_row

let test_index_join_allocation () =
  let boxes = materialized_scan (box_table ~n:10_000 ~parts:1_000 ()) "b" in
  let words, r =
    kernel_words
      (Physical.Pindex_join
         { outer = boxes;
           table = part_table ~n:1_000 ();
           binding = "p";
           outer_attr = "b.part_id";
           inner_attr = "id";
           residual = Pred.True })
  in
  Alcotest.(check int) "every box finds its part" 10_000 r.Run.bcount;
  let per_row = words /. 10_000. in
  Printf.printf "index join: %.1f words per output row\n" per_row;
  if per_row > 12. then Alcotest.failf "%.1f words per joined row" per_row

let test_wall_clock_present () =
  let parts = part_table () in
  let r = Run.run ~mode:Run.Tuple_at_a_time (env ()) (pscan parts "p") in
  Alcotest.(check bool) "tuple wall >= 0" true (r.Run.wall_ms >= 0.);
  let br =
    Run.run_batched ~mode:(Run.Batched { batch_size = 64 }) (env ()) (pscan parts "p")
  in
  Alcotest.(check bool) "batched wall >= 0" true (br.Run.bwall_ms >= 0.)

(* --- Output builder capacity ---------------------------------------------------- *)

(* Words allocated straight into the major heap (not promoted from the minor
   heap) since the program started, on this domain. *)
let direct_major_words () =
  let s = gc_stat () in
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
  let med = Mediator.create () in
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

(* --- Scan-path kernels ------------------------------------------------------------ *)

let ints_pool = [| 0; 1; -1; 2; -2; 7; min_int; max_int; min_int + 1; max_int - 1 |]

let floats_pool =
  [| Float.nan; -0.; 0.; Float.infinity; Float.neg_infinity; 1.; -1.; 0.5; 2.;
     float_of_int max_int; float_of_int min_int |]

let boxed_pool =
  [| Constant.Null; Constant.Bool true; Constant.Bool false; Constant.String "a";
     Constant.String ""; Constant.Int 0; Constant.Int max_int; Constant.Float Float.nan;
     Constant.Float (-0.); Constant.Float 1. |]

(* A column of [n] cells drawn from the pools: [Ints], [Floats] or [Boxed]
   by [kind]. *)
let gen_col kind n =
  let open QCheck2.Gen in
  let pick pool = map (fun k -> pool.(k)) (int_bound (Array.length pool - 1)) in
  match kind with
  | 0 -> map (fun l -> Batch.Ints (Array.of_list l)) (list_repeat n (pick ints_pool))
  | 1 -> map (fun l -> Batch.Floats (Array.of_list l)) (list_repeat n (pick floats_pool))
  | _ -> map (fun l -> Batch.Boxed (Array.of_list l)) (list_repeat n (pick boxed_pool))

(* A batch over columns of [phys] physical rows: dense, or a selection
   vector of random positions (repeats and any order, as an index scan
   picks them). *)
let gen_raw_batch attrs kinds =
  let open QCheck2.Gen in
  let* phys = int_range 1 40 in
  let* cols = flatten_l (List.map (fun k -> gen_col k phys) kinds) in
  let cols = Array.of_list cols in
  let* sel = option (list_size (int_range 1 40) (int_bound (phys - 1))) in
  pure
    (match sel with
     | None -> { Batch.attrs; cols; len = phys; sel = None; bytes = Table.cols_bytes cols phys }
     | Some s ->
       let s = Array.of_list s in
       let len = Array.length s in
       { Batch.attrs; cols; len; sel = Some s; bytes = Table.cols_bytes ~sel:s cols len })

(* Row [i] of [b], boxed cell by cell. *)
let boxed_row (b : Batch.t) i =
  { Tuple.attrs = b.Batch.attrs;
    values = Array.init (Array.length b.Batch.cols) (fun c -> Batch.cell b c i) }

(* [Bpred.mask] = [Cmp.eval] on the boxed cells (through [Pred.eval]), in
   mask bytes (exactly 0 or 1) and in count: every operator, the three
   column kinds holding NaN, -0.0, 0.0, infinities, [min_int] and
   [max_int], the five kinds of constant, dense and selected batches, and
   [And]/[Or]/[Not] nestings. *)
let prop_mask_matches_cmp_eval =
  let open QCheck2.Gen in
  let const =
    oneof
      [ map (fun k -> Constant.Int ints_pool.(k)) (int_bound (Array.length ints_pool - 1));
        map (fun k -> Constant.Float floats_pool.(k)) (int_bound (Array.length floats_pool - 1));
        map (fun s -> Constant.String s) (oneofl [ "a"; "" ]);
        pure Constant.Null;
        map (fun b -> Constant.Bool b) bool ]
  in
  let op = oneofl Pred.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let leaf = map3 (fun a op v -> Pred.Cmp (a, op, v)) (oneofl [ "x.a"; "x.b" ]) op const in
  let pred =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             oneof
               [ leaf;
                 map2 (fun p q -> Pred.And (p, q)) (self (n / 2)) (self (n / 2));
                 map2 (fun p q -> Pred.Or (p, q)) (self (n / 2)) (self (n / 2));
                 map (fun p -> Pred.Not p) (self (n - 1)) ])
  in
  let gen =
    let* ka = int_range 0 2 and* kb = int_range 0 2 in
    pair (gen_raw_batch [| "x.a"; "x.b" |] [ ka; kb ]) pred
  in
  QCheck2.Test.make ~name:"mask = Cmp.eval on boxed cells" ~count:2000 gen (fun (b, p) ->
      let m, cnt = Bpred.mask ~apply:(Adt.apply []) b p in
      let want = ref 0 and ok = ref (Bytes.length m = b.Batch.len) in
      for i = 0 to b.Batch.len - 1 do
        let t = boxed_row b i in
        let w = Pred.eval (Tuple.get t) p in
        if w then incr want;
        if Bytes.get m i <> if w then '\001' else '\000' then ok := false
      done;
      !ok && cnt = !want)

(* [Batch.filter] = a plain compaction of the kept rows' positions, with
   their byte size, on random masks over dense and selected batches. A
   kept row's byte is any non-zero value, not only 1. *)
let prop_filter_matches_compaction =
  let open QCheck2.Gen in
  let gen =
    let* kind = int_range 0 2 in
    let* b = gen_raw_batch [| "x.a" |] [ kind ] in
    let* codes = list_repeat b.Batch.len (oneof [ pure 0; pure 1; int_range 2 255 ]) in
    pure (b, codes)
  in
  QCheck2.Test.make ~name:"filter = reference compaction" ~count:1000 gen (fun (b, codes) ->
      let mask = Bytes.of_seq (List.to_seq (List.map Char.chr codes)) in
      let bits = List.map (fun c -> c <> 0) codes in
      let keep = List.length (List.filter Fun.id bits) in
      let phys i = match b.Batch.sel with None -> i | Some s -> s.(i) in
      let kept = List.filteri (fun i _ -> List.nth bits i) (List.init b.Batch.len Fun.id) in
      let r = Batch.filter b mask ~keep in
      let want_sel = Array.of_list (List.map phys kept) in
      let got_sel =
        Array.init r.Batch.len (fun i -> match r.Batch.sel with None -> i | Some s -> s.(i))
      in
      let bytes = List.fold_left (fun s i -> s + Batch.row_bytes b i) 0 kept in
      r.Batch.len = keep && got_sel = want_sel && r.Batch.bytes = bytes
      && r.Batch.cols == b.Batch.cols
      && (match r.Batch.sel with Some s -> Array.length s = keep | None -> keep = b.Batch.len))

(* [Run.rows_of_batched] = per-row boxing through [Batch.cell], over random
   batch lists: mixed schemas (a union), selection vectors, all three
   column kinds, with and without a limit. *)
let prop_answer_matches_cells =
  let open QCheck2.Gen in
  let gen_batch =
    let* schema = int_range 0 1 in
    let attrs = if schema = 0 then [| "u.a"; "u.b" |] else [| "v.c" |] in
    let* kinds = list_repeat (Array.length attrs) (int_range 0 2) in
    gen_raw_batch attrs kinds
  in
  let gen = pair (list_size (int_range 0 5) gen_batch) (option (int_range 0 120)) in
  QCheck2.Test.make ~name:"answer = per-row boxing" ~count:500 gen (fun (batches, limit) ->
      let br =
        { Run.batches;
          bcount = List.fold_left (fun s b -> s + b.Batch.len) 0 batches;
          bbytes = List.fold_left (fun s b -> s + b.Batch.bytes) 0 batches;
          bfirst = 0.; btotal = 0.; bwall_ms = 0. }
      in
      let all = List.concat_map (fun b -> List.init b.Batch.len (boxed_row b)) batches in
      let want =
        match limit with Some n -> List.filteri (fun i _ -> i < n) all | None -> all
      in
      let got = Run.rows_of_batched ?limit br in
      List.length got = List.length want
      && List.for_all2
           (fun (a : Tuple.t) (b : Tuple.t) -> a.Tuple.attrs == b.Tuple.attrs && same_row a b)
           got want)

(* Boxing a 63,046-row one-column answer (the oo7-paper 90 % range) read
   through selection vectors at random positions: at most 10 minor words
   per row (cons 3, tuple 3, values 2, box 2) plus a few per batch, and no
   minor collection forced per batch — only the ones the allocated volume
   fills. *)
let test_answer_allocation () =
  let rng = Rng.create ~seed:5 in
  let stored =
    { Batch.attrs = [| "a.id" |]; cols = [| Batch.Ints (Array.init 70_000 Fun.id) |];
      len = 70_000; bytes = 8 * 70_000; sel = None }
  in
  let n = 63_046 in
  let batches =
    List.init ((n + 1023) / 1024) (fun k ->
        Batch.pick stored
          (Array.init (min 1024 (n - (k * 1024))) (fun _ -> Rng.int rng 70_000)))
  in
  let br =
    { Run.batches; bcount = n; bbytes = 8 * n; bfirst = 0.; btotal = 0.; bwall_ms = 0. }
  in
  let s0 = gc_stat () in
  let rows = Sys.opaque_identity (Run.rows_of_batched br) in
  let s1 = Gc.quick_stat () in
  Gc.minor ();
  let s2 = Gc.quick_stat () in
  Alcotest.(check int) "every row boxed" n (List.length rows);
  let words = s2.Gc.minor_words -. s0.Gc.minor_words in
  let per_row = words /. float_of_int n in
  let collections = s1.Gc.minor_collections - s0.Gc.minor_collections in
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  Printf.printf "answer: %.2f minor words per row, %d minor collections\n" per_row collections;
  let nb = List.length batches in
  if words > float_of_int ((10 * n) + (16 * nb) + 256) then
    Alcotest.failf "%.2f minor words per answer row (%d batches)" per_row nb;
  if float_of_int collections > (words /. heap) +. 2. then
    Alcotest.failf "%d minor collections for %.0f words (minor heap %.0f words)" collections
      words heap

(* --- The batched engine composes with the mediator --------------------------- *)

let with_mode m f =
  let prev = Run.default_mode () in
  Run.set_default_mode m;
  Fun.protect ~finally:(fun () -> Run.set_default_mode prev) f

(* The batched engine is a drop-in under the whole mediator: for each stats
   mode the full execution trace — rows, measured bits, simulated clock —
   of the batched engine at every batch size equals the tuple engine's,
   over both the demo federation and OO7. Wrapper results cross into the
   mediator as batches, so this also pins their composition, selection
   vectors included. *)
let test_batched_composes () =
  with_mode (Run.Batched { batch_size = 7 }) (fun () ->
      let source = Disco_oo7.Oo7.make_source ~config:Traces.oo7_config () in
      let batches, _ = Disco_wrapper.Wrapper.execute source Traces.oo7_filtered in
      Alcotest.(check bool)
        "the filtered range crosses as several selection-vector batches" true
        (List.length batches > 1
         && List.for_all (fun (b : Batch.t) -> b.Batch.sel <> None) batches));
  List.iter
    (fun stats_mode ->
      let exec_ref, oo7_ref =
        with_mode Run.Tuple_at_a_time (fun () ->
            (Traces.trace_execute ~stats_mode (), Traces.trace_oo7 ~stats_mode ()))
      in
      List.iter
        (fun batch_size ->
          with_mode (Run.Batched { batch_size }) (fun () ->
              if Traces.trace_execute ~stats_mode () <> exec_ref then
                Alcotest.failf "batched execute trace diverged at batch %d"
                  batch_size;
              if Traces.trace_oo7 ~stats_mode () <> oo7_ref then
                Alcotest.failf "batched OO7 trace diverged at batch %d" batch_size))
        [ 1; 7; 64; 1024 ])
    [ Disco_mediator.Mediator.Stats_off;
      Disco_mediator.Mediator.Stats_feedback Disco_core.History.default_feedback ]

let () =
  Alcotest.run "batch"
    [ ( "representation",
        [ Alcotest.test_case "builder typing + bytes" `Quick test_builder_typing;
          Alcotest.test_case "find_col = Tuple.get" `Quick test_find_col_matches_tuple_get;
          Alcotest.test_case "mask = Pred.eval" `Quick test_mask_matches_pred_eval ] );
      ( "scan kernels",
        [ QCheck_alcotest.to_alcotest prop_mask_matches_cmp_eval;
          QCheck_alcotest.to_alcotest prop_filter_matches_compaction;
          QCheck_alcotest.to_alcotest prop_answer_matches_cells;
          Alcotest.test_case "answer allocates at most 10 words per row" `Quick
            test_answer_allocation ] );
      ( "differential",
        [ Alcotest.test_case "all operators, boundary batch sizes" `Quick
            test_diff_operators;
          Alcotest.test_case "empty inputs" `Quick test_diff_empty_table;
          Alcotest.test_case "materialized input" `Quick test_materialized_roundtrip;
          Alcotest.test_case "sort edge cases" `Quick test_sort_edge_cases;
          Alcotest.test_case "hash join edge cases" `Quick test_hash_join_edge_cases;
          Alcotest.test_case "aggregate edge cases" `Quick test_aggregate_edge_cases;
          QCheck_alcotest.to_alcotest prop_kernels_match_reference;
          Alcotest.test_case "index scans and index joins" `Quick test_index_access_diff;
          Alcotest.test_case "batched engine composes" `Quick test_batched_composes ] );
      ( "accounting",
        [ Alcotest.test_case "incremental count/bytes exact" `Quick
            test_incremental_accounting;
          Alcotest.test_case "wall clock populated" `Quick test_wall_clock_present;
          Alcotest.test_case "small outputs stay in the minor heap" `Quick
            test_small_outputs_stay_minor;
          Alcotest.test_case "materialized input costs O(#batches)" `Quick
            test_materialized_input_allocation;
          Alcotest.test_case "sort allocates O(1) words per row" `Quick test_sort_allocation;
          Alcotest.test_case "hash join allocates O(1) words per row" `Quick
            test_hash_join_allocation;
          Alcotest.test_case "index scan allocates a word per row" `Quick
            test_index_scan_allocation;
          Alcotest.test_case "index join allocates O(1) words per row" `Quick
            test_index_join_allocation ] ) ]
