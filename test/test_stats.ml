(* Cardinality test matrix for the feedback-driven statistics subsystem
   (DESIGN.md §11), after the triple_store exemplar's test discipline: each
   case pins an estimated-vs-actual error bound, not just "doesn't crash".

   - fully-bound key predicate estimates ≈ 1 object;
   - unbound scan estimates exactly the extent count;
   - histogram-backed predicates beat the uniform fallback on skewed data;
   - multiple bound attributes multiply their selectivities;
   - join cardinality comes from histogram overlap, separating overlapping
     from disjoint key domains. *)

open Disco_common
open Disco_catalog
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_mediator

let nrows = 2000
let skew_threshold = 9000

(* One source, four tables:
   - Val: [id] unique, [v] skewed (90% of mass above [skew_threshold]),
     [u] uniform and independent of [v];
   - Hot / Cold / Far: single-key tables whose [k] domains overlap fully,
     partially and not at all, for the join-overlap cases. *)
let make_source () =
  let rng = Rng.create ~seed:11 in
  let val_schema =
    Schema.collection "Val"
      [ ("id", Schema.Tint); ("v", Schema.Tint); ("u", Schema.Tint) ]
  in
  let val_rows =
    List.init nrows (fun i ->
        let v =
          if Rng.int rng 10 < 9 then skew_threshold + 1 + Rng.int rng 1000
          else Rng.int rng (skew_threshold + 1)
        in
        [| Constant.Int (i + 1); Constant.Int v; Constant.Int (Rng.int rng 1000) |])
  in
  let keyed name lo hi n =
    let schema = Schema.collection name [ (name ^ "_id", Schema.Tint); ("k", Schema.Tint) ] in
    let rows =
      List.init n (fun i ->
          [| Constant.Int (i + 1); Constant.Int (lo + Rng.int rng (hi - lo + 1)) |])
    in
    Table.create ~name ~schema ~object_size:16 rows
  in
  let tables =
    [ Table.create ~name:"Val" ~schema:val_schema ~object_size:24
        ~index_on:[ "id" ] val_rows;
      keyed "Hot" 1 100 400;
      keyed "Cold" 51 150 400;
      keyed "Far" 1000 1100 400 ]
  in
  Wrapper.create ~name:"skewtest" ~engine:Costs.relational ~network:Costs.lan tables

let mediator ~stats () =
  let stats_mode =
    if stats then Mediator.Stats_feedback History.default_feedback
    else Mediator.Stats_off
  in
  let med = Mediator.create ~stats_mode () in
  Mediator.register med (make_source ());
  med

let med_on = mediator ~stats:true ()
let med_off = mediator ~stats:false ()

(* Estimated output cardinality and actual row count of one query. *)
let est_and_actual med sql =
  let a = Mediator.run_query med sql in
  (Estimator.count_object a.Mediator.estimate, float_of_int (List.length a.Mediator.rows))

let err ~est ~real = Float.abs (est -. real) /. Float.max real 1.

let check_bound name ~bound ~est ~real =
  let e = err ~est ~real in
  Alcotest.(check bool)
    (Fmt.str "%s: est %.1f vs actual %.0f, rel err %.2f <= %.2f" name est real e bound)
    true (e <= bound)

(* --- fully bound: unique key predicate estimates ~ one object -------------- *)

let test_fully_bound () =
  let est, real = est_and_actual med_on "select val.v from Val val where val.id = 42" in
  Alcotest.(check bool) "actual is exactly one row" true (real = 1.);
  (* equi-depth buckets put ~ nrows/32 ids per bucket with as many distinct
     values, so count/distinct ≈ 1; allow sampling slack *)
  Alcotest.(check bool) (Fmt.str "fully bound est %.2f in [0.25, 4]" est)
    true (est >= 0.25 && est <= 4.)

(* --- unbound: scan estimates exactly the extent count ---------------------- *)

let test_unbound () =
  let est, real = est_and_actual med_on "select val.id from Val val" in
  check_bound "unbound scan" ~bound:0.001 ~est ~real;
  Alcotest.(check bool) "extent count exact" true (est = float_of_int nrows)

(* --- skew: histogram beats the uniform fallback ---------------------------- *)

let test_skew_beats_uniform () =
  let sql = "select val.id from Val val where val.v > 9000" in
  let est_u, real = est_and_actual med_off sql in
  let est_h, _ = est_and_actual med_on sql in
  let e_u = err ~est:est_u ~real and e_h = err ~est:est_h ~real in
  (* uniform sees 10% above the cutoff where 90% of the data lives *)
  Alcotest.(check bool) (Fmt.str "uniform badly off (err %.2f > 0.5)" e_u)
    true (e_u > 0.5);
  Alcotest.(check bool) "histogram within 10%" true (e_h <= 0.1);
  Alcotest.(check bool)
    (Fmt.str "histogram at least 2x better (%.3f vs %.3f)" e_h e_u)
    true (e_h *. 2. <= e_u)

let test_skew_range_family () =
  (* error bound holds across the whole range family, not one lucky cutoff *)
  List.iter
    (fun (sql, bound) ->
      let est, real = est_and_actual med_on sql in
      check_bound sql ~bound ~est ~real)
    [ ("select val.id from Val val where val.v <= 2000", 0.5);
      ("select val.id from Val val where val.v > 5000", 0.1);
      ("select val.id from Val val where val.v > 9900", 0.25) ]

(* --- conjunction: bound attributes multiply selectivities ------------------ *)

let test_conjunction_multiplies () =
  (* u and v are independent: P(u <= 500 && v > 9000) = P(u <= 500) P(v > 9000) *)
  let est_u, _ = est_and_actual med_on "select val.id from Val val where val.u <= 500" in
  let est_v, _ = est_and_actual med_on "select val.id from Val val where val.v > 9000" in
  let est_uv, real =
    est_and_actual med_on
      "select val.id from Val val where val.u <= 500 and val.v > 9000"
  in
  let expected = est_u *. est_v /. float_of_int nrows in
  check_bound "product of marginals" ~bound:0.05 ~est:est_uv ~real:expected;
  (* and multiplying stays close to the truth because they really are
     independent *)
  check_bound "conjunction vs actual" ~bound:0.15 ~est:est_uv ~real

(* --- joins: cardinality via histogram overlap ------------------------------ *)

let join_sql a b = Fmt.str "select %s.k from %s %s, %s %s where %s.k = %s.k"
    (String.lowercase_ascii a) a (String.lowercase_ascii a) b
    (String.lowercase_ascii b) (String.lowercase_ascii a) (String.lowercase_ascii b)

let test_join_overlap () =
  (* full overlap: both [1,100] x [51,150] share half their domains *)
  let est, real = est_and_actual med_on (join_sql "Hot" "Cold") in
  check_bound "partial-overlap join" ~bound:0.35 ~est ~real

let test_join_disjoint () =
  (* Hot [1,100] and Far [1000,1100] never join; the uniform 1/Max estimate
     can't see that, the histogram overlap can *)
  let est_h, real = est_and_actual med_on (join_sql "Hot" "Far") in
  let est_u, _ = est_and_actual med_off (join_sql "Hot" "Far") in
  Alcotest.(check bool) "disjoint join is empty" true (real = 0.);
  Alcotest.(check bool)
    (Fmt.str "histogram estimate near zero (%.2f)" est_h)
    true (est_h <= 1.);
  Alcotest.(check bool)
    (Fmt.str "uniform estimate far off (%.0f)" est_u)
    true (est_u > 100.)

(* --- Stats off is the seed path (demo + OO7) ------------------------------------ *)

(* A mediator with [Stats_off] passed explicitly must trace bit-identically
   to one built without the argument (the construction path every other
   caller uses): the no-histogram path is the seed behavior, not merely
   close to it. *)
let test_stats_off_identical_demo () =
  if Traces.trace_optimize ~stats_mode:Mediator.Stats_off () <> Traces.trace_optimize ()
  then Alcotest.fail "stats-off optimize trace diverged";
  if Traces.trace_execute ~stats_mode:Mediator.Stats_off () <> Traces.trace_execute ()
  then Alcotest.fail "stats-off execute trace diverged"

(* The same contract over the OO7 federation: the full query workload
   executed through the mediator (submit, measured times, simulated clock). *)
let test_stats_off_identical_oo7 () =
  if Traces.trace_oo7 ~stats_mode:Mediator.Stats_off () <> Traces.trace_oo7 () then
    Alcotest.fail "OO7 stats-off trace diverged"

let () =
  Alcotest.run "stats"
    [ ( "cardinality matrix",
        [ Alcotest.test_case "fully bound ~ 1" `Quick test_fully_bound;
          Alcotest.test_case "unbound = extent count" `Quick test_unbound;
          Alcotest.test_case "histogram beats uniform on skew" `Quick
            test_skew_beats_uniform;
          Alcotest.test_case "range family error bounds" `Quick
            test_skew_range_family;
          Alcotest.test_case "conjunction multiplies" `Quick
            test_conjunction_multiplies;
          Alcotest.test_case "join via histogram overlap" `Quick test_join_overlap;
          Alcotest.test_case "disjoint join detected" `Quick test_join_disjoint ] );
      ( "differential",
        [ Alcotest.test_case "stats off = seed (demo)" `Quick
            test_stats_off_identical_demo;
          Alcotest.test_case "stats off = seed (OO7)" `Quick
            test_stats_off_identical_oo7 ] ) ]
