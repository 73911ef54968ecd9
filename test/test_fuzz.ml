(* Property/fuzz tests across the whole stack:

   - random logical plans over the demo federation never break the estimator,
     and always produce finite non-negative cost variables (the generic model
     is total);
   - random queries from a grammar of templates produce exactly the rows a
     naive cross-product reference evaluator produces. *)

open Disco_common
open Disco_algebra
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_mediator

(* One shared federation: generation is deterministic and the estimator does
   not mutate it. *)
let wrappers = Demo.make ~sizes:Demo.small_sizes ()

let med =
  let m = Mediator.create () in
  List.iter (Mediator.register m) wrappers;
  m

let registry = Mediator.registry med

(* --- Random plan generation ------------------------------------------------- *)

(* (source, collection, binding, int attributes, an indexed int attribute) *)
let scannables =
  [ ("relstore", "Employee", "e", [ "id"; "dept_id"; "salary"; "age" ]);
    ("relstore", "Department", "d", [ "id"; "budget" ]);
    ("objstore", "Project", "p", [ "id"; "dept_id"; "cost"; "hours_budget" ]);
    ("objstore", "Task", "t", [ "id"; "project_id"; "hours" ]);
    ("files", "Document", "doc", [ "doc_id"; "project_id"; "bytes" ]);
    ("web", "Listing", "l", [ "id"; "emp_id"; "rating" ]) ]

let gen_cmp = QCheck2.Gen.oneofl [ Pred.Eq; Pred.Ne; Pred.Lt; Pred.Le; Pred.Gt; Pred.Ge ]

let gen_pred binding attrs =
  QCheck2.Gen.(
    let atom =
      map3
        (fun attr op v -> Pred.Cmp (binding ^ "." ^ attr, op, Constant.Int v))
        (oneofl attrs) gen_cmp (int_range (-10) 10_000)
    in
    let rec tree n =
      if n = 0 then atom
      else
        frequency
          [ (3, atom);
            (1, map2 (fun a b -> Pred.And (a, b)) (tree (n - 1)) (tree (n - 1)));
            (1, map2 (fun a b -> Pred.Or (a, b)) (tree (n - 1)) (tree (n - 1)));
            (1, map (fun a -> Pred.Not a) (tree (n - 1))) ]
    in
    tree 2)

(* A random single-source plan: scan with optional select / project / sort /
   dedup / aggregate decoration, possibly under a submit. *)
let gen_plan =
  QCheck2.Gen.(
    let* src, coll, binding, attrs = oneofl scannables in
    let scan = Plan.Scan { Plan.source = src; collection = coll; binding } in
    let* with_select = bool in
    let* p = gen_pred binding attrs in
    let base = if with_select then Plan.Select (scan, p) else scan in
    let* shape = int_range 0 4 in
    let qattr a = binding ^ "." ^ a in
    let decorated =
      match shape with
      | 0 -> base
      | 1 -> Plan.Project (base, [ qattr (List.hd attrs) ])
      | 2 -> Plan.Sort (base, [ (qattr (List.hd attrs), Plan.Desc) ])
      | 3 -> Plan.Dedup base
      | _ ->
        Plan.Aggregate
          ( base,
            { Plan.group_by = [ qattr (List.hd attrs) ];
              aggs = [ (Plan.Count, "", "n") ] } )
    in
    let* submit = bool in
    return (src, if submit then Plan.Submit (src, decorated) else decorated))

let prop_estimator_total =
  QCheck2.Test.make ~name:"estimator total on random plans" ~count:300 gen_plan
    (fun (src, plan) ->
      let source = match plan with Plan.Submit _ -> None | _ -> Some src in
      let ann = Estimator.estimate ?source registry plan in
      List.for_all
        (fun v ->
          match Estimator.var ann v with
          | Some x -> Float.is_finite x && x >= 0.
          | None -> false)
        Disco_costlang.Ast.all_cost_vars)

(* Random two-scan joins within one source, both orientations. *)
let joinables =
  [ ("objstore", ("Task", "t", "t.project_id"), ("Project", "p", "p.id"));
    ("relstore", ("Employee", "e", "e.dept_id"), ("Department", "d", "d.id")) ]

let prop_estimator_joins =
  QCheck2.Test.make ~name:"estimator total on random joins" ~count:100
    QCheck2.Gen.(pair (oneofl joinables) (pair bool (int_range 0 8000)))
    (fun ((src, (c1, b1, a1), (c2, b2, a2)), (swap, v)) ->
      let s1 = Plan.Scan { Plan.source = src; collection = c1; binding = b1 } in
      let s2 = Plan.Scan { Plan.source = src; collection = c2; binding = b2 } in
      let filtered =
        Plan.Select (s1, Pred.Cmp (b1 ^ ".id", Pred.Le, Constant.Int v))
      in
      let pred = Pred.Attr_cmp (a1, Pred.Eq, a2) in
      let join =
        if swap then Plan.Join (s2, filtered, pred) else Plan.Join (filtered, s2, pred)
      in
      let ann = Estimator.estimate ~source:src registry join in
      Float.is_finite (Estimator.count_object ann)
      && Estimator.total_time ann >= 0.)

(* --- Histogram properties (DESIGN.md §11) ------------------------------------- *)

let gen_ints = QCheck2.Gen.(list_size (int_range 1 300) (int_range (-500) 500))

let build ?buckets xs =
  Option.get
    (Disco_catalog.Histogram.of_values ?buckets
       (List.map (fun i -> Constant.Int i) xs))

(* [strict] buckets never touch (fresh builds); merged histograms overlay a
   boundary grid, so adjacent buckets may share an endpoint. *)
let bucket_invariants ?(strict = true) (h : Disco_catalog.Histogram.t) =
  let open Disco_catalog.Histogram in
  let bs = buckets h in
  let ascending =
    let rec go = function
      | a :: (b :: _ as rest) ->
        (if strict then a.hi < b.lo else a.hi <= b.lo) && go rest
      | _ -> true
    in
    go bs
  in
  ascending
  && List.for_all (fun b -> b.lo <= b.hi && b.count > 0. && b.distinct >= 1.) bs
  && Float.abs (List.fold_left (fun a b -> a +. b.count) 0. bs -. total h) < 1e-6

let prop_equi_depth =
  QCheck2.Test.make ~name:"equi-depth invariant after build" ~count:300 gen_ints
    (fun xs ->
      let distinct = List.sort_uniq compare xs in
      let h = build ~buckets:8 distinct in
      let counts =
        List.map (fun b -> b.Disco_catalog.Histogram.count) (Disco_catalog.Histogram.buckets h)
      in
      let mx = List.fold_left Float.max neg_infinity counts in
      let mn = List.fold_left Float.min infinity counts in
      (* all-distinct input: equi-depth cuts differ by at most one object *)
      bucket_invariants h
      && mx -. mn <= 1.
      && Disco_catalog.Histogram.total h = float_of_int (List.length distinct))

let prop_cdf_monotone =
  QCheck2.Test.make ~name:"CDF monotone in [0,1]" ~count:300
    QCheck2.Gen.(triple gen_ints (int_range (-600) 600) (int_range 0 300))
    (fun (xs, x, d) ->
      let open Disco_catalog.Histogram in
      let h = build xs in
      let sel v = Option.get (sel_cmp h Cmp.Le (Constant.Int v)) in
      let a = sel x and b = sel (x + d) in
      (* tolerance covers ulp-level rounding in [lt + eq]; a genuine
         monotonicity break is at least a bucket share (>= 1e-3) *)
      0. <= a && a <= b +. 1e-9 && b <= 1.)

let prop_extremes =
  QCheck2.Test.make ~name:"sel(a <= max) = 1 and sel(a < min) = 0" ~count:300
    gen_ints
    (fun xs ->
      let open Disco_catalog.Histogram in
      let h = build xs in
      let mn = List.fold_left min max_int xs and mx = List.fold_left max min_int xs in
      Option.get (sel_cmp h Cmp.Le (Constant.Int mx)) = 1.
      && Option.get (sel_cmp h Cmp.Lt (Constant.Int mn)) = 0.)

let prop_deterministic =
  QCheck2.Test.make ~name:"build deterministic under a fixed Rng seed" ~count:50
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1500 4000))
    (fun (seed0, n) ->
      (* above the subsample threshold, so the Rng path is exercised *)
      let xs = List.init n (fun i -> Constant.Int ((i * 37) mod 977)) in
      let open Disco_catalog.Histogram in
      let h1 = Option.get (of_values ~seed:seed0 xs) in
      let h2 = Option.get (of_values ~seed:seed0 xs) in
      buckets h1 = buckets h2 && total h1 = total h2)

(* [Selest.of_pred] stays within [0,1] when the inputs carry histograms. *)
let prop_selest_bounds_hist =
  QCheck2.Test.make ~name:"of_pred in [0,1] with histograms present" ~count:300
    QCheck2.Gen.(pair gen_ints (gen_pred "x" [ "a"; "b" ]))
    (fun (xs, p) ->
      let h = build xs in
      let stat =
        { Derive.default_stat with
          Derive.hist = Some h;
          min = Constant.Int (List.fold_left min max_int xs);
          max = Constant.Int (List.fold_left max min_int xs);
          distinct = float_of_int (List.length (List.sort_uniq compare xs)) }
      in
      let inputs = [ [ ("x.a", stat); ("x.b", stat) ] ] in
      let s = Selest.of_pred inputs p in
      Float.is_finite s && 0. <= s && s <= 1.)

(* --- End-to-end query fuzz ---------------------------------------------------- *)

let rows_of source name binding =
  let w = List.find (fun w -> w.Wrapper.name = source) wrappers in
  let t = Wrapper.find_table w name in
  let attrs =
    Array.of_list
      (List.map
         (fun (a : Disco_catalog.Schema.attribute) ->
           binding ^ "." ^ a.Disco_catalog.Schema.attr_name)
         t.Table.schema.Disco_catalog.Schema.attributes)
  in
  List.map (Tuple.make attrs) (Table.rows t)

(* Templates: (output attr, relations, where builder). *)
type template = {
  sql : int -> string;
  out : string;
  reference : int -> string list;
}

let sorted_ids rows attr =
  List.sort compare (List.map (fun t -> Constant.to_string (Tuple.get t attr)) rows)

let apply_adt name a v =
  if name = "lang_match" then Demo.lang_match.Disco_exec.Adt.impl a v
  else failwith "unknown adt"

let filter_ids ~out pred rows =
  sorted_ids (List.filter (fun t -> Pred.eval ~apply:apply_adt (Tuple.get t) pred) rows) out

let join_ref ~out pred left right =
  let joined =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun r ->
            let t = Tuple.concat l r in
            if Pred.eval ~apply:apply_adt (Tuple.get t) pred then Some t else None)
          right)
      left
  in
  sorted_ids joined out

let templates : template list =
  [ { sql = (fun v -> Fmt.str "select e.id from Employee e where e.salary > %d" v);
      out = "e.id";
      reference =
        (fun v ->
          filter_ids ~out:"e.id"
            (Pred.Cmp ("e.salary", Pred.Gt, Constant.Int v))
            (rows_of "relstore" "Employee" "e")) };
    { sql =
        (fun v ->
          Fmt.str "select e.id from Employee e where e.age < %d and e.dept_id = %d" (v mod 60)
            (1 + (v mod 20)));
      out = "e.id";
      reference =
        (fun v ->
          filter_ids ~out:"e.id"
            (Pred.And
               ( Pred.Cmp ("e.age", Pred.Lt, Constant.Int (v mod 60)),
                 Pred.Cmp ("e.dept_id", Pred.Eq, Constant.Int (1 + (v mod 20))) ))
            (rows_of "relstore" "Employee" "e")) };
    { sql =
        (fun v ->
          Fmt.str
            "select e.id from Employee e, Department d \
             where e.dept_id = d.id and d.budget > %d and e.salary > %d"
            (100_000 + (v * 37 mod 300_000))
            (v mod 30_000));
      out = "e.id";
      reference =
        (fun v ->
          join_ref ~out:"e.id"
            (Pred.And
               ( Pred.Attr_cmp ("e.dept_id", Pred.Eq, "d.id"),
                 Pred.And
                   ( Pred.Cmp ("d.budget", Pred.Gt, Constant.Int (100_000 + (v * 37 mod 300_000))),
                     Pred.Cmp ("e.salary", Pred.Gt, Constant.Int (v mod 30_000)) ) ))
            (rows_of "relstore" "Employee" "e")
            (rows_of "relstore" "Department" "d")) };
    { sql =
        (fun v ->
          Fmt.str "select l.id from Listing l where l.rating >= %d" (1 + (v mod 5)));
      out = "l.id";
      reference =
        (fun v ->
          filter_ids ~out:"l.id"
            (Pred.Cmp ("l.rating", Pred.Ge, Constant.Int (1 + (v mod 5))))
            (rows_of "web" "Listing" "l")) };
    { sql =
        (fun v ->
          Fmt.str
            "select t.id from Project p, Task t where t.project_id = p.id and p.cost < %d"
            (5000 + (v mod 100_000)));
      out = "t.id";
      reference =
        (fun v ->
          join_ref ~out:"t.id"
            (Pred.And
               ( Pred.Attr_cmp ("t.project_id", Pred.Eq, "p.id"),
                 Pred.Cmp ("p.cost", Pred.Lt, Constant.Int (5000 + (v mod 100_000))) ))
            (rows_of "objstore" "Project" "p")
            (rows_of "objstore" "Task" "t")) };
    { sql =
        (fun v ->
          Fmt.str
            "select d.doc_id from Document d \
             where lang_match(d.lang, \"en\") and d.bytes > %d"
            (v mod 100_000));
      out = "d.doc_id";
      reference =
        (fun v ->
          filter_ids ~out:"d.doc_id"
            (Pred.And
               ( Pred.Apply ("lang_match", "d.lang", Constant.String "en"),
                 Pred.Cmp ("d.bytes", Pred.Gt, Constant.Int (v mod 100_000)) ))
            (rows_of "files" "Document" "d")) } ]

let prop_query_vs_reference =
  QCheck2.Test.make ~name:"random queries match the naive reference" ~count:60
    QCheck2.Gen.(pair (int_range 0 (List.length templates - 1)) (int_range 0 1_000_000))
    (fun (ti, v) ->
      let t = List.nth templates ti in
      let a = Mediator.run_query med (t.sql v) in
      sorted_ids a.Mediator.rows t.out = t.reference v)

(* --- Engine differential ------------------------------------------------------

   The batched engine must be indistinguishable from the tuple engine on
   anything but wall-clock: same rows in the same order, bit-identical
   simulated cost vectors — across random plans, random batch sizes
   (including 1 and sizes larger than any input) and both join modes. *)

let gen_join_plan =
  QCheck2.Gen.(
    let* src, (c1, b1, a1), (c2, b2, a2) = oneofl joinables in
    let* swap = bool in
    let* v = int_range 0 8000 in
    let s1 = Plan.Scan { Plan.source = src; collection = c1; binding = b1 } in
    let s2 = Plan.Scan { Plan.source = src; collection = c2; binding = b2 } in
    let filtered =
      Plan.Select (s1, Pred.Cmp (b1 ^ ".id", Pred.Le, Constant.Int v))
    in
    let pred = Pred.Attr_cmp (a1, Pred.Eq, a2) in
    return
      (src, if swap then Plan.Join (s2, filtered, pred) else Plan.Join (filtered, s2, pred)))

let gen_engine_plan =
  QCheck2.Gen.(
    frequency
      [ (3, map (fun (src, p) ->
             (src, match p with Plan.Submit (_, p) -> p | p -> p))
           gen_plan);
        (2, gen_join_plan) ])

let bits = Int64.bits_of_float

let prop_engines_agree =
  QCheck2.Test.make ~name:"batched = tuple: rows and simulated costs" ~count:150
    QCheck2.Gen.(triple gen_engine_plan bool (int_range 1 70))
    (fun ((src, plan), hj, bsz) ->
      let w = List.find (fun w -> w.Wrapper.name = src) wrappers in
      let phys =
        Physical.of_logical ~engine:w.Wrapper.engine
          ~find_table:(Wrapper.find_table w) plan
      in
      let env =
        { Run.engine = w.Wrapper.engine;
          buffer = w.Wrapper.buffer;
          hash_join = hj;
          adts = w.Wrapper.adts }
      in
      (* identical cold buffer state before each engine, so the IO charge
         sequences are comparable *)
      Buffer.clear w.Wrapper.buffer;
      let rt, vt = Run.measure ~mode:Run.Tuple_at_a_time env phys in
      Buffer.clear w.Wrapper.buffer;
      let rb, vb = Run.measure ~mode:(Run.Batched { batch_size = bsz }) env phys in
      List.length rt = List.length rb
      && List.for_all2 Tuple.equal rt rb
      && bits vt.Run.count = bits vb.Run.count
      && bits vt.Run.size = bits vb.Run.size
      && bits vt.Run.time_first = bits vb.Run.time_first
      && bits vt.Run.total_time = bits vb.Run.total_time
      && bits vt.Run.time_next = bits vb.Run.time_next)

(* Both optimization objectives return the same rows. *)
let prop_objectives_agree =
  QCheck2.Test.make ~name:"objectives agree on answers" ~count:20
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun v ->
      let t = List.nth templates (v mod 3) in
      let a = Mediator.run_query med (t.sql v) in
      let b = Mediator.run_query ~objective:Optimizer.First_tuple med (t.sql v) in
      sorted_ids a.Mediator.rows t.out = sorted_ids b.Mediator.rows t.out)

let () =
  Alcotest.run "fuzz"
    [ ( "estimator",
        List.map QCheck_alcotest.to_alcotest
          [ prop_estimator_total; prop_estimator_joins ] );
      ( "histogram",
        List.map QCheck_alcotest.to_alcotest
          [ prop_equi_depth; prop_cdf_monotone; prop_extremes;
            prop_deterministic; prop_selest_bounds_hist ] );
      ( "engine differential",
        List.map QCheck_alcotest.to_alcotest [ prop_engines_agree ] );
      ( "end-to-end",
        List.map QCheck_alcotest.to_alcotest
          [ prop_query_vs_reference; prop_objectives_agree ] ) ]
