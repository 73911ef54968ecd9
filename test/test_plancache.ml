(* The cross-query plan cache, tested two ways:

   - differentially: random queries planned through a cache-enabled and a
     cache-disabled mediator over the same federation must yield the
     identical plan and a bit-identical estimated cost ([Int64.bits_of_float]
     equality, not an epsilon) — and a repeated cached query, now served from
     the warm cross-query cache, must reproduce the same bits without
     running a plan search. The plan-cache properties are pinned on the
     query-level table: structurally identical join specs share a search
     result, a registration forces a new search, an open breaker refuses
     the query before any lookup, and the two objectives key apart;

   - invalidation: every kind of cost-model write — rule registration,
     re-registration (its rules, [let]s and ADT parameters), calibration
     adjustment, historical feedback (§4.3) — must bump
     {!Registry.generation}, so a stale cache entry is dropped instead of
     served and re-estimation sees the new model. One test per {!Registry}
     invalidation site. *)

open Disco_common
open Disco_algebra
open Disco_costlang
open Disco_core
open Disco_wrapper
open Disco_mediator

let bits = Int64.bits_of_float

(* --- Differential harness ------------------------------------------------------ *)

let federation ~cache =
  let m = Mediator.create ~cache () in
  List.iter (Mediator.register m) (Demo.make ~sizes:Demo.small_sizes ());
  m

(* Two mediators over the same deterministic demo federation: the reference
   (cache disabled: no plan cache) and the cached one. *)
let reference, cached = (federation ~cache:false, federation ~cache:true)

(* Plan-search work a mediator has done so far. *)
let considered med = (Mediator.optimizer_stats med).Optimizer.plans_considered

(* Query templates spanning the shapes the optimizer sees: single-source
   selections, intra- and cross-source joins, three- and four-way joins,
   decoration (distinct / order by / group by), and an ADT predicate whose
   placement is itself cost-based (§7). *)
let templates =
  [ (fun v -> Fmt.str "select e.id from Employee e where e.salary > %d" (v mod 30_000));
    (fun v ->
      Fmt.str "select e.id, e.name from Employee e where e.age < %d and e.dept_id = %d"
        (v mod 60) (1 + (v mod 20)));
    (fun v ->
      Fmt.str
        "select e.id from Employee e, Department d \
         where e.dept_id = d.id and d.budget > %d"
        (100_000 + (v * 37 mod 300_000)));
    (fun v ->
      Fmt.str
        "select t.id from Project p, Task t where t.project_id = p.id and p.cost < %d"
        (5000 + (v mod 100_000)));
    (fun v ->
      Fmt.str
        "select e.id from Employee e, Department d, Project p \
         where e.dept_id = d.id and d.id = p.dept_id and e.salary > %d"
        (v mod 30_000));
    (fun v ->
      Fmt.str
        "select e.id from Employee e, Department d, Project p, Task t \
         where e.dept_id = d.id and d.id = p.dept_id and p.id = t.project_id \
         and t.hours > %d"
        (v mod 100));
    (fun v ->
      Fmt.str "select l.id from Employee e, Listing l where l.emp_id = e.id \
               and l.rating >= %d"
        (1 + (v mod 5)));
    (fun v ->
      Fmt.str "select distinct d.city from Department d where d.budget > %d"
        (v mod 300_000));
    (fun v ->
      Fmt.str
        "select e.dept_id, count(*) as n from Employee e where e.salary > %d \
         group by e.dept_id order by n desc limit 3"
        (v mod 30_000));
    (fun v ->
      Fmt.str
        "select d.doc_id from Document d \
         where lang_match(d.lang, \"en\") and d.bytes > %d"
        (v mod 100_000)) ]

let prop_differential =
  QCheck2.Test.make ~name:"cached plan and cost = uncached (bit-identical)"
    ~count:200
    QCheck2.Gen.(pair (int_range 0 (List.length templates - 1)) (int_range 0 1_000_000))
    (fun (ti, v) ->
      let sql = (List.nth templates ti) v in
      let p0, c0 = Mediator.plan_query reference sql in
      let p1, c1 = Mediator.plan_query cached sql in
      (* same query again: the search result and the complete-plan cost now
         come from the warm cross-query cache, so no plan search runs *)
      let searched = considered cached in
      let p2, c2 = Mediator.plan_query cached sql in
      Plan.equal p0 p1 && bits c0 = bits c1 && Plan.equal p0 p2 && bits c0 = bits c2
      && considered cached = searched)

let prop_objectives_differential =
  QCheck2.Test.make ~name:"differential also holds under TimeFirst" ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun v ->
      let sql = (List.nth templates (v mod List.length templates)) v in
      let objective = Optimizer.First_tuple in
      let p0, c0 = Mediator.plan_query ~objective reference sql in
      let p1, c1 = Mediator.plan_query ~objective cached sql in
      Plan.equal p0 p1 && bits c0 = bits c1)

(* Runs after the properties (alcotest preserves suite order): the
   differential pass must actually have exercised the cache, otherwise the
   equalities above prove nothing. *)
let test_cache_was_exercised () =
  let c = Plancache.counters (Mediator.plancache cached) in
  Alcotest.(check bool) "cross-query hits happened" true (c.Plancache.hits > 0);
  Alcotest.(check bool) "misses happened" true (c.Plancache.misses > 0);
  let r = Plancache.counters (Mediator.plancache reference) in
  Alcotest.(check int) "reference cache never consulted" 0
    (r.Plancache.hits + r.Plancache.misses)

let test_no_cache_flag_toggles () =
  let med = Mediator.create ~cache:false () in
  List.iter (Mediator.register med) (Demo.make ~sizes:Demo.small_sizes ());
  Alcotest.(check bool) "disabled at creation" false (Mediator.cache_enabled med);
  let sql = "select e.id from Employee e where e.salary > 1000" in
  ignore (Mediator.plan_query med sql);
  Alcotest.(check int) "no lookups while disabled" 0
    ((Plancache.counters (Mediator.plancache med)).Plancache.misses);
  Mediator.set_cache_enabled med true;
  ignore (Mediator.plan_query med sql);
  Alcotest.(check bool) "lookups once enabled" true
    ((Plancache.counters (Mediator.plancache med)).Plancache.misses > 0)

(* Two texts with the same FROM/WHERE whose SELECT lists need the same
   attributes of every relation resolve to one join spec: the second plans
   from the first one's search result and only adds its own whole-plan
   entry. A SELECT list needing other attributes changes a base's
   projection, hence the spec, and searches on its own. *)
let test_shared_search_entry () =
  let med = federation ~cache:true in
  let where =
    " from Employee e, Department d where e.dept_id = d.id and d.budget > 100000"
  in
  let as_uncached sql (p, c) =
    let p0, c0 = Mediator.plan_query reference sql in
    Alcotest.(check bool) (sql ^ ": same plan as uncached") true (Plan.equal p0 p);
    Alcotest.(check bool) (sql ^ ": same cost bits as uncached") true (bits c0 = bits c)
  in
  let q1 = "select e.dept_id" ^ where and q2 = "select d.id, e.dept_id" ^ where in
  ignore (Mediator.plan_query med q1);
  let searched = considered med in
  let entries = Plancache.size (Mediator.plancache med) in
  as_uncached q2 (Mediator.plan_query med q2);
  Alcotest.(check int) "no second search" searched (considered med);
  Alcotest.(check int) "one new entry: the second text's whole-plan cost"
    (entries + 1)
    (Plancache.size (Mediator.plancache med));
  let q3 = "select e.name" ^ where in
  as_uncached q3 (Mediator.plan_query med q3);
  Alcotest.(check bool) "another projection searches" true (considered med > searched)

(* Does some submit of the plan run a join inside its wrapper? *)
let wrapper_side_join plan =
  Plan.fold
    (fun acc n ->
      acc
      ||
      match n with
      | Plan.Submit (_, sub) ->
        Plan.fold (fun acc n -> acc || match n with Plan.Join _ -> true | _ -> false)
          false sub
      | _ -> false)
    false plan

(* A model write between two runs of one query forces a new search, whose
   result equals an uncached mediator's after the same write. The join
   capability is not part of the search key: re-registering a source
   without it must reach the cached query through the generation. *)
let test_registration_forces_search () =
  let cached = federation ~cache:true and reference = federation ~cache:false in
  let both f = f cached; f reference in
  let after_write what sql write =
    let _, before = Mediator.plan_query cached sql in
    ignore (Mediator.plan_query cached sql);
    let searched = considered cached in
    both write;
    let p1, c1 = Mediator.plan_query cached sql in
    let p0, c0 = Mediator.plan_query reference sql in
    Alcotest.(check bool) (what ^ ": searched again") true (considered cached > searched);
    Alcotest.(check bool) (what ^ ": same plan as uncached") true (Plan.equal p0 p1);
    Alcotest.(check bool) (what ^ ": same cost bits as uncached") true (bits c0 = bits c1);
    (p1, c1, before)
  in
  let _, c1, c0 =
    after_write "rule registration"
      "select e.id from Employee e, Department d where e.dept_id = d.id \
       and e.salary > 20000"
      (fun med ->
        ignore
          (Registry.add_rule (Mediator.registry med) ~source:"relstore"
             (Parser.parse_rule ~what:"test rule"
                "rule select(Employee, P) { TotalTime = 42; }")))
  in
  Alcotest.(check bool) "the new rule governs" true (bits c1 <> bits c0);
  let sql =
    "select t.id from Project p, Task t where t.project_id = p.id and p.cost < 50000"
  in
  Alcotest.(check bool) "objstore joins inside the wrapper at first" true
    (wrapper_side_join (fst (Mediator.plan_query cached sql)));
  let p1, _, _ =
    after_write "capability re-registration" sql (fun med ->
        let w = Mediator.find_wrapper med "objstore" in
        Mediator.register med
          { w with
            Wrapper.rules_text =
              w.Wrapper.rules_text ^ "\ncapabilities scan, select, project;" })
  in
  Alcotest.(check bool) "no wrapper-side join once objstore cannot join" false
    (wrapper_side_join p1)

(* An open breaker on a base source refuses the query before any plan-cache
   lookup, cached or not: run_query fails fast with [Source_unavailable],
   and so does planning the variant directly. *)
let test_breaker_on_hit () =
  let cached = federation ~cache:true and reference = federation ~cache:false in
  let sql =
    "select e.id from Employee e, Department d where e.dept_id = d.id \
     and d.budget > 200000"
  in
  ignore (Mediator.plan_query cached sql);
  let open_relstore med =
    let h = Mediator.health med in
    for _ = 1 to (Health.policy h).Health.breaker_threshold do
      Health.on_failure h ~now:(Mediator.now med) "relstore" ~reason:"test"
    done
  in
  open_relstore cached;
  open_relstore reference;
  let outcome med =
    match Mediator.run_query med sql with
    | _ -> "answered"
    | exception Err.Source_unavailable { source; retry_at_ms } ->
      Fmt.str "unavailable %s until %g" source retry_at_ms
  in
  Alcotest.(check string) "run_query as uncached" (outcome reference) (outcome cached);
  Alcotest.(check bool) "fails fast" true
    (String.starts_with ~prefix:"unavailable relstore" (outcome cached));
  let plan_outcome med =
    let r = Mediator.resolve med (Disco_sql.Sql.parse sql) in
    match Mediator.plan_of_variant med r with
    | _ -> "planned"
    | exception Err.Source_unavailable { source; retry_at_ms } ->
      Fmt.str "unavailable %s until %g" source retry_at_ms
  in
  let lookups () =
    let c = Plancache.counters (Mediator.plancache cached) in
    c.Plancache.hits + c.Plancache.misses
  in
  let before = lookups () in
  Alcotest.(check string) "planning as uncached" (plan_outcome reference)
    (plan_outcome cached);
  Alcotest.(check bool) "planning fails fast" true
    (String.starts_with ~prefix:"unavailable relstore" (plan_outcome cached));
  Alcotest.(check int) "no cache lookup" before (lookups ())

(* The demo optimize workload planned cold, warm and again after a
   generation bump (the wrappers re-registered), through a cached and an
   uncached mediator ({!Traces.trace_optimize}): every pass yields the
   uncached plan and cost bits; the warm pass is served from the cache and
   searches nothing, and after the bump the stale entries are dropped and
   each query searches exactly as the uncached mediator does. *)
let test_optimize_generation_bump () =
  let on, (hits, _, stale) = Traces.trace_optimize () in
  let off, _ = Traces.trace_optimize ~cache:false () in
  Alcotest.(check bool) "warm pass actually hit the cache" true (hits > 0);
  Alcotest.(check bool) "generation bump dropped stale entries" true (stale > 0);
  List.iter2
    (fun (pass, plan, cost, considered, aborted) (_, plan', cost', considered', aborted') ->
      if plan <> plan' || cost <> cost' then
        Alcotest.failf "%s pass: cached %s (%Lx) <> uncached %s (%Lx)" pass plan cost
          plan' cost';
      let expected = if pass = "warm" then (0, 0) else (considered', aborted') in
      if (considered, aborted) <> expected then
        Alcotest.failf "%s pass of %s: searched %d/%d plans, expected %d/%d" pass plan
          considered aborted (fst expected) (snd expected))
    on off

(* --- Plancache mechanics -------------------------------------------------------- *)

let fresh_registry () =
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  Generic.register registry;
  registry

let dummy_plan i =
  Plan.Scan { Plan.source = "src"; collection = Fmt.str "C%d" i; binding = "x" }

let test_fifo_eviction () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:3 () in
  let add i = Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan i) (float_of_int i) in
  let find i = Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan i) in
  List.iter add [ 1; 2; 3 ];
  Alcotest.(check int) "full" 3 (Plancache.size cache);
  add 4;
  Alcotest.(check int) "capacity kept" 3 (Plancache.size cache);
  Alcotest.(check (option (float 0.))) "oldest evicted" None (find 1);
  Alcotest.(check (option (float 0.))) "newest present" (Some 4.) (find 4);
  Alcotest.(check int) "eviction counted" 1
    (Plancache.counters cache).Plancache.evictions;
  Plancache.clear cache;
  Alcotest.(check int) "cleared" 0 (Plancache.size cache)

(* Regression for the stale-drop / re-add churn bug: dropping a stale entry
   left its FIFO occurrence in the queue, so re-adding the same key pushed a
   duplicate and a later eviction removed the *re-added* (live, newer) entry
   while an older key survived. *)
let test_churn_readd_survives () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:3 () in
  let add i c = Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan i) c in
  let find i = Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan i) in
  List.iter (fun i -> add i (float_of_int i)) [ 1; 2; 3 ];
  (* a model write makes every entry stale *)
  Registry.invalidate registry;
  Alcotest.(check (option (float 0.))) "stale entry dropped" None (find 2);
  add 2 20.;
  (* re-added under the new generation *)
  add 4 4.;
  (* evicts key 1, the oldest *)
  add 5 5.;
  (* must evict key 3 — not the freshly re-added key 2 *)
  Alcotest.(check (option (float 0.))) "re-added entry survives churn" (Some 20.) (find 2);
  Alcotest.(check (option (float 0.))) "older key evicted instead" None (find 3);
  Alcotest.(check int) "capacity bound held" 3 (Plancache.size cache)

(* Model-based property: random add/find/invalidate interleavings against an
   insertion-ordered reference model. The cache must never exceed capacity,
   must agree with the model on every lookup (including stale drops), and
   must always evict the oldest resident key first. *)
let prop_cache_model =
  QCheck2.Test.make ~name:"random churn agrees with FIFO reference model"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 150) (pair (int_range 0 9) (int_range 0 10)))
    (fun ops ->
      let registry = fresh_registry () in
      let capacity = 4 in
      let cache = Plancache.create ~capacity () in
      (* resident entries as (key, cost, generation-at-add), oldest first;
         re-adds keep their queue position is NOT modelled — the cache
         refreshes in place, so position is insertion order of first
         residency, which the list preserves *)
      let model : (int * float * int) list ref = ref [] in
      let ok = ref true in
      List.iteri
        (fun step (key, kind) ->
          (match kind with
           | 0 | 1 | 2 | 3 ->
             let cost = float_of_int step in
             let gen = Registry.generation registry in
             Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan key) cost;
             if List.exists (fun (k, _, _) -> k = key) !model then
               model :=
                 List.map
                   (fun (k, c, g) -> if k = key then (k, cost, gen) else (k, c, g))
                   !model
             else begin
               let m =
                 if List.length !model >= capacity then List.tl !model else !model
               in
               model := m @ [ (key, cost, gen) ]
             end
           | 4 | 5 | 6 | 7 ->
             let expect =
               match List.find_opt (fun (k, _, _) -> k = key) !model with
               | Some (_, c, g) when g = Registry.generation registry -> Some c
               | Some _ ->
                 model := List.filter (fun (k, _, _) -> k <> key) !model;
                 None
               | None -> None
             in
             let got =
               Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan key)
             in
             if got <> expect then ok := false
           | _ -> Registry.invalidate registry);
          if Plancache.size cache > capacity then ok := false;
          if Plancache.size cache <> List.length !model then ok := false)
        ops;
      !ok)

(* Regression: a stale drop must take its entry's slot in the FIFO order
   with it. Otherwise a table whose entries keep going stale never reaches
   capacity, no eviction pops the dead slots, and the order grows by one
   per cycle for ever. *)
let test_stale_churn_bounded () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:4 () in
  let cycle i =
    let plan = dummy_plan (i mod 4) in
    Registry.invalidate registry;
    ignore (Plancache.find cache registry ~objective:Ast.Total_time plan);
    Plancache.add cache registry ~objective:Ast.Total_time plan 1.
  in
  let words () = Obj.reachable_words (Obj.repr cache) in
  for i = 1 to 1_000 do cycle i done;
  let w1 = words () in
  for i = 1_001 to 10_000 do cycle i done;
  let w2 = words () in
  if w2 > 2 * w1 then
    Alcotest.failf "cache grew from %d to %d words under stale churn" w1 w2;
  Alcotest.(check int) "stale drops counted" 9_996
    (Plancache.counters cache).Plancache.stale

(* The verified flag lives on a whole-plan entry and holds only at the
   generation it was set at: a model write or an eviction forces the plan
   to be verified again, and a failed check sets nothing. [verify] reads
   the entry with one lookup and flags it with one store, as the mediator
   does; a plan without an entry has no cost to flag, so it is checked
   every time. *)
let test_verified_flag () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:2 () in
  let plan = dummy_plan 1 in
  let checks = ref 0 in
  let verify ?(objective = Ast.Total_time) ?(check = fun () -> incr checks) () =
    match Plancache.lookup cache registry ~objective plan with
    | Some { Plancache.verified = true; _ } -> ()
    | entry ->
      check ();
      Option.iter
        (fun e ->
          Plancache.store cache registry ~objective plan
            { e with Plancache.verified = true })
        entry
  in
  let add p = Plancache.add cache registry ~objective:Ast.Total_time p 1. in
  let expect what n = Alcotest.(check int) what n !checks in
  verify ();
  verify ();
  expect "without an entry every call verifies" 2;
  add plan;
  verify ();
  verify ();
  expect "with one, the first call verifies" 3;
  verify ~objective:Ast.Time_first ();
  expect "per objective" 4;
  Registry.invalidate registry;
  add plan;
  verify ();
  verify ();
  expect "a generation bump forces one verification" 5;
  Registry.invalidate registry;
  add plan;
  (match verify ~check:(fun () -> failwith "invalid plan") () with
   | () -> Alcotest.fail "the check's exception must propagate"
   | exception Failure _ -> ());
  verify ();
  expect "a failed check sets no flag" 6;
  add (dummy_plan 2);
  add (dummy_plan 3);
  verify ();
  expect "eviction forces verification again" 7

(* --- Concurrency ----------------------------------------------------------------- *)

(* Regression: [Plancache.counters] used to hand back the cache's live
   mutable record, so a monitoring reader saw the fields keep moving after
   the call — and, polled concurrently, torn combinations like
   [hits + misses <> lookups]. A snapshot must be a frozen copy taken in
   one critical section. *)
let test_counters_snapshot_frozen () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:8 () in
  for k = 0 to 5 do
    ignore
      (Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan k));
    Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan k) 1.
  done;
  let snap = Plancache.counters cache in
  let before = (snap.Plancache.hits, snap.Plancache.misses) in
  (* churn after the snapshot: hits and misses both move *)
  for k = 0 to 5 do
    ignore
      (Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan k))
  done;
  Alcotest.(check (pair int int))
    "a snapshot is frozen, not a window onto live counters" before
    (snap.Plancache.hits, snap.Plancache.misses);
  Alcotest.(check bool) "and the live counters did move" true
    (Plancache.counters cache <> snap)

let test_counters_never_torn_under_polling () =
  let registry = fresh_registry () in
  let cache = Plancache.create ~capacity:8 () in
  let lookups = 4_000 in
  let done_ = Atomic.make false in
  let writer () =
    for k = 1 to lookups do
      let key = k mod 24 in
      ignore
        (Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan key));
      Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan key) 1.
    done;
    Atomic.set done_ true
  in
  (* each reader polls snapshots while the writer churns: the accounted
     lookup total must never exceed the work issued and never go backwards *)
  let reader () =
    let torn = ref 0 and last = ref 0 in
    while not (Atomic.get done_) do
      let c = Plancache.counters cache in
      let sum = c.Plancache.hits + c.Plancache.misses in
      if sum < !last || sum > lookups then incr torn;
      last := sum
    done;
    !torn
  in
  let readers = List.init 3 (fun _ -> Domain.spawn reader) in
  writer ();
  let torn = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  Alcotest.(check int) "no torn snapshot observed" 0 torn;
  let c = Plancache.counters cache in
  Alcotest.(check int) "final accounting exact" lookups
    (c.Plancache.hits + c.Plancache.misses)

(* Multi-domain hammer: the server's reader threads read the cache's
   counters while a worker's query finds and adds entries, and concurrent
   queries will share the cache outright, so its single lock must keep the
   counters exact, the capacity bound tight and the generation stamp
   authoritative under contention. Four domains interleave find/add churn
   over a key space three times the capacity, in two waves with a cost-model
   write between them. Costs are generation-stamped by construction (each
   add stores the generation it ran under), so a lookup that ever returned a
   pre-bump cost after the bump — a stale entry served past invalidation —
   is detected exactly. *)
let test_multi_domain_hammer () =
  let registry = fresh_registry () in
  let capacity = 8 in
  let cache = Plancache.create ~capacity () in
  let n_domains = 4 and rounds = 500 and keys = 24 in
  let finds = Array.make n_domains 0 in
  let hits = Array.make n_domains 0 in
  let stale_served = Array.make n_domains 0 in
  let worker gen slot () =
    for i = 1 to rounds do
      let key = ((slot * 7) + i) mod keys in
      (match
         Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan key)
       with
       | Some cost ->
         hits.(slot) <- hits.(slot) + 1;
         if bits cost <> bits (float_of_int gen) then
           stale_served.(slot) <- stale_served.(slot) + 1
       | None -> ());
      finds.(slot) <- finds.(slot) + 1;
      Plancache.add cache registry ~objective:Ast.Total_time (dummy_plan key)
        (float_of_int gen);
      if Plancache.size cache > capacity then stale_served.(slot) <- 1000
    done
  in
  let wave () =
    let gen = Registry.generation registry in
    let spawned =
      List.init (n_domains - 1) (fun s -> Domain.spawn (worker gen (s + 1)))
    in
    worker gen 0 ();
    List.iter Domain.join spawned
  in
  wave ();
  (* every resident entry is now stale; wave two must never see a wave-one
     cost *)
  Registry.invalidate registry;
  wave ();
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "no stale entry served, capacity never exceeded" 0
    (total stale_served);
  let c = Plancache.counters cache in
  Alcotest.(check int) "hits + misses account for every lookup, exactly"
    (total finds)
    (c.Plancache.hits + c.Plancache.misses);
  Alcotest.(check int) "every hit accounted" (total hits) c.Plancache.hits;
  Alcotest.(check bool) "contention exercised hits" true (c.Plancache.hits > 0);
  Alcotest.(check bool) "capacity churn evicted (none lost: bound held above)"
    true
    (c.Plancache.evictions > 0);
  Alcotest.(check int) "cache full after sustained churn" capacity
    (Plancache.size cache);
  (* deterministic coda: whatever the interleavings above did, a stale entry
     surviving to a lookup is dropped and counted, never served. (The waves
     may evict every pre-bump resident through capacity churn before a find
     reaches it, so the stale counter is only pinned here.) *)
  let stale0 = c.Plancache.stale in
  Registry.invalidate registry;
  let resident =
    List.find
      (fun k ->
        Plancache.find cache registry ~objective:Ast.Total_time (dummy_plan k)
        <> None
        ||
        (Plancache.counters cache).Plancache.stale > stale0)
      (List.init keys Fun.id)
  in
  ignore resident;
  Alcotest.(check int) "post-bump lookup dropped the stale entry, exactly once"
    (stale0 + 1)
    (Plancache.counters cache).Plancache.stale

let test_objectives_are_distinct_keys () =
  let registry = fresh_registry () in
  let cache = Plancache.create () in
  let plan = dummy_plan 1 in
  Plancache.add cache registry ~objective:Ast.Total_time plan 10.;
  Plancache.add cache registry ~objective:Ast.Time_first plan 2.;
  Alcotest.(check (option (float 0.))) "total" (Some 10.)
    (Plancache.find cache registry ~objective:Ast.Total_time plan);
  Alcotest.(check (option (float 0.))) "first" (Some 2.)
    (Plancache.find cache registry ~objective:Ast.Time_first plan);
  (* search results key apart by objective too, and never collide with a
     whole-plan entry *)
  let med = federation ~cache:true in
  let sql =
    "select t.id from Project p, Task t where t.project_id = p.id and p.cost < 50000"
  in
  let first = Optimizer.First_tuple in
  ignore (Mediator.plan_query med sql);
  let searched = considered med in
  let p1, c1 = Mediator.plan_query ~objective:first med sql in
  Alcotest.(check bool) "TimeFirst searches on its own" true (considered med > searched);
  let searched = considered med in
  let p2, c2 = Mediator.plan_query ~objective:first med sql in
  Alcotest.(check int) "and then hits its own entry" searched (considered med);
  let p0, c0 = Mediator.plan_query ~objective:first reference sql in
  Alcotest.(check bool) "TimeFirst plans as uncached" true
    (Plan.equal p0 p1 && Plan.equal p0 p2 && bits c0 = bits c1 && bits c0 = bits c2)

(* --- Invalidation ---------------------------------------------------------------- *)

(* The test_core fixture: one source with statistics, plus optional extra
   cost-language text. *)
let emp = { Plan.source = "src"; collection = "Employee"; binding = "e" }
let scan_emp = Plan.Scan emp
let sel_salary v = Plan.Select (scan_emp, Pred.Cmp ("e.salary", Pred.Eq, Constant.Int v))

let src_text extra =
  Fmt.str
    {|
    source src {
      interface Employee {
        attribute long id;
        attribute long salary;
        cardinality extent(10000, 1200000, 120);
        cardinality attribute(id, true, 10000, 1, 10000);
        cardinality attribute(salary, true, 100, 1000, 30000);
      }
      %s
    }
    |}
    extra

let base_registry ?(extra = "") () =
  let registry = fresh_registry () in
  ignore (Registry.register_text registry ~what:"src" (src_text extra));
  registry

let total ?(source = "src") registry plan =
  Estimator.total_time
    (Estimator.estimate ~require_vars:[ Ast.Total_time ] ~source registry plan)

(* The full invalidation contract for one mutation: a cached estimate of
   [plan] is served before the write, the write bumps the generation, the
   stale entry is dropped (counted) instead of served, and re-estimation
   yields a different cost — the new model, not the cached one. *)
let check_invalidates what registry ?source plan (mutate : unit -> unit) =
  let cache = Plancache.create () in
  let c0 = total ?source registry plan in
  Plancache.add cache registry ~objective:Ast.Total_time plan c0;
  Alcotest.(check (option (float 0.))) (what ^ ": warm hit") (Some c0)
    (Plancache.find cache registry ~objective:Ast.Total_time plan);
  let g0 = Registry.generation registry in
  mutate ();
  Alcotest.(check bool) (what ^ ": generation bumped") true
    (Registry.generation registry > g0);
  Alcotest.(check (option (float 0.))) (what ^ ": stale entry not served") None
    (Plancache.find cache registry ~objective:Ast.Total_time plan);
  Alcotest.(check int) (what ^ ": stale drop counted") 1
    (Plancache.counters cache).Plancache.stale;
  let c1 = total ?source registry plan in
  Alcotest.(check bool) (what ^ ": re-estimation sees the new model") true
    (bits c1 <> bits c0);
  c1

let parse_rule text = Parser.parse_rule ~what:"test rule" text

let test_invalidate_add_rule () =
  let registry = base_registry () in
  let c1 =
    check_invalidates "add_rule" registry (sel_salary 7) (fun () ->
        ignore
          (Registry.add_rule registry ~source:"src"
             (parse_rule "rule select(Employee, P) { TotalTime = 42; }")))
  in
  Alcotest.(check (float 0.)) "new rule governs" 42. c1

let test_invalidate_let_update () =
  (* a [let] a rule depends on, updated by administrative re-registration *)
  let extra coef =
    Fmt.str "let Coef = %d; rule scan(C) { TotalTime = Coef * 10; }" coef
  in
  let registry = base_registry ~extra:(extra 5) () in
  Alcotest.(check (float 0.)) "initial let" 50. (total registry scan_emp);
  let c1 =
    check_invalidates "let update" registry scan_emp (fun () ->
        ignore
          (Registry.register_source_decl registry
             (Parser.parse_source ~what:"rereg" (src_text (extra 7)))))
  in
  Alcotest.(check (float 0.)) "updated let governs" 70. c1

let test_invalidate_calibration_adjust () =
  (* the adjustment factor applies through the generic submit rule *)
  let registry = base_registry () in
  let plan = Plan.Submit ("src", scan_emp) in
  ignore
    (check_invalidates "set_adjust" registry plan (fun () ->
         Registry.set_adjust registry ~source:"src" 3.))

let test_invalidate_history_exact () =
  let registry = base_registry () in
  let history = History.create ~mode:History.Exact registry in
  let plan = sel_salary 9 in
  let c1 =
    check_invalidates "history exact" registry plan (fun () ->
        History.observe history ~source:"src" ~plan
          ~measured:[ (Ast.Total_time, 1234.) ] ~estimated_total:2000.)
  in
  Alcotest.(check (float 0.)) "measured cost governs" 1234. c1

let test_invalidate_history_adjust () =
  let registry = base_registry () in
  let history = History.create ~mode:(History.Adjust { smoothing = 1.0 }) registry in
  let plan = Plan.Submit ("src", scan_emp) in
  let sub_est = total registry scan_emp in
  ignore
    (check_invalidates "history adjust" registry plan (fun () ->
         History.observe history ~source:"src" ~plan:scan_emp
           ~measured:[ (Ast.Total_time, sub_est *. 2.) ] ~estimated_total:sub_est))

let test_invalidate_remove_query_rules () =
  let registry = base_registry () in
  let plan = sel_salary 11 in
  ignore (Registry.add_query_rule registry ~source:"src" plan [ (Ast.Total_time, 777.) ]);
  let c1 =
    check_invalidates "remove_query_rules" registry plan (fun () ->
        Registry.remove_query_rules registry ~source:"src")
  in
  Alcotest.(check bool) "historical cost gone" true (c1 <> 777.)

(* Re-register the fixture's source with [extra] cost-language text,
   checking that it moves the generation exactly once. *)
let reregister registry extra () =
  let g0 = Registry.generation registry in
  ignore
    (Registry.register_source_decl registry
       (Parser.parse_source ~what:"rereg" (src_text extra)));
  Alcotest.(check int) "one bump" (g0 + 1) (Registry.generation registry)

let test_invalidate_reregistration () =
  (* a re-registration without the source's rule drops it; the registry
     falls back to the generic model, so the estimate changes *)
  let registry = base_registry ~extra:"rule scan(C) { TotalTime = 99; }" () in
  Alcotest.(check (float 0.)) "source rule governs" 99. (total registry scan_emp);
  let c1 = check_invalidates "re-registration" registry scan_emp (reregister registry "") in
  Alcotest.(check bool) "generic model after re-registration" true (c1 <> 99.);
  Alcotest.(check int) "no rule left" 0 (Registry.rule_count registry ~source:"src")

let test_invalidate_adt_export () =
  (* ADT parameters feed adtcost(P) and selectivity: exporting them is a
     re-registration, and it invalidates like any *)
  let registry = base_registry () in
  let plan = Plan.Select (scan_emp, Pred.Apply ("contains", "e.salary", Constant.Int 1)) in
  ignore
    (check_invalidates "ADT export" registry plan
       (reregister registry "let AdtCost_contains = 4.5; let AdtSel_contains = 0.1;"));
  Alcotest.(check (option (float 0.))) "cost read" (Some 4.5)
    (Registry.adt_cost registry "contains");
  Alcotest.(check (option (float 0.))) "selectivity read" (Some 0.1)
    (Registry.adt_selectivity registry "contains")

let test_generation_stable_across_reads () =
  (* estimation and cache traffic are reads: no bump *)
  let registry = base_registry () in
  let g0 = Registry.generation registry in
  ignore (total registry scan_emp);
  let cache = Plancache.create () in
  Plancache.add cache registry ~objective:Ast.Total_time scan_emp 1.;
  ignore (Plancache.find cache registry ~objective:Ast.Total_time scan_emp);
  ignore (Registry.matching registry ~source:"src" scan_emp);
  Alcotest.(check int) "reads do not bump" g0 (Registry.generation registry)

(* --- Estimate record ----------------------------------------------------------------- *)

(* A repeated query estimates nothing: the chosen plan's root estimate and
   its submits' history estimates come from the record on its whole-plan
   entry. Everything they feed must stay bit-identical to fresh
   estimation. *)

(* The 24-source federation of the wide-join benchmark and its query shape:
   an n-way join over [Demo.synthetic_edges], foreign keys read
   parent-to-child, selections on every eighth relation. *)
let wide_sql ~seed ~shape ~n =
  let joins =
    List.map
      (fun (a, b, kind) ->
        match kind with
        | `Fk -> Fmt.str "r%d.fk = r%d.id" a b
        | `Grp -> Fmt.str "r%d.grp = r%d.grp" a b)
      (Demo.synthetic_edges ~shape ~n ~seed)
  in
  let selects =
    List.filter_map
      (fun i -> if i mod 8 = 2 then Some (Fmt.str "r%d.v > 300" i) else None)
      (List.init n Fun.id)
  in
  Fmt.str "select r0.id, r%d.v from %s where %s" (n - 1)
    (String.concat ", " (List.init n (fun i -> Fmt.str "Rel%d r%d" i i)))
    (String.concat " and " (joins @ selects))

(* Slot i of the benchmark's pool: chain, star or random edges by i mod 3,
   17 to 24 relations. *)
let wide_query i =
  let shape =
    match i mod 3 with 0 -> Demo.Chain | 1 -> Demo.Star | _ -> Demo.Random_edges 1
  in
  wide_sql ~seed:i ~shape ~n:(17 + (i * 5 mod 8))

let wide_queries = List.init 16 wide_query

(* three of them: a 17-way chain, a 22-way star, a 19-way random graph *)
let synthetic_joins = [ wide_query 0; wide_query 1; wide_query 2 ]

let federation_corpus =
  [ "select e.name from Employee e where e.salary > 5000";
    "select e.name, e.age from Employee e where e.age >= 30 order by e.age";
    "select e.name, d.city from Employee e, Department d \
     where e.dept_id = d.id and d.budget > 100000";
    "select p.id, t.hours from Project p, Task t \
     where t.project_id = p.id order by t.hours";
    "select d.id, count(*) as n from Employee e, Department d \
     where e.dept_id = d.id group by d.id";
    "select l.rating, e.name from Listing l, Employee e where l.emp_id = e.id";
    "select p.id, doc.doc_id from Project p, Document doc \
     where doc.project_id = p.id and p.cost > 100";
    "select doc.doc_id from Project p, Document doc \
     where p.cost < 5300 and doc.project_id = p.id and lang_match(doc.lang, \"en\")" ]

let record_mediator ?history_mode ?stats_mode ~cache () =
  let m = Mediator.create ?history_mode ?stats_mode ~cache () in
  List.iter (Mediator.register m)
    (Demo.make ~sizes:Demo.small_sizes () @ Demo.synthetic ~seed:1 ~rows:50 ~n:24 ());
  m

(* Everything an answer carries, floats as bits. *)
let answer_key (a : Mediator.answer) =
  let root =
    List.map
      (fun v ->
        ( Option.map bits (Estimator.var a.Mediator.estimate v),
          Estimator.provenance a.Mediator.estimate v ))
      Ast.all_cost_vars
  in
  let m = a.Mediator.measured in
  ( root,
    Plan.to_string a.Mediator.plan,
    List.map (fun t -> Fmt.str "%a" Disco_exec.Tuple.pp t) a.Mediator.rows,
    List.map bits
      [ m.Disco_exec.Run.total_time; m.Disco_exec.Run.time_first; m.Disco_exec.Run.count;
        m.Disco_exec.Run.size ] )

let record_key (r : History.record) =
  ( Plan.to_string r.History.plan,
    r.History.source,
    List.map (fun (v, x) -> (v, bits x)) r.History.measured,
    bits r.History.estimated_total,
    Option.map bits r.History.estimated_count )

let shuffled round =
  let a = Array.of_list (federation_corpus @ synthetic_joins) in
  let st = Random.State.make [| 7; round |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* A cache-on mediator against a cache-off one over the same sequence, in
   each history setting: every answer and every history record equal. *)
let test_record_differential () =
  let adjust = History.Adjust { smoothing = 0.5 } in
  let feedback = Mediator.Stats_feedback History.default_feedback in
  List.iter
    (fun (what, history_mode, stats_mode, tenants) ->
      let make cache = record_mediator ~history_mode ?stats_mode ~cache () in
      let on = make true and off = make false in
      let partitions m =
        Array.init tenants (fun i ->
            if i = 0 then Mediator.history m else Mediator.fresh_history m)
      in
      let on_parts = partitions on and off_parts = partitions off in
      let k = ref 0 in
      for round = 1 to 3 do
        List.iter
          (fun sql ->
            let tenant = !k mod tenants in
            incr k;
            Mediator.set_history on on_parts.(tenant);
            Mediator.set_history off off_parts.(tenant);
            let a = Mediator.run_query ~verify:true on sql in
            let b = Mediator.run_query ~verify:true off sql in
            if answer_key a <> answer_key b then
              Alcotest.failf "%s, round %d: answers differ for %s" what round sql)
          (shuffled round)
      done;
      Array.iteri
        (fun i h ->
          if
            List.map record_key (History.records h)
            <> List.map record_key (History.records off_parts.(i))
          then Alcotest.failf "%s: history records differ (tenant %d)" what i)
        on_parts;
      (* under Adjust every query moves the model, so only the first
         submit of each run reads the record *)
      if history_mode = History.Off then
        Alcotest.(check bool) (what ^ ": the cache served") true
          ((Plancache.counters (Mediator.plancache on)).Plancache.hits > 0))
    [ ("history off", History.Off, None, 1);
      ("adjust", adjust, None, 1);
      ("adjust + feedback, two tenants", adjust, Some feedback, 2) ]

let rec submits (p : Plan.t) =
  match p with
  | Plan.Submit (s, q) -> [ (s, q) ]
  | _ -> List.concat_map submits (Plan.children p)

(* With history off every record's estimate is a fresh estimate of its
   subplan times the adjustment factor, bit for bit: on a query's first
   run (the record read off the chosen plan's annotation) and on its
   repeats (the record served). Feedback with a zero weight and an
   unreachable band records counts without moving any estimate. *)
let test_record_equals_fresh () =
  let neutral = { History.band = infinity; consecutive = max_int; smoothing = 0. } in
  List.iter
    (fun stats_mode ->
      let med = record_mediator ?stats_mode ~cache:true () in
      let reg = Mediator.registry med in
      let h = Mediator.history med in
      for _ = 1 to 2 do
        List.iter
          (fun sql ->
            let before = History.count h in
            ignore (Mediator.run_query med sql);
            List.iter
              (fun (r : History.record) ->
                let source = r.History.source in
                let fresh = Estimator.estimate ~source reg r.History.plan in
                let adjust = Registry.adjust reg ~source in
                Alcotest.(check int64) "estimated_total"
                  (bits (Estimator.total_time fresh *. adjust))
                  (bits r.History.estimated_total);
                Alcotest.(check (option int64)) "estimated_count"
                  (Option.map (fun _ -> bits (Estimator.count_object fresh)) stats_mode)
                  (Option.map bits r.History.estimated_count))
              (History.newest h (History.count h - before)))
          (federation_corpus @ synthetic_joins)
      done)
    [ None; Some (Mediator.Stats_feedback neutral) ]

(* A selectivity correction moves no generation, so plans and costs are
   still served; the estimate record must not be. *)
let test_record_after_sel_fix () =
  let med = record_mediator ~cache:true () in
  let reg = Mediator.registry med in
  let sql = "select e.name from Employee e where e.salary > 5000" in
  ignore (Mediator.run_query med sql);
  let warm = Mediator.run_query med sql in
  let source, pred =
    match submits warm.Mediator.plan with
    | [ (s, Plan.Project (Plan.Select (_, p), _)) ] | [ (s, Plan.Select (_, p)) ] -> (s, p)
    | _ -> Alcotest.failf "unexpected plan %s" (Plan.to_string warm.Mediator.plan)
  in
  let count (a : Mediator.answer) = Estimator.count_object a.Mediator.estimate in
  let g0 = Registry.generation reg in
  Registry.set_sel_fix reg ~source pred 0.25;
  Alcotest.(check int) "a correction moves no generation" g0 (Registry.generation reg);
  let corrected = Mediator.run_query med sql in
  let fresh = Estimator.estimate reg corrected.Mediator.plan in
  List.iter
    (fun v ->
      Alcotest.(check (option int64))
        (Ast.cost_var_name v ^ " = a fresh estimate")
        (Option.map bits (Estimator.var fresh v))
        (Option.map bits (Estimator.var corrected.Mediator.estimate v)))
    Ast.all_cost_vars;
  Alcotest.(check bool) "and differs from the estimate before the correction" true
    (bits (count corrected) <> bits (count warm))

(* Under Adjust the first submit's feedback moves the factor: the second
   submit's record carries the new factor, applied at use time. *)
let test_record_second_submit_adjust () =
  let med = record_mediator ~history_mode:(History.Adjust { smoothing = 0.5 }) ~cache:true () in
  let reg = Mediator.registry med and h = Mediator.history med in
  let sql = "select p.id, t.hours from Project p, Task t where t.project_id = p.id" in
  ignore (Mediator.run_query med sql);
  let f0 = Registry.adjust reg ~source:"objstore" in
  let before = History.count h in
  let a = Mediator.run_query med sql in
  match History.newest h (History.count h - before), submits a.Mediator.plan with
  | [ r1; r2 ], [ (_, left); (_, right) ] ->
    Alcotest.(check bool) "right child first" true
      (Plan.equal r1.History.plan right && Plan.equal r2.History.plan left);
    let real = List.assoc Ast.Total_time r1.History.measured in
    let f1 = (0.5 *. (real /. r1.History.estimated_total *. f0)) +. (0.5 *. f0) in
    Alcotest.(check bool) "the first submit moved the factor" true (f1 <> f0);
    let raw = Estimator.total_time (Estimator.estimate ~source:"objstore" reg left) in
    Alcotest.(check int64) "second record = estimate x the new factor" (bits (raw *. f1))
      (bits r2.History.estimated_total)
  | rs, ss ->
    Alcotest.failf "expected two objstore submits, got %d records, %d submits"
      (List.length rs) (List.length ss)

(* A query's chosen plan is annotated once — the search's winner extended
   by the decoration, or the decorated plan built from scratch where no
   search ran — and that one annotation gives the answer's estimate, the
   verification and the estimate record. Each must equal what a fresh
   estimate of the chosen plan gives: the root's five variables with their
   provenance, the verification findings, and every new history record's
   estimates. Over the federation corpus (the [lang_match] query has two
   placements), the 16 wide joins and one objstore join with a
   mediator-side residual (objstore's own select rule would price that
   decoration differently, so a decoration extended in the wrong rule
   context shows), under both objectives, with the cache on and off, on a
   first run and on a repeat. Feedback with a zero weight and an
   unreachable band records counts without moving any estimate. *)
let test_chosen_annotation_fresh () =
  let neutral = { History.band = infinity; consecutive = max_int; smoothing = 0. } in
  let root (ann : Estimator.ann) =
    List.map
      (fun v -> (Option.map bits (Estimator.var ann v), Estimator.provenance ann v))
      Ast.all_cost_vars
  in
  List.iter
    (fun (objective, cache) ->
      let med =
        record_mediator ~stats_mode:(Mediator.Stats_feedback neutral) ~cache ()
      in
      let reg = Mediator.registry med and h = Mediator.history med in
      for run = 1 to 2 do
        List.iter
          (fun sql ->
            let where = Fmt.str "run %d, cache %b: %s" run cache sql in
            let before = History.count h in
            let a = Mediator.run_query ~objective med sql in
            if root a.Mediator.estimate <> root (Estimator.estimate reg a.Mediator.plan)
            then Alcotest.failf "%s: answer estimate <> a fresh estimate" where;
            if
              Mediator.verify_plan ~ann:a.Mediator.estimate med a.Mediator.plan
              <> Mediator.verify_plan med a.Mediator.plan
            then Alcotest.failf "%s: verification findings differ" where;
            List.iter
              (fun (r : History.record) ->
                let source = r.History.source in
                let fresh = Estimator.estimate ~source reg r.History.plan in
                if
                  bits r.History.estimated_total
                  <> bits (Estimator.total_time fresh *. Registry.adjust reg ~source)
                  || Option.map bits r.History.estimated_count
                     <> Some (bits (Estimator.count_object fresh))
                then Alcotest.failf "%s: history record <> a fresh estimate" where)
              (History.newest h (History.count h - before)))
          (federation_corpus @ wide_queries
          @ [ "select p.id, t.hours from Task t, Project p \
               where t.project_id = p.id and (t.hours > 10 or p.cost < 5000)" ])
      done)
    [ (Optimizer.Total_time, true); (Optimizer.Total_time, false);
      (Optimizer.First_tuple, true); (Optimizer.First_tuple, false) ]

let allocated_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A warm run of a 17- to 22-way join estimates nothing and allocates
   less than the chosen plan's estimate alone did: parse, resolve, the
   cache probes, the submits and the composition. *)
let test_record_warm_allocation () =
  let med = record_mediator ~cache:true () in
  List.iter
    (fun sql ->
      ignore (Mediator.run_query ~verify:true med sql);
      ignore (Mediator.run_query ~verify:true med sql);
      let before = allocated_words () in
      ignore (Mediator.run_query ~verify:true med sql);
      let words = allocated_words () -. before in
      if words > 120_000. then
        Alcotest.failf "a warm run allocated %.0f words (bound 120,000)" words)
    synthetic_joins

(* The record is a few words per submit, not the annotation tree (about
   22,800 live words per wide-join plan). Measured on the wide-join federation
   alone as the live heap the cache's entries hold; the heap is settled
   before warming, so registration's garbage is not counted. *)
let test_record_retained_size () =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.synthetic ~seed:1 ~rows:50 ~n:24 ());
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (live ());
  List.iter (fun sql -> ignore (Mediator.run_query ~verify:true med sql)) wide_queries;
  let with_cache = live () in
  Plancache.clear (Mediator.plancache med);
  let per_query = (with_cache - live ()) / List.length wide_queries in
  if per_query > 10_000 then
    Alcotest.failf "the plan cache holds %d live words per query (bound 10,000)" per_query

let () =
  Alcotest.run "plancache"
    [ ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_differential; prop_objectives_differential ]
        @ [ Alcotest.test_case "cache exercised" `Quick test_cache_was_exercised;
            Alcotest.test_case "no-cache toggle" `Quick test_no_cache_flag_toggles;
            Alcotest.test_case "shared search entry" `Quick test_shared_search_entry;
            Alcotest.test_case "registration forces search" `Quick
              test_registration_forces_search;
            Alcotest.test_case "breaker on hit" `Quick test_breaker_on_hit;
            Alcotest.test_case "optimize (cache + generation bump)" `Quick
              test_optimize_generation_bump ] );
      ( "mechanics",
        [ Alcotest.test_case "fifo eviction" `Quick test_fifo_eviction;
          Alcotest.test_case "churn re-add" `Quick test_churn_readd_survives;
          Alcotest.test_case "multi-domain hammer" `Quick test_multi_domain_hammer;
          Alcotest.test_case "counters snapshot frozen" `Quick
            test_counters_snapshot_frozen;
          Alcotest.test_case "counters never torn" `Quick
            test_counters_never_torn_under_polling;
          QCheck_alcotest.to_alcotest prop_cache_model;
          Alcotest.test_case "objective keys" `Quick test_objectives_are_distinct_keys;
          Alcotest.test_case "stale churn bounded" `Quick test_stale_churn_bounded;
          Alcotest.test_case "verified flag" `Quick test_verified_flag ] );
      ( "estimates",
        [ Alcotest.test_case "cache on = cache off" `Quick test_record_differential;
          Alcotest.test_case "record = fresh estimate" `Quick test_record_equals_fresh;
          Alcotest.test_case "chosen annotation = fresh" `Quick
            test_chosen_annotation_fresh;
          Alcotest.test_case "selectivity correction" `Quick test_record_after_sel_fix;
          Alcotest.test_case "second submit under adjust" `Quick
            test_record_second_submit_adjust;
          Alcotest.test_case "warm allocation" `Quick test_record_warm_allocation;
          Alcotest.test_case "retained size" `Quick test_record_retained_size ] );
      ( "invalidation",
        [ Alcotest.test_case "add_rule" `Quick test_invalidate_add_rule;
          Alcotest.test_case "let update" `Quick test_invalidate_let_update;
          Alcotest.test_case "calibration adjust" `Quick test_invalidate_calibration_adjust;
          Alcotest.test_case "history exact" `Quick test_invalidate_history_exact;
          Alcotest.test_case "history adjust" `Quick test_invalidate_history_adjust;
          Alcotest.test_case "remove_query_rules" `Quick test_invalidate_remove_query_rules;
          Alcotest.test_case "re-registration" `Quick test_invalidate_reregistration;
          Alcotest.test_case "ADT export" `Quick test_invalidate_adt_export;
          Alcotest.test_case "reads stable" `Quick test_generation_stable_across_reads ] ) ]
