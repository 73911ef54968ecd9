(* The mediator facade: registration phase (paper Fig 1) and query processing
   phase (Fig 2). [register] uploads a wrapper's schemas, statistics and cost
   rules into the catalog and rule registry; [run_query] parses a declarative
   query, optimizes it under the blended cost model, executes the chosen plan
   (submitting subplans to wrappers and composing their answers), and feeds
   measured costs back into the historical-cost extension. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_core
open Disco_storage
open Disco_exec
open Disco_wrapper
open Disco_fault
open Disco_sql
open Disco_analysis

type t = {
  catalog : Catalog.t;
  registry : Registry.t;
  (* the active history partition. One-shot use never touches it; the
     server swaps in a per-tenant partition before each query (under its
     execution lock), so feedback records and drift streaks are
     per-tenant while the registry-level effects (adjust factors,
     selectivity corrections, query-scope rules) blend into the shared
     model as always. *)
  mutable history : History.t;
  plancache : Plancache.t;
  health : Health.t;
  (* simulated wall clock, in ms; advances only when submit traffic runs
     (wrapper work, communication, injected anomalies, retry backoff). The
     fault injectors' windows and the circuit-breaker cooldowns live on it. *)
  mutable now : float;
  (* escape hatch (the CLI's --no-cache): when off, the plan cache is
     bypassed, so every query searches and estimates afresh — the reference
     behavior the differential tests compare against *)
  mutable cache_enabled : bool;
  mutable wrappers : (string * Wrapper.t) list;
  (* feedback-driven statistics (§4.3, DESIGN.md §11). Off by default: the
     estimator then never sees a histogram or a selectivity correction and
     every estimate is bit-identical to a mediator without the subsystem. *)
  stats_mode : stats_mode;
  (* cumulative optimizer counters across every optimization this mediator
     ran; surfaced through the server's /metrics so plan-search cost is
     observable in production mode *)
  opt_stats : Optimizer.stats;
}

and stats_mode = Stats_off | Stats_feedback of History.feedback

let stats_on t = t.stats_mode <> Stats_off

(* Statistics harvest: turn the wrapper's sample export into equi-depth
   histograms on every attribute of every collection it registered. The
   build is deterministic (fixed Rng seed), so repeated harvests of
   unchanged data produce identical histograms. *)
let harvest_wrapper t (w : Wrapper.t) =
  List.iter
    (fun coll ->
      let entry =
        Catalog.find_collection t.catalog ~source:w.Wrapper.name coll
      in
      List.iter
        (fun (a : Schema.attribute) ->
          let attr = a.Schema.attr_name in
          let values = Wrapper.sample_values w ~collection:coll ~attr in
          Catalog.set_histogram t.catalog ~source:w.Wrapper.name ~collection:coll
            ~attr (Histogram.of_values values))
        entry.Catalog.schema.Schema.attributes)
    (Catalog.collections t.catalog ~source:w.Wrapper.name)

(* Drift-triggered recalibration: re-sample the drifting source and rebuild
   its histograms. Runs inside History.observe, from the submit that saw
   the drift; catalog writes are plain replacements and estimation re-reads
   them only after the accompanying generation bump drops cached plans. *)
let refresh_histograms t ~source =
  match List.assoc_opt source t.wrappers with
  | Some w when stats_on t -> harvest_wrapper t w
  | _ -> ()

(* A fresh history partition in the mode of [t]'s own and, when feedback
   statistics are on, with the drift hook (histogram recalibration). The
   server creates one per tenant. *)
let fresh_history t =
  match t.stats_mode with
  | Stats_off -> History.create ~mode:(History.mode t.history) t.registry
  | Stats_feedback feedback ->
    History.create ~mode:(History.mode t.history) ~feedback
      ~on_drift:(fun ~source -> refresh_histograms t ~source)
      t.registry

let create ?(history_mode = History.Off) ?(cache = true) ?policy
    ?(stats_mode = Stats_off) () =
  let catalog = Catalog.create () in
  let registry = Registry.create catalog in
  Generic.register registry;
  let t =
    { catalog;
      registry;
      history = History.create ~mode:history_mode registry;
      plancache = Plancache.create ();
      health = Health.create ?policy ();
      now = 0.;
      cache_enabled = cache;
      wrappers = [];
      stats_mode;
      opt_stats = Optimizer.new_stats () }
  in
  (* the drift hook needs [t], so a feedback partition is made after it *)
  (match stats_mode with
   | Stats_off -> ()
   | Stats_feedback _ -> t.history <- fresh_history t);
  t

let registry t = t.registry
let catalog t = t.catalog
let history t = t.history

let set_history t h = t.history <- h
let plancache t = t.plancache
let health t = t.health
let now t = t.now
let set_now t v = t.now <- v
let cache_enabled t = t.cache_enabled
let set_cache_enabled t on = t.cache_enabled <- on
let stats_mode t = t.stats_mode

(* A copy, so callers can't corrupt the accumulator. *)
let optimizer_stats t =
  let s = Optimizer.new_stats () in
  Optimizer.merge_stats ~into:s t.opt_stats;
  s

let active_cache t = if t.cache_enabled then Some t.plancache else None

(* Registration phase: the wrapper returns schemas, statistics and cost
   information; the mediator statically checks the export, then compiles and
   stores it. [Check] is the one gate, and it runs before anything is
   installed; lint of the freshly blended model (lib/analysis) only logs.
   Re-registration refreshes statistics and replaces rules. *)
let register t (w : Wrapper.t) =
  let decl = Wrapper.registration_decl w in
  (match Finding.errors (Check.check_source decl) with
   | [] -> ()
   | err :: _ ->
     raise
       (Err.Eval_error
          (Fmt.str "registration of %S rejected: %a" w.Wrapper.name Finding.pp err)));
  ignore (Registry.register_source_decl t.registry decl);
  List.iter
    (fun (f : Finding.t) ->
      match f.severity with
      | Error | Warning -> Logs.warn (fun m -> m "lint: %a" Finding.pp f)
      | Info -> Logs.info (fun m -> m "lint: %a" Finding.pp f))
    (Analyzer.analyze_source t.registry ~source:decl.Disco_costlang.Ast.source_name);
  t.wrappers <- (w.Wrapper.name, w) :: List.remove_assoc w.Wrapper.name t.wrappers;
  if stats_on t then harvest_wrapper t w

let find_wrapper t name =
  match List.assoc_opt name t.wrappers with
  | Some w -> w
  | None -> raise (Err.Unknown_source name)

(* --- Query resolution: SQL -> optimizer spec -------------------------------- *)

type resolved = {
  spec : Optimizer.spec;
  post_pred : Pred.t;                 (* residual mediator-side predicate *)
  (* expensive (ADT) single-relation predicates whose placement — pushed to
     the wrapper or deferred past the joins — is decided by cost (§7) *)
  deferrable : (string * Pred.t) list;
  items : Sql.item list;
  star : bool;
  star_attrs : string list;           (* output attributes for SELECT * *)
  distinct : bool;
  group_by : string list;
  order_by : (string * Plan.order) list;
  limit : int option;
}

let resolve t (q : Sql.t) : resolved =
  (* resolve each relation to a source *)
  let rels =
    List.map
      (fun (r : Sql.relation) ->
        let source =
          match r.Sql.rel_source with
          | Some s ->
            if not (Catalog.mem_collection t.catalog ~source:s r.Sql.rel_collection)
            then raise (Err.Unknown_collection (s ^ "." ^ r.Sql.rel_collection));
            s
          | None ->
            (match Catalog.locate_collection t.catalog r.Sql.rel_collection with
             | Some s -> s
             | None -> raise (Err.Unknown_collection r.Sql.rel_collection))
        in
        { Plan.source; collection = r.Sql.rel_collection; binding = r.Sql.rel_alias })
      q.Sql.relations
  in
  (* alias uniqueness *)
  let aliases = List.map (fun r -> r.Plan.binding) rels in
  let rec dup = function
    | [] -> None
    | a :: rest -> if List.mem a rest then Some a else dup rest
  in
  (match dup aliases with
   | Some a -> raise (Err.Plan_error (Fmt.str "duplicate alias %S" a))
   | None -> ());
  let attrs_of r =
    let entry =
      Catalog.find_collection t.catalog ~source:r.Plan.source r.Plan.collection
    in
    Schema.attribute_names entry.Catalog.schema
  in
  (* qualify an attribute reference *)
  let qualify name =
    match Plan.split_attr name with
    | Some (alias, attr) ->
      (match List.find_opt (fun r -> String.equal r.Plan.binding alias) rels with
       | Some r ->
         if List.mem attr (attrs_of r) then name
         else raise (Err.Unknown_attribute { collection = r.Plan.collection; attribute = attr })
       | None -> raise (Err.Plan_error (Fmt.str "unknown alias %S in %S" alias name)))
    | None ->
      (match List.filter (fun r -> List.mem name (attrs_of r)) rels with
       | [ r ] -> r.Plan.binding ^ "." ^ name
       | [] -> raise (Err.Plan_error (Fmt.str "unknown attribute %S" name))
       | _ -> raise (Err.Plan_error (Fmt.str "ambiguous attribute %S" name)))
  in
  let rec qualify_pred = function
    | Pred.Cmp (a, op, v) -> Pred.Cmp (qualify a, op, v)
    | Pred.Attr_cmp (a, op, b) -> Pred.Attr_cmp (qualify a, op, qualify b)
    | Pred.Apply (fn, a, v) -> Pred.Apply (fn, qualify a, v)
    | Pred.And (p, q) -> Pred.And (qualify_pred p, qualify_pred q)
    | Pred.Or (p, q) -> Pred.Or (qualify_pred p, qualify_pred q)
    | Pred.Not p -> Pred.Not (qualify_pred p)
    | Pred.True -> Pred.True
  in
  let where = qualify_pred q.Sql.where in
  let items =
    List.map
      (function
        | Sql.Col a -> Sql.Col (qualify a)
        | Sql.Agg (f, "", o) -> Sql.Agg (f, "", o)
        | Sql.Agg (f, i, o) -> Sql.Agg (f, qualify i, o))
      q.Sql.items
  in
  let group_by = List.map qualify q.Sql.group_by in
  (* ORDER BY may reference an aggregate's output name, which is not a base
     attribute *)
  let agg_outputs =
    List.filter_map (function Sql.Agg (_, _, o) -> Some o | Sql.Col _ -> None) items
  in
  let order_by =
    List.map
      (fun (a, o) -> if List.mem a agg_outputs then (a, o) else (qualify a, o))
      q.Sql.order_by
  in
  (* partition the WHERE conjuncts *)
  let alias_of a = Option.map fst (Plan.split_attr a) in
  let conjuncts = Pred.conjuncts where in
  let classify p =
    let alias_set =
      List.sort_uniq String.compare (List.filter_map alias_of (Pred.attributes p))
    in
    match p, alias_set with
    | Pred.Cmp _, [ a ] -> `Local a
    | Pred.Attr_cmp (x, _, y), [ _; _ ] ->
      `Join (Option.get (alias_of x), Option.get (alias_of y), p)
    | _, [ a ] ->
      (* ADT-bearing predicates are placement candidates, not forced
         pushdowns: evaluating an expensive operation after a reducing join
         can be much cheaper (paper §7) *)
      if Pred.has_apply p then `Defer (a, p) else `Local a
    | _ -> `Post
  in
  let locals = Hashtbl.create 8 in
  let joins = ref [] and post = ref [] and defers = ref [] in
  List.iter
    (fun p ->
      match classify p with
      | `Local a ->
        Hashtbl.replace locals a (p :: Option.value ~default:[] (Hashtbl.find_opt locals a))
      | `Join (a, b, p) -> joins := (a, b, p) :: !joins
      | `Defer (a, p) -> defers := (a, p) :: !defers
      | `Post -> post := p :: !post)
    conjuncts;
  (* attributes each alias must export: everything referenced above the scan *)
  let needed = Hashtbl.create 8 in
  let need a =
    match Plan.split_attr a with
    | Some (alias, _) ->
      Hashtbl.replace needed alias
        (a :: Option.value ~default:[] (Hashtbl.find_opt needed alias))
    | None -> ()
  in
  List.iter
    (function Sql.Col a -> need a | Sql.Agg (_, i, _) -> if i <> "" then need i)
    items;
  List.iter need group_by;
  List.iter (fun (a, _) -> need a) order_by;
  List.iter (fun (_, _, p) -> List.iter need (Pred.attributes p)) !joins;
  List.iter (fun p -> List.iter need (Pred.attributes p)) !post;
  List.iter (fun (_, p) -> List.iter need (Pred.attributes p)) !defers;
  if q.Sql.star then
    List.iter (fun r -> List.iter (fun a -> need (r.Plan.binding ^ "." ^ a)) (attrs_of r)) rels;
  let bases =
    List.map
      (fun r ->
        let alias = r.Plan.binding in
        let pred =
          Pred.conj (Option.value ~default:[] (Hashtbl.find_opt locals alias))
        in
        let all = List.map (fun a -> alias ^ "." ^ a) (attrs_of r) in
        let wanted =
          List.sort_uniq String.compare
            (Option.value ~default:[] (Hashtbl.find_opt needed alias))
        in
        let project =
          (* keep catalog order; skip the projection when everything is used *)
          let kept = List.filter (fun a -> List.mem a wanted) all in
          if List.length kept = List.length all || kept = [] then None else Some kept
        in
        { Optimizer.ref_ = r;
          pred;
          project;
          can_select = Catalog.capable t.catalog ~source:r.Plan.source "select";
          can_project = Catalog.capable t.catalog ~source:r.Plan.source "project" })
      rels
  in
  let star_attrs =
    List.concat_map (fun r -> List.map (fun a -> r.Plan.binding ^ "." ^ a) (attrs_of r)) rels
  in
  { spec =
      { Optimizer.bases;
        joins = !joins;
        can_join = (fun s -> Catalog.capable t.catalog ~source:s "join") };
    post_pred = Pred.conj !post;
    deferrable = !defers;
    items;
    star = q.Sql.star;
    star_attrs;
    distinct = q.Sql.distinct;
    group_by;
    order_by;
    limit = q.Sql.limit }

(* Placement alternatives for the deferrable (ADT) predicates: pushed into
   their base relation's selection, or evaluated at the mediator after the
   joins. The caller costs both decorated plans and keeps the cheaper. *)
let variants (r : resolved) : resolved list =
  match r.deferrable with
  | [] -> [ r ]
  | ds ->
    let pushed =
      let bases =
        List.map
          (fun (b : Optimizer.base) ->
            let mine =
              List.filter_map
                (fun (a, p) ->
                  if String.equal a b.Optimizer.ref_.Plan.binding then Some p else None)
                ds
            in
            if mine = [] then b
            else
              { b with
                Optimizer.pred = Pred.conj (Pred.conjuncts b.Optimizer.pred @ mine) })
          r.spec.Optimizer.bases
      in
      { r with spec = { r.spec with Optimizer.bases }; deferrable = [] }
    in
    let deferred =
      { r with
        post_pred = Pred.conj (Pred.conjuncts r.post_pred @ List.map snd ds);
        deferrable = [] }
    in
    [ pushed; deferred ]

(* The mediator-side decoration of a join tree, innermost first: residual
   predicate, aggregation or projection, dedup, sort. Each element wraps
   the plan below it. *)
let decoration (r : resolved) : (Plan.t -> Plan.t) list =
  let aggs = List.filter_map (function Sql.Agg (f, i, o) -> Some (f, i, o) | _ -> None) r.items in
  let cols = List.filter_map (function Sql.Col a -> Some a | _ -> None) r.items in
  let shape =
    if aggs <> [] || r.group_by <> [] then begin
      List.iter
        (fun c ->
          if not (List.mem c r.group_by) then
            raise
              (Err.Plan_error
                 (Fmt.str "column %S must appear in GROUP BY when aggregating" c)))
        cols;
      Some (fun p -> Plan.Aggregate (p, { Plan.group_by = r.group_by; aggs }))
    end
    else if r.star then None
    else Some (fun p -> Plan.Project (p, cols))
  in
  List.filter_map Fun.id
    [ (if Pred.equal r.post_pred Pred.True then None
       else Some (fun p -> Plan.Select (p, r.post_pred)));
      shape;
      (if r.distinct then Some (fun p -> Plan.Dedup p) else None);
      (if r.order_by = [] then None else Some (fun p -> Plan.Sort (p, r.order_by))) ]

let decorate (r : resolved) (joined : Plan.t) : Plan.t =
  List.fold_left (fun p node -> node p) joined (decoration r)

(* --- Plan selection ----------------------------------------------------------- *)

(* Per-query availability view. [Health.available] is the circuit
   breaker's probe admission point: the first check of a recovering source
   admits exactly one half-open probe, and a second un-memoized check by
   the same query would refuse the very admission it just won (planning
   checks each source several times: fail-fast, seeding, variants). Each
   query therefore decides availability once per source and reuses the
   answer; [release] hands admitted-but-unsubmitted probes back when
   planning fails, so the breaker is not stuck waiting out the lost-probe
   cooldown. *)
let availability t =
  let memo = Hashtbl.create 4 in
  let probed = ref [] in
  let check s =
    match Hashtbl.find_opt memo s with
    | Some b -> b
    | None ->
      let b = Health.available t.health ~now:t.now s in
      (if b then
         match Health.state t.health s with
         | Health.Half_open _ -> probed := s :: !probed
         | Health.Closed | Health.Open _ -> ());
      Hashtbl.replace memo s b;
      b
  in
  let release () = List.iter (Health.release_probe t.health) !probed in
  (check, release)

(* One resolved variant's decorated plan, with its annotation when a plan
   search ran: the search's winner extended by the decoration, node by
   node, in the mediator's rule context. The search runs only on a
   plan-cache miss. *)
let join_variant ~objective t (r : resolved) =
  let spec = r.spec in
  let search () = fst (Optimizer.optimize ~objective ~stats:t.opt_stats t.registry spec) in
  let searched (ann : Estimator.ann) =
    let ann =
      List.fold_left
        (fun (a : Estimator.ann) node ->
          Estimator.extend t.registry ~source:Registry.mediator_source
            (node a.Estimator.node) [| a |])
        ann (decoration r)
    in
    (ann.Estimator.node, Some ann)
  in
  match spec.Optimizer.bases, active_cache t with
  | [ b ], _ -> (decorate r (Optimizer.submit_base b), None)
  | _, None -> searched (search ())
  | _, Some cache ->
    (match
       Plancache.search cache t.registry ~objective:(Optimizer.objective_var objective) spec
         search
     with
     | `Cached joined -> (decorate r joined, None)
     | `Searched ann -> searched ann)

(* Graceful degradation starts at optimization time: when a query needs a
   source whose circuit is open and no alternative source serves the
   collection, fail before planning with an error that says when to retry.
   This is the one place availability is decided: a plan search never
   reads it. *)
let check_sources_available ?available t (r : resolved) =
  let available =
    match available with
    | Some f -> f
    | None -> fst (availability t)
  in
  List.iter
    (fun (b : Optimizer.base) ->
      let s = b.Optimizer.ref_.Plan.source in
      if not (available s) then
        raise
          (Err.Source_unavailable
             { source = s; retry_at_ms = Health.retry_at t.health s }))
    r.spec.Optimizer.bases

let plan_of_variant ?(objective = Optimizer.Total_time) ?available t r =
  check_sources_available ?available t r;
  fst (join_variant ~objective t r)

(* A variant costed: its decorated plan, its cost under the objective, its
   whole-plan entry when the plan cache held one, and its one annotation —
   the search's, extended, or else built from scratch when first needed
   (costing a plan the cache does not hold, or estimating one whose record
   is not current). *)
type costed = {
  plan : Plan.t;
  cost : float;
  entry : Plancache.entry option;
  ann : Estimator.ann Lazy.t;
}

let cost_variant ~objective t r =
  let plan, searched = join_variant ~objective t r in
  let ann =
    match searched with
    | Some a -> Lazy.from_val a
    | None -> lazy (Estimator.build t.registry ~source:Registry.mediator_source plan)
  in
  let var = Optimizer.objective_var objective in
  match
    Option.bind (active_cache t) (fun c -> Plancache.lookup c t.registry ~objective:var plan)
  with
  | Some e -> { plan; cost = e.Plancache.cost; entry = Some e; ann }
  | None ->
    let cost = Estimator.require (Estimator.make_ctx ()) (Lazy.force ann) var in
    { plan; cost; entry = None; ann }

(* Store [c]'s whole-plan entry as [e]. *)
let store ~objective t (c : costed) e =
  Option.iter
    (fun cache ->
      Plancache.store cache t.registry ~objective:(Optimizer.objective_var objective)
        c.plan e)
    (active_cache t)

let unverified (c : costed) = { Plancache.cost = c.cost; verified = false; estimates = None }

(* Optimize a resolved query — including the push-vs-defer choice for
   expensive predicates — into the cheapest costed variant. The losing
   variants' costs are stored; the chosen one's entry is the caller's to
   store, once, with what it learns about the plan. Source availability is
   read per call, so a replan sees the breaker state the failed attempt
   left behind. *)
let best_plan ~objective t (r : resolved) : costed =
  let available, release_probes = availability t in
  match
    check_sources_available ~available t r;
    List.map (cost_variant ~objective t) (variants r)
  with
  | [] -> raise (Err.Plan_error "no plan")
  | first :: rest as all ->
    let best =
      List.fold_left (fun best c -> if Optimizer.cost_le best.cost c.cost then best else c)
        first rest
    in
    List.iter
      (fun c -> if c != best && Option.is_none c.entry then store ~objective t c (unverified c))
      all;
    best
  | exception e ->
    (* the query dies before any submit: give admitted half-open probes
       back so concurrent traffic can re-probe immediately *)
    release_probes ();
    raise e

let plan_query ?(objective = Optimizer.Total_time) t text =
  let c = best_plan ~objective t (resolve t (Sql.parse text)) in
  if Option.is_none c.entry then store ~objective t c (unverified c);
  (c.plan, c.cost)

(* --- Execution ------------------------------------------------------------------ *)

(* The mediator's composition engine. ADT implementations are shipped by
   wrappers at registration (like cost rules, §2.4), so deferred predicates
   can be evaluated over composed results. *)
let mediator_run_env t =
  { Run.engine = Costs.mediator_engine;
    buffer = Buffer.create ~capacity:1;
    hash_join = true;
    adts = List.concat_map (fun (_, w) -> w.Wrapper.adts) t.wrappers }

(* A submitted subplan's estimate for the history feedback, read off its
   annotation: all five variables are demanded, as a fresh estimate does,
   and TotalTime and CountObject kept. A model error is no estimate;
   anything else propagates. The annotation is a fresh one
   ([Estimator.build] under the wrapper's rule context) or, in the chosen
   plan's annotation, the submit node's child: the same node under the same
   context, so the same values. *)
let subplan_estimate (ann : Estimator.ann) =
  let ctx = Estimator.make_ctx () in
  match
    List.iter
      (fun v -> ignore (Estimator.require ctx ann v))
      Disco_costlang.Ast.all_cost_vars
  with
  | () -> Some (Estimator.total_time ann, Estimator.count_object ann)
  | exception
      ( Err.Eval_error _ | Err.Plan_error _ | Err.Unknown_collection _
      | Err.Unknown_attribute _ | Err.Unknown_source _ ) ->
    None

(* The submit nodes' subplan annotations, in translation order. *)
let rec submit_anns (ann : Estimator.ann) acc =
  match ann.Estimator.node with
  | Plan.Submit _ -> ann.Estimator.inputs.(0) :: acc
  | Plan.Join _ | Plan.Union _ ->
    submit_anns ann.Estimator.inputs.(1) (submit_anns ann.Estimator.inputs.(0) acc)
  | _ -> Array.fold_right submit_anns ann.Estimator.inputs acc

(* The estimate record of a chosen plan, read off its annotation, which was
   computed at [revision]. *)
let record_estimates ~revision (ann : Estimator.ann) : Plancache.estimates =
  { Plancache.revision;
    root = Estimator.root_vars ann;
    submits = Array.of_list (List.map subplan_estimate (submit_anns ann [])) }

(* The history estimate of the [index]th submit in translation order: the
   record's while it is current, else a fresh estimate of the subplan. It
   carries the per-source adjustment factor in force now, so the smoothing
   in History.observe converges instead of compounding. No estimate feeds
   back 0. *)
let history_estimate ?estimates t ~index ~source sub =
  let est =
    match estimates with
    | Some (e : Plancache.estimates)
      when Plancache.current t.registry e && index < Array.length e.Plancache.submits ->
      e.Plancache.submits.(index)
    | _ -> subplan_estimate (Estimator.build t.registry ~source sub)
  in
  match est with
  | Some (total, count) ->
    (total *. Registry.adjust t.registry ~source, if stats_on t then Some count else None)
  | None -> (0., None)

(* Submit one subplan to its wrapper under the submit policy.

   Without an injector this is the plain query-phase exchange: execute,
   charge communication per the wrapper's network, feed history. With one,
   each attempt is first decided by the injector at the current simulated
   time: a healthy (or merely spiky, below-timeout) response completes the
   submit with the anomaly added on top of the real measured times, while a
   stall/timeout, a transient error or a hard refusal burns simulated time
   and is retried — with exponential backoff — until the policy's attempt
   budget is spent and the failure surfaces as [Run.Submit_error].

   Time wasted on faulty attempts ([inflate]) is charged to the result and
   to the measured TotalTime fed into history: under [History.Adjust] a
   flaky source's estimates inflate, steering the optimizer away from it.

   [estimates] is the plan's estimate record and [index] this submit's
   place in translation order ([history_estimate]). *)
let submit_subplan ?estimates ~index t src sub : Physical.t =
  let w = find_wrapper t src in
  let net = w.Wrapper.network in
  let complete ~inflate =
    let batches, vec = Wrapper.execute w sub in
    let estimated_total, estimated_count =
      history_estimate ?estimates t ~index ~source:src sub
    in
    let measured =
      if inflate = 0. then Run.to_cost_vars vec
      else
        List.map
          (fun (v, x) ->
            if v = Disco_costlang.Ast.Total_time then (v, x +. inflate) else (v, x))
          (Run.to_cost_vars vec)
    in
    History.observe ?estimated_count t.history ~source:src ~plan:sub ~measured
      ~estimated_total;
    let comm = net.Costs.msg_ms +. (net.Costs.byte_ms *. vec.Run.size) in
    t.now <- t.now +. vec.Run.total_time +. comm +. inflate;
    Health.on_success t.health src;
    Physical.Pmaterialized
      { batches;
        count = int_of_float vec.Run.count;
        first = vec.Run.time_first +. net.Costs.msg_ms +. inflate;
        total = vec.Run.total_time +. comm +. inflate }
  in
  match w.Wrapper.fault with
  | None -> complete ~inflate:0.
  | Some inj ->
    let policy = Health.policy t.health in
    let rec attempt k wasted =
      match Fault.decide inj ~now:t.now with
      | Fault.Respond extra when extra < policy.Health.timeout_ms ->
        complete ~inflate:(wasted +. extra)
      | outcome ->
        let burn, reason =
          match outcome with
          (* a spike at or past the timeout is indistinguishable from a
             stall: the mediator gives up at the timeout either way *)
          | Fault.Respond _ | Fault.Stall -> (policy.Health.timeout_ms, Run.Timeout)
          | Fault.Fail_after ms ->
            (Float.min ms policy.Health.timeout_ms, Run.Transient)
          | Fault.Refuse -> (net.Costs.msg_ms, Run.Unavailable)
        in
        t.now <- t.now +. burn;
        if k >= policy.Health.max_attempts then begin
          Health.on_failure t.health ~now:t.now src
            ~reason:(Run.reason_to_string reason);
          raise
            (Run.Submit_error
               { source = src; attempts = k; elapsed_ms = wasted +. burn; reason })
        end
        else begin
          let backoff =
            policy.Health.backoff_base_ms
            *. (policy.Health.backoff_factor ** float_of_int (k - 1))
          in
          t.now <- t.now +. backoff;
          Health.note_retry t.health src;
          attempt (k + 1) (wasted +. burn +. backoff)
        end
    in
    attempt 1 0.

(* Execute the mediator-side plan: submits run in their wrappers under the
   submit policy (communication charged per the wrapper's network, history
   fed back, faults retried); composition operators run in the mediator
   engine. Binary nodes pin the translation order explicitly — right child
   first, matching what OCaml's right-to-left argument evaluation always
   did here — because submits to one source share its buffer pool and each
   submit advances the simulated clock, so the order is observable, and the
   estimate record lists its submits in it. [next] counts the submits
   translated so far. *)
let to_physical ?estimates t (plan : Plan.t) : Physical.t =
  let next = ref 0 in
  let rec go (plan : Plan.t) =
    match plan with
    | Plan.Submit (src, sub) ->
      let index = !next in
      incr next;
      submit_subplan ?estimates ~index t src sub
    | Plan.Scan _ ->
      raise (Err.Plan_error "bare scan at the mediator (missing submit)")
    | Plan.Select (c, p) -> Physical.Pfilter (go c, p)
    | Plan.Project (c, attrs) -> Physical.Pproject (go c, attrs)
    | Plan.Sort (c, keys) -> Physical.Psort (go c, keys)
    | Plan.Join (l, r, p) ->
      let pr = go r in
      let pl = go l in
      Physical.Pnested_join (pl, pr, p)
    | Plan.Union (l, r) ->
      let ur = go r in
      let ul = go l in
      Physical.Punion (ul, ur)
    | Plan.Dedup c -> Physical.Pdedup (go c)
    | Plan.Aggregate (c, a) -> Physical.Paggregate (go c, a)
  in
  go plan

type answer = {
  rows : Tuple.t list;
  plan : Plan.t;
  estimate : Estimator.ann;
  measured : Run.vector;
  replans : int;
  recovered : Run.submit_failure list;
}

type report = {
  failures : Run.submit_failure list;
  replans : int;
  unavailable : (string * float) list;
}

exception Degraded of report

let pp_report ppf (r : report) =
  Fmt.pf ppf "query degraded after %d replan%s:@," r.replans
    (if r.replans = 1 then "" else "s");
  List.iter (fun f -> Fmt.pf ppf "  %a@," Run.pp_submit_failure f) r.failures;
  List.iter
    (fun (s, at) -> Fmt.pf ppf "  source %S circuit open until t≈%.0f ms@," s at)
    r.unavailable

let () =
  Printexc.register_printer (function
    | Degraded r -> Some (Fmt.str "@[<v>Degraded: %a@]" pp_report r)
    | _ -> None)

let unavailable_sources t =
  List.filter_map
    (fun (name, _) ->
      match Health.state t.health name with
      | Health.Open { until } -> Some (name, until)
      | Health.Closed | Health.Half_open _ -> None)
    t.wrappers
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The full query-processing phase of Fig 2, wrapped in the degradation
   contract: a submit that exhausts its retry budget mid-execution triggers a
   replan — the failed source's inflated history steers the optimizer, and
   a replan that needs a source whose circuit is now open is refused before
   planning — up to [max_replans] times; when no plan remains (or the budget
   is spent) the accumulated failures surface as a structured [Degraded]
   report. A query that needs an already-open source fails fast with
   [Err.Source_unavailable]. *)
exception Invalid_plan of Finding.t list

let () =
  Printexc.register_printer (function
    | Invalid_plan fs ->
      Some (Fmt.str "Invalid_plan: %a" Fmt.(list ~sep:(any "; ") Finding.pp) fs)
    | _ -> None)

(* Whole-plan verification of a chosen plan: typed well-formedness
   (Plancheck, mediator placement rules) plus estimate-bound validation
   (Planbound). [ann] reuses an existing estimation tree so the warm query
   path never pays a second estimation pass. *)
let verify_plan ?ann t plan =
  let pc = Plancheck.check ~ctx:`Mediator t.registry plan in
  let pb =
    (* the bound pass presumes a well-typed plan, whose collections and
       attributes it reads: skip it on plans the typed checker rejects *)
    if Finding.errors pc <> [] then []
    else
      match ann with
      | Some a -> Planbound.check_ann t.registry a
      | None -> Planbound.check t.registry plan
  in
  pc @ pb

(* One attempt's plan, estimate, verification and estimate record. A
   repeat with the model unchanged is served from the plan's entry: its
   record gives the estimate and its flag spares the verification.
   Otherwise the plan's one annotation is completed at the root, verifies
   the plan and yields the record. The entry is then stored once, if
   anything in it is new — also when verification fails, so a miss leaves
   the plan's cost behind. *)
let settle ~objective ~verify ~revision t (c : costed) =
  let recorded =
    match c.entry with
    | Some { Plancache.estimates = Some e; _ } when Plancache.current t.registry e -> Some e
    | _ -> None
  in
  let estimate =
    match recorded with
    | Some e -> Estimator.build_with_root t.registry c.plan e.Plancache.root
    | None ->
      let ann = Lazy.force c.ann and ctx = Estimator.make_ctx () in
      List.iter (fun v -> ignore (Estimator.require ctx ann v)) Disco_costlang.Ast.all_cost_vars;
      ann
  in
  let entry = Option.value c.entry ~default:(unverified c) in
  let check = verify && not entry.Plancache.verified in
  (if check then
     match Finding.errors (verify_plan ~ann:estimate t c.plan) with
     | [] -> ()
     | errs ->
       if Option.is_none c.entry then store ~objective t c entry;
       raise (Invalid_plan errs));
  let estimates =
    match recorded with
    | Some e -> e
    | None -> record_estimates ~revision estimate
  in
  if Option.is_none c.entry || Option.is_none recorded || check then
    store ~objective t c
      { entry with verified = entry.Plancache.verified || check; estimates = Some estimates };
  (estimate, estimates)

let max_replans = 2

let run_query ?(objective = Optimizer.Total_time) ?(verify = false) t (text : string) :
    answer =
  (* resolution reads only the catalog, so every replan reuses it *)
  let r = resolve t (Sql.parse text) in
  let rec go replans failures =
    match
      (* read before planning: the search's annotation is computed at it *)
      let revision = Registry.revision t.registry in
      let c = best_plan ~objective t r in
      let estimate, estimates = settle ~objective ~verify ~revision t c in
      let physical = to_physical ~estimates t c.plan in
      let rows, measured = Run.measure ?limit:r.limit (mediator_run_env t) physical in
      (c.plan, estimate, rows, measured)
    with
    | plan, estimate, rows, measured ->
      { rows; plan; estimate; measured; replans; recovered = List.rev failures }
    | exception Run.Submit_error f ->
      if replans >= max_replans then
        raise
          (Degraded
             { failures = List.rev (f :: failures);
               replans;
               unavailable = unavailable_sources t })
      else go (replans + 1) (f :: failures)
    | exception Err.Source_unavailable _ when failures <> [] ->
      (* replanning found no remaining plan: report instead of erroring *)
      raise
        (Degraded
           { failures = List.rev failures;
             replans;
             unavailable = unavailable_sources t })
  in
  go 0 []

(* EXPLAIN output: the chosen plan with per-node cost estimates. *)
let explain t (text : string) : string =
  let plan, _ = plan_query t text in
  let ann = Estimator.estimate t.registry plan in
  Fmt.str "%a@.%s" Plan.pp_indented plan (Estimator.report ann)

(* EXPLAIN ANALYZE: execute the query and report, per wrapper subquery and
   overall, the estimated vs measured cost — the estimation-quality feedback
   an administrator would look at before deciding which wrappers need better
   cost rules (or a history mode). *)
let analyze ?objective t (text : string) : string =
  let before = History.count t.history in
  let a = run_query ?objective t text in
  let new_records = History.newest t.history (History.count t.history - before) in
  let buf = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string buf (Fmt.str "%a" Plan.pp_indented a.plan);
  Stdlib.Buffer.add_string buf "per wrapper subquery (estimated vs measured TotalTime, ms):\n";
  List.iter
    (fun (r : History.record) ->
      let real =
        Option.value ~default:0.
          (List.assoc_opt Disco_costlang.Ast.Total_time r.History.measured)
      in
      Stdlib.Buffer.add_string buf
        (Fmt.str "  %-10s %10.1f %10.1f  (%+.0f%%)  %s\n" r.History.source
           r.History.estimated_total real
           (100. *. (r.History.estimated_total -. real) /. Float.max real 1e-9)
           (Plan.to_string r.History.plan)))
    new_records;
  let est_total = Estimator.total_time a.estimate in
  Stdlib.Buffer.add_string buf
    (Fmt.str "overall: estimated %.1f ms, measured %.1f ms (%+.0f%%), %d rows\n"
       est_total a.measured.Run.total_time
       (100. *. (est_total -. a.measured.Run.total_time)
        /. Float.max a.measured.Run.total_time 1e-9)
       (List.length a.rows));
  Stdlib.Buffer.contents buf
