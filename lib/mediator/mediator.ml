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

module Plan_tbl = Hashtbl.Make (struct
  type t = Plan.t

  let equal = Plan.equal_structural
  let hash = Plan.hash
end)

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
  (* plans already verified clean, stamped with the registry generation
     they verified at: the warm query path under [~verify:true] skips the
     checker walks for a plan it has already proven at the current model
     (same contract as the plan cache's stamped entries). *)
  verify_memo : int Plan_tbl.t;
  health : Health.t;
  (* simulated wall clock, in ms; advances only when submit traffic runs
     (wrapper work, communication, injected anomalies, retry backoff). The
     fault injectors' windows and the circuit-breaker cooldowns live on it. *)
  mutable now : float;
  (* escape hatch (the CLI's --no-cache): when off, every optimization
     re-estimates from scratch — the reference behavior the differential
     tests compare against *)
  mutable cache_enabled : bool;
  (* strict-mode contract for registration-time static analysis: [`Error]
     rejects an export whose lint has error-severity findings, [`Warn] logs
     and keeps them inspectable, [`Off] skips the analyzer *)
  lint : [ `Error | `Warn | `Off ];
  mutable last_lint : Disco_analysis.Analyzer.finding list;
  mutable wrappers : (string * Wrapper.t) list;
  (* degree of the domain pool used for plan search and scatter-gather
     submit execution; 1 = fully sequential. Parallelism is value-preserving
     (see Optimizer and [to_physical]), so this is a throughput knob, never
     a semantics knob. *)
  domains : int;
  (* feedback-driven statistics (§4.3, DESIGN.md §11). Off by default: the
     estimator then never sees a histogram or a selectivity correction and
     every estimate is bit-identical to a mediator without the subsystem. *)
  stats_mode : stats_mode;
  (* join-enumeration engine (DESIGN.md §15): auto hands exact DPccp over
     to the greedy path above [Optimizer.default_enum_threshold] relations *)
  enum_mode : Optimizer.enum_mode;
  (* cumulative optimizer counters across every optimization this mediator
     ran; surfaced through the server's /metrics so plan-search cost is
     observable in production mode *)
  opt_stats : Optimizer.stats;
}

and stats_mode = Stats_off | Stats_feedback of History.feedback

module Pool = Disco_parallel.Pool

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
   its histograms. Runs on the gather domain (History.observe's caller);
   catalog writes are plain replacements and estimation re-reads them only
   after the accompanying generation bump drops cached plans. *)
let refresh_histograms t ~source =
  match List.assoc_opt source t.wrappers with
  | Some w when stats_on t -> harvest_wrapper t w
  | _ -> ()

let create ?backend ?calibration ?(history_mode = History.Off) ?(cache = true)
    ?policy ?(lint = `Warn) ?domains ?(stats_mode = Stats_off)
    ?(enum_mode = Optimizer.Auto) () =
  let domains =
    match domains with Some d -> max 1 (min d Pool.max_domains) | None -> Pool.env_domains ()
  in
  let catalog = Catalog.create () in
  let registry = Registry.create ?backend catalog in
  Generic.register ?calibration registry;
  (* Admission gate of the plan cache: structural well-formedness only
     (Plancheck), placement-agnostic — optimizer DP candidates include
     unwrapped wrapper-side trees. Bound validation (Planbound) re-enters
     the estimator, which itself consults this cache, so it stays out of
     the admission path and runs on chosen plans instead (run_query
     ~verify / verify_plan). *)
  let plancache =
    Plancache.create
      ~verify:(fun reg plan -> Disco_analysis.Plancheck.ok ~ctx:`Any reg plan)
      ()
  in
  let t =
    { catalog;
      registry;
      history = History.create ~mode:history_mode registry;
      plancache;
      verify_memo = Plan_tbl.create 64;
      health = Health.create ?policy ();
      now = 0.;
      cache_enabled = cache;
      lint;
      last_lint = [];
      wrappers = [];
      domains;
      stats_mode;
      enum_mode;
      opt_stats = Optimizer.new_stats () }
  in
  (match stats_mode with
   | Stats_off -> ()
   | Stats_feedback fb ->
     History.set_feedback t.history
       ~on_drift:(fun ~source -> refresh_histograms t ~source)
       (Some fb));
  t

let registry t = t.registry
let catalog t = t.catalog
let history t = t.history

(* A fresh history partition wired like the mediator's own: same mode, and
   when feedback statistics are on, the same drift hook (histogram
   recalibration). The server creates one per tenant. *)
let fresh_history t =
  let h = History.create ~mode:(History.mode t.history) t.registry in
  (match t.stats_mode with
   | Stats_off -> ()
   | Stats_feedback fb ->
     History.set_feedback h
       ~on_drift:(fun ~source -> refresh_histograms t ~source)
       (Some fb));
  h

let set_history t h = t.history <- h
let plancache t = t.plancache
let health t = t.health
let now t = t.now
let set_now t v = t.now <- v
let cache_enabled t = t.cache_enabled
let set_cache_enabled t on = t.cache_enabled <- on
let lint_mode t = t.lint
let last_lint t = t.last_lint
let domains t = t.domains
let stats_mode t = t.stats_mode
let enum_mode t = t.enum_mode

(* A copy, so callers can't corrupt the accumulator. *)
let optimizer_stats t =
  let s = Optimizer.new_stats () in
  Optimizer.merge_stats ~into:s t.opt_stats;
  s

let active_cache t = if t.cache_enabled then Some t.plancache else None

(* Registration phase: the wrapper returns schemas, statistics and cost
   information; the mediator statically checks the export, then compiles and
   stores it. Re-registration refreshes statistics and replaces rules. *)
let register t (w : Wrapper.t) =
  let decl = Wrapper.registration_decl w in
  (match Disco_costlang.Check.errors (Disco_costlang.Check.check_source decl) with
   | [] -> ()
   | err :: _ ->
     raise
       (Err.Eval_error
          (Fmt.str "registration of %S rejected: %a" w.Wrapper.name
             Disco_costlang.Check.pp_issue err)));
  ignore (Registry.register_source_decl t.registry decl);
  (* static analysis of the freshly blended model (lib/analysis): in strict
     mode an export whose merged chains can raise, diverge or produce
     meaningless costs is rejected and rolled back *)
  (match t.lint with
   | `Off -> t.last_lint <- []
   | (`Warn | `Error) as mode ->
     let module A = Disco_analysis.Analyzer in
     let breaker_open src =
       match Health.state t.health src with
       | Health.Open _ -> true
       | Health.Closed | Health.Half_open _ -> false
     in
     let findings =
       A.analyze_source ~excluded:breaker_open t.registry
         ~source:decl.Disco_costlang.Ast.source_name
     in
     t.last_lint <- findings;
     (match mode, A.errors (A.active findings) with
      | `Error, (err :: _ as errs) ->
        Registry.clear_source t.registry ~source:decl.Disco_costlang.Ast.source_name;
        raise
          (Err.Eval_error
             (Fmt.str "registration of %S rejected by lint (%d error%s): %a"
                w.Wrapper.name (List.length errs)
                (if List.length errs = 1 then "" else "s")
                A.pp_finding err))
      | _, _ ->
        List.iter
          (fun f ->
            match f.A.severity with
            | A.Error | A.Warning ->
              Logs.warn (fun m -> m "lint: %a" A.pp_finding f)
            | A.Info -> Logs.info (fun m -> m "lint: %a" A.pp_finding f))
          findings));
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

(* Wrap the optimized join tree with the mediator-side decoration:
   residual predicate, aggregation or projection, dedup, sort. *)
let decorate (r : resolved) (joined : Plan.t) : Plan.t =
  let filtered =
    if Pred.equal r.post_pred Pred.True then joined else Plan.Select (joined, r.post_pred)
  in
  let aggs = List.filter_map (function Sql.Agg (f, i, o) -> Some (f, i, o) | _ -> None) r.items in
  let shaped =
    if aggs <> [] || r.group_by <> [] then begin
      let cols = List.filter_map (function Sql.Col a -> Some a | _ -> None) r.items in
      List.iter
        (fun c ->
          if not (List.mem c r.group_by) then
            raise
              (Err.Plan_error
                 (Fmt.str "column %S must appear in GROUP BY when aggregating" c)))
        cols;
      Plan.Aggregate (filtered, { Plan.group_by = r.group_by; aggs })
    end
    else if r.star then filtered
    else
      let cols = List.filter_map (function Sql.Col a -> Some a | _ -> None) r.items in
      Plan.Project (filtered, cols)
  in
  let deduped = if r.distinct then Plan.Dedup shaped else shaped in
  if r.order_by = [] then deduped else Plan.Sort (deduped, r.order_by)

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

(* Optimize one resolved variant into a complete decorated plan. Sources
   with an open circuit breaker are excluded from plan seeding. *)
let plan_of_variant ?objective ?available t (r : resolved) : Plan.t =
  let available =
    match available with
    | Some f -> f
    | None -> fst (availability t)
  in
  let joined =
    match r.spec.Optimizer.bases with
    | [ b ] -> Optimizer.submit_base b
    | _ ->
      fst
        (Optimizer.optimize ?objective ~memo:t.cache_enabled
           ?cache:(active_cache t) ~available ~domains:t.domains
           ~stats:t.opt_stats ~enum:t.enum_mode t.registry r.spec)
  in
  decorate r joined

(* Graceful degradation starts at optimization time: when a query needs a
   source whose circuit is open and no alternative source serves the
   collection, fail before planning with an error that says when to retry. *)
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

(* Estimate one variable of a complete plan through the cross-query cache
   (when enabled). Cached and fresh paths return bit-identical values: the
   cache stores exactly what the estimator computed, and the generation stamp
   drops it as soon as the model changes. *)
let cached_estimate t ~var (plan : Plan.t) : float =
  let fresh () =
    let ann = Estimator.estimate ~require_vars:[ var ] t.registry plan in
    Option.get (Estimator.var ann var)
  in
  match active_cache t with
  | None -> fresh ()
  | Some c ->
    (match Plancache.find c t.registry ~objective:var plan with
     | Some cost -> cost
     | None ->
       let cost = fresh () in
       Plancache.add c t.registry ~objective:var plan cost;
       cost)

(* Parse, resolve and optimize a query — including the push-vs-defer choice
   for expensive predicates; returns the decorated plan and its estimated
   TotalTime. *)
let best_plan ?(objective = Optimizer.Total_time) t (text : string) : Plan.t * float =
  let q = Sql.parse text in
  let r = resolve t q in
  let available, release_probes = availability t in
  match
    check_sources_available ~available t r;
    let var =
      match objective with
      | Optimizer.Total_time -> Disco_costlang.Ast.Total_time
      | Optimizer.First_tuple -> Disco_costlang.Ast.Time_first
    in
    let candidates =
      List.map
        (fun v ->
          let plan = plan_of_variant ~objective ~available t v in
          (plan, cached_estimate t ~var plan))
        (variants r)
    in
    (candidates : (Plan.t * float) list)
  with
  | [] -> raise (Err.Plan_error "no plan")
  | first :: rest ->
    List.fold_left (fun best c -> if snd c < snd best then c else best) first rest
  | exception e ->
    (* the query dies before any submit: give admitted half-open probes
       back so concurrent traffic can re-probe immediately *)
    release_probes ();
    raise e

let plan_query ?objective t text = best_plan ?objective t text

(* --- Execution ------------------------------------------------------------------ *)

(* The mediator's composition engine. ADT implementations are shipped by
   wrappers at registration (like cost rules, §2.4), so deferred predicates
   can be evaluated over composed results. *)
let mediator_run_env t =
  { Run.engine = Costs.mediator_engine;
    buffer = Buffer.create ~capacity:1;
    hash_join = true;
    adts = List.concat_map (fun (_, w) -> w.Wrapper.adts) t.wrappers }

(* Estimate a submitted subplan for the history feedback; the estimate
   carries the current per-source adjustment factor, so the smoothing in
   History.observe converges instead of compounding. Model errors degrade to
   0 (no feedback); anything else — in particular typed submit failures —
   propagates. *)
let history_estimate t ~source sub =
  try
    let ann = Estimator.estimate ~source t.registry sub in
    let count =
      if stats_on t then Some (Estimator.count_object ann) else None
    in
    (Estimator.total_time ann *. Registry.adjust t.registry ~source, count)
  with
  | Err.Eval_error _ | Err.Plan_error _ | Err.Unknown_collection _
  | Err.Unknown_attribute _ | Err.Unknown_source _ ->
    (0., None)

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

   [prefetched] holds scatter-phase wrapper results, one FIFO queue per
   source filled in the same per-source order this sequential gather
   consumes them, so popping the head always yields this very submit's
   result. Only wrapper execution is ever prefetched — every piece of
   mediator accounting (history feedback, communication charge, clock
   advance, health) happens here, on the gathering domain, in plan order. *)
type prefetched =
  (string, (Tuple.t list * Run.vector, exn) result Queue.t) Hashtbl.t

let submit_subplan ?prefetched t src sub : Physical.t =
  let w = find_wrapper t src in
  let net = w.Wrapper.network in
  let execute () =
    match prefetched with
    | Some (tbl : prefetched) ->
      (match Hashtbl.find_opt tbl src with
       | Some q when not (Queue.is_empty q) ->
         (match Queue.pop q with Ok r -> r | Error e -> raise e)
       | _ -> Wrapper.execute w sub)
    | None -> Wrapper.execute w sub
  in
  let complete ~inflate =
    let rows, vec = execute () in
    let estimated_total, estimated_count = history_estimate t ~source:src sub in
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
      { rows;
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
   did here — because the scatter phase must enqueue wrapper results in
   exactly the order this gather consumes them. *)
let rec translate ?prefetched t (plan : Plan.t) : Physical.t =
  match plan with
  | Plan.Submit (src, sub) -> submit_subplan ?prefetched t src sub
  | Plan.Scan _ ->
    raise (Err.Plan_error "bare scan at the mediator (missing submit)")
  | Plan.Select (c, p) -> Physical.Pfilter (translate ?prefetched t c, p)
  | Plan.Project (c, attrs) -> Physical.Pproject (translate ?prefetched t c, attrs)
  | Plan.Sort (c, keys) -> Physical.Psort (translate ?prefetched t c, keys)
  | Plan.Join (l, r, p) ->
    let pr = translate ?prefetched t r in
    let pl = translate ?prefetched t l in
    Physical.Pnested_join (pl, pr, p)
  | Plan.Union (l, r) ->
    let ur = translate ?prefetched t r in
    let ul = translate ?prefetched t l in
    Physical.Punion (ul, ur)
  | Plan.Dedup c -> Physical.Pdedup (translate ?prefetched t c)
  | Plan.Aggregate (c, a) -> Physical.Paggregate (translate ?prefetched t c, a)

(* Submit occurrences in translation order (right child first, like
   [translate]); the scatter phase partitions them by source. *)
let rec submit_occurrences (plan : Plan.t) : (string * Plan.t) list =
  match plan with
  | Plan.Submit (src, sub) -> [ (src, sub) ]
  | Plan.Scan _ -> []
  | Plan.Select (c, _) | Plan.Project (c, _) | Plan.Sort (c, _)
  | Plan.Dedup c | Plan.Aggregate (c, _) -> submit_occurrences c
  | Plan.Join (l, r, _) | Plan.Union (l, r) ->
    submit_occurrences r @ submit_occurrences l

(* Scatter-gather execution. With [domains > 1], independent wrapper work
   runs concurrently: submits to injector-free sources are grouped per
   source (wrapper buffers make same-source submits order-dependent, so a
   group executes its submits in plan order on one domain) and the groups
   fan out over the pool. The gather then runs the ordinary sequential
   translation, consuming the prefetched results — so history feedback,
   communication charges, the simulated clock and health all advance in
   plan order on the calling domain, and answers, history, clock and
   breaker state are bit-identical to the sequential path. Sources with a
   fault injector are left to the gather untouched: their outcomes depend
   on the clock at submit time, and the retry/backoff/breaker loop must see
   the clock the sequential path would. A wrapper error inside a group
   parks as [Error] in the queue and re-raises at the consuming submit's
   position. *)
let to_physical t (plan : Plan.t) : Physical.t =
  if t.domains <= 1 then translate t plan
  else begin
    let occs = submit_occurrences plan in
    (* per-source groups of prefetchable submits, first-occurrence order *)
    let groups : (string * Plan.t list ref) list ref = ref [] in
    List.iter
      (fun (src, sub) ->
        match List.assoc_opt src t.wrappers with
        | Some { Wrapper.fault = None; _ } ->
          (match List.assoc_opt src !groups with
           | Some subs -> subs := sub :: !subs
           | None -> groups := !groups @ [ (src, ref [ sub ]) ])
        | Some _ | None ->
          (* faulty at gather time; unknown sources error there too *)
          ())
      occs;
    let groups =
      List.map (fun (src, subs) -> (src, List.rev !subs)) !groups
    in
    let prefetched : prefetched = Hashtbl.create 8 in
    List.iter (fun (src, _) -> Hashtbl.replace prefetched src (Queue.create ())) groups;
    let garr = Array.of_list groups in
    let pool = Pool.create t.domains in
    let results =
      Pool.run pool
        (fun i ->
          let src, subs = garr.(i) in
          let w = List.assoc src t.wrappers in
          (* stop at the first error: the submits a sequential run would
             never have reached must not touch the wrapper's buffer *)
          let rec go acc = function
            | [] -> List.rev acc
            | sub :: rest ->
              (match Wrapper.execute w sub with
               | r -> go (Ok r :: acc) rest
               | exception e -> List.rev (Error e :: acc))
          in
          go [] subs)
        (Array.length garr)
    in
    Array.iteri
      (fun i rs ->
        let src, _ = garr.(i) in
        let q = Hashtbl.find prefetched src in
        List.iter (fun r -> Queue.push r q) rs)
      results;
    translate ~prefetched t plan
  end

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
   replan — the failed source's circuit state and inflated history steer the
   optimizer, and with the circuit open the source is excluded outright — up
   to [max_replans] times; when no plan remains (or the budget is spent) the
   accumulated failures surface as a structured [Degraded] report. A query
   that needs an already-open source fails fast with
   [Err.Source_unavailable]. *)
exception Invalid_plan of Disco_analysis.Plancheck.finding list

let () =
  Printexc.register_printer (function
    | Invalid_plan fs ->
      Some
        (Fmt.str "Invalid_plan: %a"
           Fmt.(list ~sep:(any "; ") Disco_analysis.Plancheck.pp_finding)
           fs)
    | _ -> None)

(* Whole-plan verification of a chosen plan: typed well-formedness
   (Plancheck, mediator placement rules) plus, when [deep], estimate-bound
   validation (Planbound). [ann] reuses an existing estimation tree so the
   warm query path never pays a second estimation pass. *)
let verify_chosen ?(deep = true) ?ann t plan =
  let pc = Disco_analysis.Plancheck.check ~ctx:`Mediator t.registry plan in
  let pb =
    (* the bound pass presumes well-formedness (it annotates the plan
       through the estimator, which resolves sources eagerly): skip it on
       plans the typed checker already rejects *)
    if (not deep) || Disco_analysis.Plancheck.errors pc <> [] then []
    else
      match ann with
      | Some a -> Disco_analysis.Planbound.check_ann t.registry a
      | None -> Disco_analysis.Planbound.check t.registry plan
  in
  pc @ pb

let verify_plan ?deep t plan = verify_chosen ?deep t plan

let run_query ?objective ?(max_replans = 2) ?(verify = false) t (text : string)
    : answer =
  let q = Sql.parse text in
  let r = resolve t q in
  let rec go replans failures =
    match
      let plan, _ = best_plan ?objective t text in
      let estimate = Estimator.estimate t.registry plan in
      (if verify then
         let gen = Registry.generation t.registry in
         match Plan_tbl.find_opt t.verify_memo plan with
         | Some g when g = gen -> ()
         | _ -> (
           match
             Disco_analysis.Plancheck.errors
               (verify_chosen ~ann:estimate t plan)
           with
           | [] ->
             (* generation-stamped positive cache; a model change bumps the
                generation and forces re-verification (bounded like the
                plan cache, cleared wholesale on overflow) *)
             if Plan_tbl.length t.verify_memo >= 4096 then
               Plan_tbl.reset t.verify_memo;
             Plan_tbl.replace t.verify_memo plan gen
           | errs -> raise (Invalid_plan errs)));
      let physical = to_physical t plan in
      let rows, measured = Run.measure (mediator_run_env t) physical in
      (plan, estimate, rows, measured)
    with
    | plan, estimate, rows, measured ->
      let rows =
        match r.limit with
        | Some n -> List.filteri (fun i _ -> i < n) rows
        | None -> rows
      in
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
  let before = List.length (History.records t.history) in
  let a = run_query ?objective t text in
  let new_records =
    List.filteri (fun i _ -> i >= before) (History.records t.history)
  in
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
