(* The mediator's cost-information store. During the registration phase the
   rules, parameters ([let]) and functions ([def]) exported by each wrapper
   are compiled and integrated here (paper §4.1); during query processing the
   estimator asks it for the rules matching each plan node.

   Rules are grouped per (source, operator); lookup merges a source's rules
   with the default-scope rules and sorts by matching level (scope,
   specificity, declaration order), caching the merged lists — this plays the
   role of the paper's "own efficient [overriding mechanism] based on kind of
   virtual tables". *)

open Disco_common
open Disco_catalog
open Disco_costlang

let default_source = "default"
let mediator_source = "mediator"

type source_entry = {
  mutable lets : (string * Compile.compiled) list;  (* declaration order *)
  let_cache : (string, Value.t) Hashtbl.t;
  mutable defs : (string * Compile.def) list;
  mutable rules : Rule.t list;  (* newest first; order field keeps rank *)
  mutable adjust : float;  (* historical adjustment factor, §4.3.1 *)
}

module Pred_tbl = Hashtbl.Make (struct
  type t = string * Disco_algebra.Pred.t

  let equal (s1, p1) (s2, p2) = String.equal s1 s2 && Disco_algebra.Pred.equal p1 p2
  let hash (s, p) = ((Hashtbl.hash s * 31) + Disco_algebra.Pred.hash p) land max_int
end)

type t = {
  catalog : Catalog.t;
  sources : (string, source_entry) Hashtbl.t;
  merged : (string * string, Rule.t list) Hashtbl.t;  (* (source, operator) *)
  (* per-call cost and selectivity of ADT operations (paper §7), exported by
     wrappers as [let AdtCost_<fn> = ...] / [let AdtSel_<fn> = ...] *)
  adt_costs : (string, float) Hashtbl.t;
  adt_sels : (string, float) Hashtbl.t;
  (* feedback-driven multiplicative selectivity corrections, keyed by
     (source, predicate) under [Pred.equal]; maintained by [History] from
     observed cardinalities (§4.3). Writes do NOT bump the generation —
     corrections accumulate silently and only a drift-triggered
     [invalidate] republishes them to cached plans. [sel_fix_active] is a
     monotone flag letting the estimator skip the lock and the key's hash
     entirely until the first correction exists, so the feedback-off path
     costs nothing. *)
  sel_fixes : float Pred_tbl.t;
  mutable sel_fix_active : bool;
  mutable next_id : int;
  mutable next_order : int;
  (* monotonic stamp of the blended model: bumps on every write that can
     change an estimate (rule registration, [let] update, calibration/history
     adjustment, ADT export). Caches of estimation results are valid only
     while the generation they were computed under is still current. *)
  mutable generation : int;
  (* monotonic stamp of everything an estimate reads: moves with every
     generation bump and with every selectivity-correction write, which
     leaves the generation alone *)
  mutable revision : int;
  (* guards the query-time lazily-filled tables ([merged], per-source
     [let_cache], on-demand [sources] entries) so two estimations running
     at once cannot corrupt a Hashtbl mid-resize. The server estimates one
     query at a time today (under its exec lock); concurrent queries will
     not, and test_core's registry hammer estimates from four domains.
     Held only across the table operations themselves, never across
     formula evaluation — [lookup_let] computes outside the lock (a
     duplicated computation is harmless: let values are deterministic
     within a generation). *)
  lock : Mutex.t;
}

let create catalog =
  { catalog;
    sources = Hashtbl.create 16;
    merged = Hashtbl.create 64;
    adt_costs = Hashtbl.create 8;
    adt_sels = Hashtbl.create 8;
    sel_fixes = Pred_tbl.create 16;
    sel_fix_active = false;
    next_id = 0;
    next_order = 0;
    generation = 0;
    revision = 0;
    lock = Mutex.create () }

let entry t source =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.sources source with
      | Some e -> e
      | None ->
        let e =
          { lets = [];
            let_cache = Hashtbl.create 8;
            defs = [];
            rules = [];
            adjust = 1. }
        in
        Hashtbl.add t.sources source e;
        e)

let bump t =
  t.generation <- t.generation + 1;
  t.revision <- t.revision + 1

let generation t = t.generation
let revision t = t.revision

let invalidate t =
  Mutex.protect t.lock (fun () -> Hashtbl.reset t.merged);
  bump t

(* --- Feedback-driven selectivity corrections (§4.3) ---------------------- *)

let set_sel_fix t ~source pred factor =
  Mutex.protect t.lock (fun () ->
      Pred_tbl.replace t.sel_fixes (source, pred) factor);
  t.sel_fix_active <- true;
  t.revision <- t.revision + 1

let sel_fix t ~source pred =
  if not t.sel_fix_active then 1.
  else
    Mutex.protect t.lock (fun () ->
        Option.value ~default:1. (Pred_tbl.find_opt t.sel_fixes (source, pred)))

let clear_sel_fixes t ~source =
  Mutex.protect t.lock (fun () ->
      Pred_tbl.filter_map_inplace
        (fun (s, _) fix -> if String.equal s source then None else Some fix)
        t.sel_fixes);
  t.revision <- t.revision + 1

(* --- Statistics resolution helpers (shared with the estimator) ---------- *)

let extent_stat (e : Stats.extent) = function
  | "CountObject" -> Some (float_of_int e.Stats.count_objects)
  | "TotalSize" -> Some (float_of_int e.Stats.total_size)
  | "ObjectSize" -> Some (float_of_int e.Stats.object_size)
  | _ -> None

let attr_stat_value (s : Derive.attr_stat) = function
  | "Indexed" -> Some (Value.Vnum (if s.Derive.indexed then 1. else 0.))
  | "CountDistinct" -> Some (Value.Vnum s.Derive.distinct)
  | "Min" -> Some (Value.Vconst s.Derive.min)
  | "Max" -> Some (Value.Vconst s.Derive.max)
  | _ -> None

(* Resolve [Collection.Stat] or [Collection.Attr.Stat] against the catalog
   for a named collection of [source]. *)
let catalog_path t ~source path : Value.t option =
  match path with
  | [ coll; stat ] when Catalog.mem_collection t.catalog ~source coll ->
    Option.map
      (fun f -> Value.Vnum f)
      (extent_stat (Catalog.extent_stats t.catalog ~source coll) stat)
  | [ coll; attr; stat ] when Catalog.mem_collection t.catalog ~source coll ->
    let st = Catalog.attribute_stats t.catalog ~source ~collection:coll attr in
    attr_stat_value (Derive.of_catalog_attr st) stat
  | _ -> None

(* --- Wrapper parameters and functions ----------------------------------- *)

(* Evaluation context for [let] bindings: other lets, catalog statistics of
   the same source, pure builtins and the source's own [def]s. *)
let rec let_ctx t ~source : Compile.ctx =
  { Compile.resolve_ref =
      (fun path ->
        match path with
        | [ x ] ->
          (match lookup_let t ~source x with
           | Some v -> v
           | None ->
             (match catalog_path t ~source path with
              | Some v -> v
              | None -> raise (Err.Eval_error (Fmt.str "unbound name %S in let" x))))
        | _ ->
          (match catalog_path t ~source path with
           | Some v -> v
           | None ->
             raise
               (Err.Eval_error
                  (Fmt.str "cannot resolve path %S in let" (String.concat "." path)))))
    ;
    call =
      (fun name args ->
        match lookup_def t ~source name with
        | Some d -> Compile.apply_def d (let_ctx t ~source) args
        | None ->
          (match Builtins.find name with
           | Some f -> f args
           | None -> raise (Err.Eval_error (Fmt.str "unknown function %S in let" name))))
  }

and lookup_let t ~source name : Value.t option =
  let e = entry t source in
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt e.let_cache name) with
  | Some v -> Some v
  | None ->
    (match List.assoc_opt name e.lets with
     | None -> None
     | Some compiled ->
       (* computed outside the lock: let bodies may reference other lets
          (re-entering this function), and a racing duplicate computation
          yields the same value within a generation *)
       let v = compiled (let_ctx t ~source) in
       Mutex.protect t.lock (fun () -> Hashtbl.replace e.let_cache name v);
       Some v)

and lookup_def t ~source name : Compile.def option =
  List.assoc_opt name (entry t source).defs

(* A let of [source], falling back to the default model's parameters so that
   wrapper rules may reference generic coefficients such as [IO]. *)
let lookup_let_or_default t ~source name =
  match lookup_let t ~source name with
  | Some v -> Some v
  | None -> if String.equal source default_source then None else lookup_let t ~source:default_source name

let lookup_def_or_default t ~source name =
  match lookup_def t ~source name with
  | Some v -> Some v
  | None -> if String.equal source default_source then None else lookup_def t ~source:default_source name

(* --- Registration -------------------------------------------------------- *)

(* Compile a rule body: each formula becomes a closure tree once, here
   (paper §2.4), into the array estimation indexes; estimation only runs the
   closures. *)
let compile_body body =
  Array.of_list (List.map (fun (tgt, e) -> (tgt, Compile.compile e)) body)

let fresh_ids t =
  let id = t.next_id and order = t.next_order in
  t.next_id <- id + 1;
  t.next_order <- order + 1;
  (id, order)

(* Compile and add one rule. [scope_override] forces the scope (used for the
   generic model's Default scope); otherwise the rule is classified per the
   paper's hierarchy. *)
let add_rule ?interface_of ?scope_override t ~source (r : Ast.rule) =
  let local = String.equal source mediator_source in
  let scope =
    match scope_override with
    | Some s -> s
    | None -> Rule.classify ?interface_of ~local r.Ast.head
  in
  let id, order = fresh_ids t in
  (* interface inheritance: a rule attached to (or naming) a sub-interface is
     more specific than one on its parent, by the inheritance depth *)
  let depth_of name = Catalog.inheritance_depth t.catalog ~source name in
  let depth =
    let named = Rule.head_collection_literals r.Ast.head in
    let named = match interface_of with Some i -> i :: named | None -> named in
    List.fold_left (fun acc n -> max acc (depth_of n)) 0 named
  in
  let c0, c1, c2, c3 = Rule.specificity_of_head r.Ast.head in
  let compiled =
    { Rule.id;
      scope;
      source;
      kind = Rule.Pattern r.Ast.head;
      body = compile_body r.Ast.body;
      provides = Ast.rule_provides r;
      specificity = (c0 + depth, c1, c2, c3);
      order;
      ast = Some r }
  in
  (entry t source).rules <- compiled :: (entry t source).rules;
  invalidate t;
  compiled

(* Install a query-scope rule recording measured costs for one exact subplan
   (historical costs, §4.3.1). *)
let add_query_rule t ~source (plan : Disco_algebra.Plan.t)
    (vars : (Ast.cost_var * float) list) =
  let id, order = fresh_ids t in
  let compiled =
    { Rule.id;
      scope = Scope.Query;
      source;
      kind = Rule.Exact plan;
      body = compile_body (List.map (fun (v, x) -> (Ast.Cost v, Ast.Num x)) vars);
      provides = List.map fst vars;
      specificity = (max_int, 0, 0, 0);
      order;
      ast = None }
  in
  (entry t source).rules <- compiled :: (entry t source).rules;
  invalidate t;
  compiled

let remove_query_rules t ~source =
  let e = entry t source in
  e.rules <-
    List.filter (fun (r : Rule.t) -> r.Rule.scope <> Scope.Query) e.rules;
  invalidate t

(* --- ADT operation costs (paper §7) -------------------------------------- *)

let register_adt t ~name ~cost_ms ~selectivity =
  Hashtbl.replace t.adt_costs name cost_ms;
  Hashtbl.replace t.adt_sels name selectivity;
  bump t

let adt_cost t name = Hashtbl.find_opt t.adt_costs name
let adt_selectivity t name = Hashtbl.find_opt t.adt_sels name

(* Harvest [AdtCost_*] / [AdtSel_*] parameters from a source's lets into the
   global ADT tables (they must be visible to the mediator's local rules and
   to selectivity estimation, not just to the exporting source). *)
let harvest_adt_lets t ~source (decl : Ast.source_decl) =
  let prefixed prefix name =
    let pl = String.length prefix in
    if String.length name > pl && String.sub name 0 pl = prefix then
      Some (String.sub name pl (String.length name - pl))
    else None
  in
  List.iter
    (function
      | Ast.Let (name, _) ->
        let value () =
          match lookup_let t ~source name with
          | Some v -> Value.to_num v
          | None -> raise (Err.Eval_error ("unresolved let " ^ name))
        in
        (match prefixed "AdtCost_" name with
         | Some fn -> Hashtbl.replace t.adt_costs fn (value ())
         | None ->
           (match prefixed "AdtSel_" name with
            | Some fn -> Hashtbl.replace t.adt_sels fn (value ())
            | None -> ()))
      | _ -> ())
    decl.Ast.items

(* Drop everything previously registered for a source (rules, parameters,
   functions), keeping only its query-scope history. Used by re-registration
   (the paper's administrative interface, §2.1). *)
let clear_source t ~source =
  let e = entry t source in
  e.lets <- [];
  Hashtbl.reset e.let_cache;
  e.defs <- [];
  e.rules <- List.filter (fun (r : Rule.t) -> r.Rule.scope = Scope.Query) e.rules;
  invalidate t

(* Register everything a wrapper exported: interfaces populate the catalog,
   lets/defs/rules populate the cost store. Returns the compiled rules.
   Re-registration replaces the source's previous rules and parameters
   (refreshing out-of-date cost information, §2.1). *)
let register_source_decl ?scope_override t (decl : Ast.source_decl) =
  let source = decl.Ast.source_name in
  (match Hashtbl.find_opt t.sources source with
   | Some e when e.rules <> [] || e.lets <> [] || e.defs <> [] ->
     clear_source t ~source
   | _ -> ());
  let e = entry t source in
  let register_interface (i : Ast.interface_decl) =
    let own_attrs =
      List.filter_map
        (function Ast.Attr_decl (ty, n) -> Some (n, ty) | _ -> None)
        i.Ast.members
    in
    (* single inheritance: prepend the parent's attributes (the parent must
       be registered first — declare super-interfaces before their subs) *)
    let inherited =
      match i.Ast.iface_parent with
      | None -> []
      | Some p ->
        let entry =
          try Catalog.find_collection t.catalog ~source p
          with Err.Unknown_collection _ ->
            raise
              (Err.Eval_error
                 (Fmt.str "interface %s inherits from %s, which is not declared yet"
                    i.Ast.iface_name p))
        in
        List.map
          (fun (a : Schema.attribute) -> (a.Schema.attr_name, a.Schema.attr_type))
          entry.Catalog.schema.Schema.attributes
    in
    let attrs =
      inherited @ List.filter (fun (n, _) -> not (List.mem_assoc n inherited)) own_attrs
    in
    let schema = Schema.collection i.Ast.iface_name attrs in
    let extent =
      List.fold_left
        (fun acc -> function
          | Ast.Extent_decl { count; total; objsize } ->
            Stats.extent ~count_objects:(int_of_float count)
              ~total_size:(int_of_float total) ~object_size:(int_of_float objsize)
          | _ -> acc)
        Stats.default_extent i.Ast.members
    in
    let attr_stats =
      List.filter_map
        (function
          | Ast.Attr_stats { attr; indexed; distinct; min; max } ->
            Some
              ( attr,
                Stats.attribute ~indexed ~count_distinct:(int_of_float distinct) ~min
                  ~max () )
          | _ -> None)
        i.Ast.members
    in
    Catalog.register_collection ?parent:i.Ast.iface_parent t.catalog ~source ~schema
      ~extent ~attributes:attr_stats
  in
  (* First pass: catalog and parameters, so rules can reference them. *)
  List.iter
    (function
      | Ast.Interface i -> register_interface i
      | Ast.Let (name, expr) ->
        e.lets <- e.lets @ [ (name, Compile.compile expr) ];
        Hashtbl.reset e.let_cache
      | Ast.Def (name, params, body) ->
        e.defs <- e.defs @ [ (name, Compile.compile_def ~params body) ]
      | Ast.Capabilities ops -> Catalog.set_capabilities t.catalog ~source ops
      | Ast.Toplevel_rule _ -> ())
    decl.Ast.items;
  (* Second pass: rules (top-level and in-interface). *)
  let compiled =
    List.concat_map
      (function
        | Ast.Toplevel_rule r -> [ add_rule ?scope_override t ~source r ]
        | Ast.Interface i ->
          List.filter_map
            (function
              | Ast.Iface_rule r ->
                Some (add_rule ~interface_of:i.Ast.iface_name ?scope_override t ~source r)
              | _ -> None)
            i.Ast.members
        | Ast.Let _ | Ast.Def _ | Ast.Capabilities _ -> [])
      decl.Ast.items
  in
  harvest_adt_lets t ~source decl;
  (* lets and ADT exports change estimates even when no rule was (re)compiled
     above, so a registration always moves the generation *)
  bump t;
  compiled

(* Parse and register cost-language text for a named source. *)
let register_text ?scope_override t ~what text =
  let decl = Parser.parse_source ~what text in
  ignore (register_source_decl ?scope_override t decl);
  decl.Ast.source_name

(* --- Lookup -------------------------------------------------------------- *)

let rules_for t ~source ~operator : Rule.t list =
  (* the whole merge runs under the lock: it touches only [t.sources] and
     pure rule metadata, so holding it is cheap and keeps the lazily-filled
     [merged] table consistent under concurrent estimation *)
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.merged (source, operator) with
      | Some rs -> rs
      | None ->
        let of_source s =
          match Hashtbl.find_opt t.sources s with
          | None -> []
          | Some e ->
            List.filter (fun r -> String.equal (Rule.operator r) operator) e.rules
        in
        let all =
          if String.equal source default_source then of_source source
          else of_source source @ of_source default_source
        in
        let sorted = List.sort (fun a b -> Rule.compare_level b a) all in
        Hashtbl.replace t.merged (source, operator) sorted;
        sorted)

(* All rules matching [node], most specific first, with their bindings.
   Literal collection names in heads also match sub-interfaces (interface
   inheritance). *)
let matching t ~source (node : Disco_algebra.Plan.t) : (Rule.t * Rule.bindings) list =
  let operator = Rule.operator_of_node node in
  let is_instance (r : Disco_algebra.Plan.collection_ref) n =
    Catalog.is_instance t.catalog ~source:r.Disco_algebra.Plan.source
      r.Disco_algebra.Plan.collection n
  in
  List.filter_map
    (fun r -> Option.map (fun bs -> (r, bs)) (Rule.matches ~is_instance r node))
    (rules_for t ~source ~operator)

let rule_count t ~source = List.length (entry t source).rules

(* --- Iteration (used by the static analyzer) ----------------------------- *)

let sources t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.sources []
  |> List.sort String.compare

let source_rules t ~source =
  match Hashtbl.find_opt t.sources source with
  | None -> []
  | Some e -> List.rev e.rules  (* declaration order *)

let let_names t ~source =
  match Hashtbl.find_opt t.sources source with
  | None -> []
  | Some e -> List.map fst e.lets

let set_adjust t ~source f =
  (entry t source).adjust <- f;
  bump t
let adjust t ~source = (entry t source).adjust

let catalog t = t.catalog
