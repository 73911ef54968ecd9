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
open Disco_algebra
open Disco_catalog
open Disco_costlang

let default_source = "default"
let mediator_source = "mediator"

(* A [let] of an export, evaluated once when the export registers. *)
type param = { name : string; value : (Value.t, exn) result; pos : Ast.pos option }

type source_entry = {
  (* the installed export's lets and defs, in declaration order: replaced
     whole, together with its rules, by a registration and never written in
     place, so a formula reads them without the lock *)
  mutable lets : param list;
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
  (* the entries of the installed exports, the latest installed first; the
     list is replaced whole, so ADT lookups read it without the lock *)
  mutable exports : source_entry list;
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
     change an estimate (an export's installation, once; a rule added or
     removed; a calibration/history adjustment). Caches of estimation
     results are valid only while the generation they were computed under
     is still current. *)
  mutable generation : int;
  (* monotonic stamp of everything an estimate reads: moves with every
     generation bump and with every selectivity-correction write, which
     leaves the generation alone *)
  mutable revision : int;
  (* guards the query-time lazily-filled tables ([merged], on-demand
     [sources] entries) and the selectivity corrections, so two estimations
     running at once cannot corrupt a Hashtbl mid-resize. The server
     estimates one query at a time today (under its exec lock); concurrent
     queries will not, and test_core's registry hammer estimates from four
     domains. Held only across the table operations themselves, never
     across formula evaluation. A formula reads its source's [let] values
     without it (each entry's [lets] is replaced whole, never written in
     place), and finds its defs and builtins without it: they are bound
     when the formula is compiled. *)
  lock : Mutex.t;
}

let create catalog =
  { catalog;
    sources = Hashtbl.create 16;
    merged = Hashtbl.create 64;
    exports = [];
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

(* --- Statistics and wrapper parameters ------------------------------------ *)

let fail fmt = Fmt.kstr (fun msg -> raise (Err.Eval_error msg)) fmt

let extent_stat (e : Stats.extent) name =
  match Compile.stat name with
  | Some (Compile.Var Ast.Count_object) -> Some (float_of_int e.Stats.count_objects)
  | Some (Compile.Var Ast.Total_size) -> Some (float_of_int e.Stats.total_size)
  | Some Compile.Object_size -> Some (float_of_int e.Stats.object_size)
  | _ -> None

let attr_stat_value (s : Derive.attr_stat) name =
  match Compile.stat name with
  | Some Compile.Indexed -> Some (Value.Vnum (if s.Derive.indexed then 1. else 0.))
  | Some Compile.Count_distinct -> Some (Value.Vnum s.Derive.distinct)
  | Some Compile.Min -> Some (Value.Vconst s.Derive.min)
  | Some Compile.Max -> Some (Value.Vconst s.Derive.max)
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

(* The value of the let of that name among [params]; a let whose
   evaluation raised raises that error again. *)
let rec let_value (params : param list) name =
  match params with
  | [] -> None
  | p :: rest ->
    if String.equal p.name name then (match p.value with Ok v -> Some v | Error exn -> raise exn)
    else let_value rest name

(* The let a rule of [source] reads by a name: its source's, then the
   default model's, so wrapper rules may reference generic coefficients such
   as [IO]. The entries are found once, when [lookup_let t ~source] is
   applied; each read is then a list lookup, without the lock. *)
let lookup_let t ~source =
  let own = entry t source and dflt = entry t default_source in
  fun name ->
    match let_value own.lets name with
    | Some v -> Some v
    | None -> if own == dflt then None else let_value dflt.lets name

(* The def a formula of [source] calls by [name]: its own export's. *)
let def_of t ~source =
  let e = entry t source in
  fun name -> List.assoc_opt name e.defs

(* --- ADT operation costs (paper §7) -------------------------------------- *)

(* An ADT operation's parameter as the installed exports declare it, as
   [let AdtCost_<fn>] / [let AdtSel_<fn>]: the latest installed export's
   when several do. One whose evaluation raised raises that error. *)
let adt_param t prefix fn =
  let name = prefix ^ fn in
  let rec declared = function
    | [] -> None
    | e :: rest ->
      (match let_value e.lets name with
       | Some v -> Some (Value.to_num v)
       | None -> declared rest)
  in
  declared t.exports

let adt_cost t fn = adt_param t "AdtCost_" fn
let adt_selectivity t fn = adt_param t "AdtSel_" fn

let set_adjust t ~source f =
  (entry t source).adjust <- f;
  bump t
let adjust t ~source = (entry t source).adjust

(* --- What compiled formulas read ------------------------------------------ *)

let input_stats (ann : Rule.ann) =
  Array.to_list (Array.map (fun (a : Rule.ann) -> Lazy.force a.Rule.stats) ann.Rule.inputs)

let find_in_inputs ann a =
  List.fold_left
    (fun acc s -> match acc with Some _ -> acc | None -> Derive.find_loose s a)
    None (input_stats ann)

(* A statistic or cost variable of an operand: a child's computed variables
   and derived attribute statistics, or a base collection's catalog
   entries. *)
let operand_path t (ctx : Rule.ctx) (ann : Rule.ann) (op : Rule.operand) segs =
  match op, segs with
  | Rule.Base r, _ ->
    (match catalog_path t ~source:r.Plan.source (r.Plan.collection :: segs) with
     | Some v -> v
     | None ->
       fail "cannot resolve .%s on base collection %s" (String.concat "." segs)
         r.Plan.collection)
  | Rule.Input i, ([ _ ] | [ _; _ ]) when i >= Array.length ann.Rule.inputs ->
    fail "operand out of range"
  | Rule.Input i, [ stat ] ->
    let child = ann.Rule.inputs.(i) in
    (match Compile.stat stat with
     | Some (Compile.Var cv) -> Value.Vnum (ctx.Rule.require ctx child cv)
     | Some Compile.Object_size ->
       let total = ctx.Rule.require ctx child Ast.Total_size in
       let count = ctx.Rule.require ctx child Ast.Count_object in
       Value.Vnum (total /. Float.max count 1.)
     | _ -> fail "unknown operand statistic %S" stat)
  | Rule.Input i, [ attr; stat ] ->
    (match Derive.find_loose (Lazy.force ann.Rule.inputs.(i).Rule.stats) attr with
     | None -> fail "attribute %S not found in operand result" attr
     | Some s ->
       (match attr_stat_value s stat with
        | Some v -> v
        | None -> fail "unknown attribute statistic %S" stat))
  | _, _ -> fail "cannot resolve path .%s on operand" (String.concat "." segs)

(* A path's segments as read: a head variable among them is replaced by its
   attribute or name binding. *)
let subst bindings (segs : Compile.seg list) =
  List.map
    (fun (s, k) ->
      match k, List.assoc_opt s bindings with
      | Some _, Some (Rule.Battr a) -> a
      | Some _, Some (Rule.Bname n) -> n
      | _ -> s)
    segs

(* A literal catalog path, against the node's source and then the rule's. *)
let literal_path t ~source (ann : Rule.ann) path =
  match catalog_path t ~source:ann.Rule.source path with
  | Some v -> v
  | None ->
    (match catalog_path t ~source path with
     | Some v -> v
     | None -> fail "cannot resolve %S" (String.concat "." path))

(* Context functions: what a formula reads of the node's inputs or of the
   registry. [None]: no function of that name takes these arguments. *)
let context_call t (ctx : Rule.ctx) (ann : Rule.ann) name (args : Value.t list) :
    Value.t option =
  let stats () = input_stats ann in
  match name, args with
  | "sel", [ Value.Vpred p ] ->
    let s = Selest.of_pred ~apply_sel:(adt_selectivity t) (stats ()) p in
    (* feedback-driven correction (§4.3): exactly 1.0 when none installed,
       keeping the no-feedback path bit-identical *)
    let c = sel_fix t ~source:ann.Rule.source p in
    let s = if c = 1.0 then s else Float.min 1. (Float.max 0. (s *. c)) in
    Some (Value.Vnum s)
  | "adtcost", [ Value.Vpred p ] ->
    (* total exported per-object cost of the ADT operations in [p];
       operations without an exported cost count as free, which is exactly
       the misestimate the export fixes (paper §7) *)
    let cost =
      List.fold_left
        (fun acc fn -> acc +. Option.value ~default:0. (adt_cost t fn))
        0. (Pred.adt_operations p)
    in
    Some (Value.Vnum cost)
  | "selectivity", [ Value.Vname a; Value.Vconst v ] ->
    Some (Value.Vnum (Selest.of_cmp (stats ()) a Pred.Eq v))
  | "indexed", [ Value.Vpred p ] -> Some (Value.Vnum (Selest.indexed (stats ()) p))
  | "indexed", [ Value.Vname a ] ->
    let v = match find_in_inputs ann a with Some s when s.Derive.indexed -> 1. | _ -> 0. in
    Some (Value.Vnum v)
  | "rindexed", [ Value.Vpred p ] -> Some (Value.Vnum (Selest.rindexed (stats ()) p))
  | "nnames", [ Value.Vconst (Constant.String s) ] ->
    let n = if String.length s = 0 then 0 else List.length (String.split_on_char ',' s) in
    Some (Value.Vnum (float_of_int n))
  | "groupcard", [ Value.Vconst (Constant.String s) ] ->
    let names = if String.length s = 0 then [] else String.split_on_char ',' s in
    let first = match stats () with st :: _ -> st | [] -> [] in
    let card =
      List.fold_left
        (fun acc a ->
          match Derive.find_loose first a with
          | Some st -> acc *. Float.max st.Derive.distinct 1.
          | None -> acc *. 10.)
        1. names
    in
    let input_count =
      if Array.length ann.Rule.inputs > 0 then
        ctx.Rule.require ctx ann.Rule.inputs.(0) Ast.Count_object
      else card
    in
    Some (Value.Vnum (Float.min card (Float.max input_count 1.)))
  | "adjust", [ Value.Vconst (Constant.String w) ] ->
    Some (Value.Vnum (adjust t ~source:w))
  | _ -> None

let evaluate_all args a b f = List.iter (fun c -> ignore (c a b f)) args

(* What a rule formula of [source] reads: each resolved name becomes one
   closure here. Only the dynamic tail ([let]s, catalog paths) still looks
   a name up when it runs. *)
let rule_leaves t ~source : (Rule.ctx, Rule.inst) Compile.leaves =
  let value_of x = function
    | Rule.Bconst c -> Value.Vconst c
    | Rule.Battr a -> Value.Vname a
    | Rule.Bpred p -> Value.Vpred p
    | Rule.Bname n -> Value.Vconst (Constant.String n)
    | Rule.Boperand _ -> fail "operand %S used as a plain value in a formula" x
  in
  { Compile.name =
      (function
        | Compile.Target j -> fun _ inst _ -> inst.Rule.targets.(j)
        | Compile.Cost_var v ->
          fun ctx inst _ -> Value.Vnum (ctx.Rule.require ctx inst.Rule.ann v)
        | Compile.Head (x, _) -> fun _ inst _ -> value_of x (List.assoc x inst.Rule.bindings)
        | Compile.Through (x, _, segs) ->
          let stat = String.concat "." (List.map fst segs) in
          fun ctx inst _ ->
            let bindings = inst.Rule.bindings and ann = inst.Rule.ann in
            (match List.assoc x bindings with
             | Rule.Boperand op -> operand_path t ctx ann op (subst bindings segs)
             | Rule.Battr a ->
               (* A.Stat: statistic of a bound attribute, searched in the inputs *)
               (match find_in_inputs ann a with
                | Some s ->
                  (match attr_stat_value s stat with
                   | Some v -> v
                   | None -> fail "unknown statistic %S of attribute %S" stat a)
                | None -> fail "attribute %S not found in inputs" a)
             | _ -> literal_path t ~source ann (x :: subst bindings segs))
        | Compile.Dynamic x ->
          let find = lookup_let t ~source in
          fun _ _ _ -> (match find x with Some v -> v | None -> Value.Vname x)
        | Compile.Path segs ->
          fun _ inst _ -> literal_path t ~source inst.Rule.ann (subst inst.Rule.bindings segs)
        | Compile.Param _ -> invalid_arg "Registry.rule_leaves: Param");
    call =
      (fun fn args ->
        if List.mem fn Builtins.context_function_names then fun ctx inst f ->
          match context_call t ctx inst.Rule.ann fn (List.map (fun c -> c ctx inst f) args) with
          | Some v -> v
          | None -> fail "unknown function %S" fn
        else fun a b f ->
          evaluate_all args a b f;
          fail "unknown function %S" fn) }

(* Every let of an export, evaluated once, in declaration order; a let
   read by another is evaluated on demand. A let reads other lets of its
   export and its source's catalog paths, and calls builtins and its
   export's defs. [chain] is the lets an evaluation is computing, so a let
   that reads itself (directly, or through other lets and the defs they
   call) raises instead of recursing. A let whose evaluation raises keeps
   that error. *)
let evaluate_lets t ~source ~def_of (decl : Ast.source_decl) : param list =
  let lets = List.filter_map (function Ast.Let (n, e) -> Some (n, e) | _ -> None) decl.Ast.items in
  let values = Hashtbl.create 8 in
  let rec read chain name =
    match Hashtbl.find_opt values name, List.assoc_opt name lets with
    | (Some _ as r), _ | r, None -> r
    | None, Some expr ->
      if List.mem name chain then fail "let %s is defined in terms of itself" name;
      let r =
        match Compile.compile leaves (Compile.let_body ~def_of expr) (name :: chain) () [||] with
        | v -> Ok v
        | exception exn -> Error exn
      in
      Hashtbl.replace values name r;
      Some r
  and leaves : (string list, unit) Compile.leaves =
    { Compile.name =
        (function
          | Compile.Dynamic x ->
            fun chain () _ ->
              (match read chain x with
               | Some (Ok v) -> v
               | Some (Error exn) -> raise exn
               | None -> fail "unbound name %S in let" x)
          | Compile.Path segs ->
            let path = List.map fst segs in
            fun _ () _ ->
              (match catalog_path t ~source path with
               | Some v -> v
               | None -> fail "cannot resolve path %S in let" (String.concat "." path))
          | _ -> invalid_arg "Registry.evaluate_lets: a let has no targets, cost variables or head");
      call =
        (fun fn args a b f ->
          evaluate_all args a b f;
          fail "unknown function %S in let" fn) }
  in
  List.map
    (fun (name, _) ->
      { name;
        value = Option.get (read [] name);
        pos = List.assoc_opt ("let " ^ name) decl.Ast.item_pos })
    lets

(* --- Registration -------------------------------------------------------- *)

(* Compile a rule body: each formula is resolved and becomes a closure tree
   once, here (paper §2.4), into the array estimation indexes; estimation
   only runs the closures. Its calls bind to [def_of]'s defs. *)
let compile_body t ~source ~def_of (r : Ast.rule) =
  let leaves = rule_leaves t ~source in
  let terms = Compile.rule_body ~def_of r in
  Array.of_list (List.mapi (fun i (tgt, _) -> (tgt, Compile.compile leaves terms.(i))) r.Ast.body)

let fresh_ids t =
  let id = t.next_id and order = t.next_order in
  t.next_id <- id + 1;
  t.next_order <- order + 1;
  (id, order)

(* Compile one rule of [source], without installing it. [scope_override]
   forces the scope (used for the generic model's Default scope); otherwise
   the rule is classified per the paper's hierarchy. *)
let compile_rule ?interface_of ?scope_override t ~source ~def_of (r : Ast.rule) =
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
  { Rule.id;
    scope;
    owner = source;
    kind = Rule.Pattern r.Ast.head;
    body = compile_body t ~source ~def_of r;
    provides = Ast.rule_provides r;
    specificity = (c0 + depth, c1, c2, c3);
    order;
    ast = Some r }

(* Install one rule beside a source's others. *)
let push_rule t ~source (r : Rule.t) =
  let e = entry t source in
  e.rules <- r :: e.rules;
  invalidate t;
  r

let add_rule t ~source r = push_rule t ~source (compile_rule t ~source ~def_of:(def_of t ~source) r)

(* Install a query-scope rule recording measured costs for one exact subplan
   (historical costs, §4.3.1). *)
let add_query_rule t ~source (plan : Disco_algebra.Plan.t)
    (vars : (Ast.cost_var * float) list) =
  let id, order = fresh_ids t in
  push_rule t ~source
    { Rule.id;
      scope = Scope.Query;
      owner = source;
      kind = Rule.Exact plan;
      body =
        Array.of_list
          (List.map
             (fun (v, x) ->
               let x = Value.Vnum x in
               (Ast.Cost v, fun _ _ _ -> x))
             vars);
      provides = List.map fst vars;
      specificity = (max_int, 0, 0, 0);
      order;
      ast = None }

let is_query (r : Rule.t) = r.Rule.scope = Scope.Query

let remove_query_rules t ~source =
  let e = entry t source in
  e.rules <- List.filter (fun r -> not (is_query r)) e.rules;
  invalidate t

(* Register everything a wrapper exported. Its interfaces and capabilities
   go to the catalog first: its lets and its rules' specificity read them.
   Its defs, lets and rules are then built aside and installed together,
   with one generation bump, replacing the previous export's (refreshing
   out-of-date cost information, §2.1); the source keeps its query-scope
   history rules and its adjustment factor. Nothing raises once the
   catalog is written: a let whose evaluation fails keeps its error, and a
   formula that cannot run fails when it runs. Returns the compiled
   rules. *)
let register_source_decl ?scope_override t (decl : Ast.source_decl) =
  let source = decl.Ast.source_name in
  (* interface [i]'s catalog entry, given the export's earlier ones *)
  let interface_entry earlier (i : Ast.interface_decl) =
    let own_attrs =
      List.filter_map
        (function Ast.Attr_decl (ty, n) -> Some (n, ty) | _ -> None)
        i.Ast.members
    in
    (* single inheritance: prepend the parent's attributes (the parent must
       be declared earlier in the same export) *)
    let inherited =
      match i.Ast.iface_parent with
      | None -> []
      | Some p ->
        let entry =
          match List.assoc_opt p earlier with
          | Some e -> e
          | None ->
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
    let extent =
      List.fold_left
        (fun acc -> function
          | Ast.Extent_decl { count; total; objsize } ->
            Stats.extent ~count_objects:(int_of_float count)
              ~total_size:(int_of_float total) ~object_size:(int_of_float objsize)
          | _ -> acc)
        Stats.default_extent i.Ast.members
    in
    let attributes =
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
    { Catalog.schema = Schema.collection i.Ast.iface_name attrs;
      extent;
      attributes;
      parent = i.Ast.iface_parent }
  in
  (* the export's catalog entry, built aside and written whole: the latest
     interface of a name first, the last capabilities declared *)
  let collections, capabilities =
    List.fold_left
      (fun (colls, caps) -> function
        | Ast.Interface i ->
          let name = i.Ast.iface_name in
          ((name, interface_entry colls i) :: List.remove_assoc name colls, caps)
        | Ast.Capabilities ops -> (colls, Some ops)
        | Ast.Let _ | Ast.Def _ | Ast.Toplevel_rule _ -> (colls, caps))
      ([], None) decl.Ast.items
  in
  Catalog.replace_source t.catalog ~source ~collections ~capabilities;
  let defs =
    List.filter_map
      (function
        | Ast.Def (name, params, def_ast) -> Some (name, { Compile.params; def_ast })
        | _ -> None)
      decl.Ast.items
  in
  let def_of name = List.assoc_opt name defs in
  (* lets evaluate and rules compile once every def of the export is known:
     they may call a def declared after them *)
  let lets = evaluate_lets t ~source ~def_of decl in
  let compile ?interface_of r = compile_rule ?interface_of ?scope_override t ~source ~def_of r in
  let rules =
    List.concat_map
      (function
        | Ast.Toplevel_rule r -> [ compile r ]
        | Ast.Interface i ->
          List.filter_map
            (function
              | Ast.Iface_rule r -> Some (compile ~interface_of:i.Ast.iface_name r)
              | _ -> None)
            i.Ast.members
        | Ast.Let _ | Ast.Def _ | Ast.Capabilities _ -> [])
      decl.Ast.items
  in
  let e = entry t source in
  e.defs <- defs;
  e.lets <- lets;
  e.rules <- List.rev_append rules (List.filter is_query e.rules);
  t.exports <- e :: List.filter (fun x -> x != e) t.exports;
  invalidate t;
  rules

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

let lets t ~source =
  match Hashtbl.find_opt t.sources source with
  | None -> []
  | Some e -> e.lets

let catalog t = t.catalog
