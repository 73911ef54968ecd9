(* The cost evaluation algorithm (paper §4.2, Fig 11).

   The paper describes a two-phase traversal: top-down association of cost
   formulas with nodes (propagating the list of variables each child must
   compute), then bottom-up evaluation. We implement the same dataflow
   demand-driven: requesting a variable of a node selects the most specific
   matching rules providing it, and evaluating their formulas recursively
   demands exactly the referenced child variables. The two optimizations of
   §4.2 fall out: only formulas computing required variables are invoked, and
   a child whose variables are never referenced (e.g. under a query-scope
   rule with constant formulas) is never visited.

   Conflicts — several formulas for the same variable at the same matching
   level — are resolved by evaluating all of them and keeping the lowest
   value (§4.2 step 3). The branch-and-bound extension of §4.3.2 aborts the
   estimation as soon as any computed TotalTime exceeds the best complete
   plan found so far. *)

open Disco_common
open Disco_algebra
open Disco_costlang

exception Aborted

type provenance = { rule_id : int; rule_scope : Scope.t; rule_source : string }

type ctx = {
  registry : Registry.t;
  abort_above : float option;
  evals : int ref;  (* number of formula evaluations performed *)
}

type ann = {
  node : Plan.t;
  source : string;  (* source whose rules govern this node *)
  inputs : ann array;
  stats : Derive.t Lazy.t;
  matched : (Rule.t * Rule.bindings) list Lazy.t;  (* most specific first *)
  vars : (Ast.cost_var, float * provenance) Hashtbl.t;
  insts : (int, inst) Hashtbl.t;
  mutable in_progress : Ast.cost_var list;
}

(* Per-(node, rule) evaluation instance: body assignments are evaluated
   sequentially and cached, so locals (Fig 13's [CountPage]) and earlier
   results are visible to later formulas of the same body. *)
and inst = {
  rule : Rule.t;
  bindings : Rule.bindings;
  values : (string, Value.t) Hashtbl.t;
  mutable next_assign : int;
}

let make_ctx ?abort_above ?(evals = ref 0) registry = { registry; abort_above; evals }

(* --- Annotation construction (structure + derived statistics) ----------- *)

let node_source ~inherited (node : Plan.t) =
  match node with
  | Plan.Scan r -> r.Plan.source
  | Plan.Submit (src, _) -> src
  | _ -> inherited

let stats_of inputs = Array.to_list (Array.map (fun a -> Lazy.force a.stats) inputs)

(* One node over its inputs' annotations, whose variables it shares: what
   they already computed is not computed again. Its children's context is
   its own source, so [inputs] must have been built in that context. *)
let extend registry ~source (node : Plan.t) inputs : ann =
  let source = node_source ~inherited:source node in
  { node;
    source;
    inputs;
    stats = lazy (Derive.of_node (Registry.catalog registry) node (stats_of inputs));
    matched = lazy (Registry.matching registry ~source node);
    vars = Hashtbl.create 8;
    insts = Hashtbl.create 8;
    in_progress = [] }

let rec build registry ~source (node : Plan.t) : ann =
  let source = node_source ~inherited:source node in
  extend registry ~source node
    (Array.of_list (List.map (build registry ~source) (Plan.children node)))

let input_stats ann = stats_of ann.inputs

(* --- Variable computation ------------------------------------------------ *)

let rec require ctx ann (v : Ast.cost_var) : float =
  match Hashtbl.find_opt ann.vars v with
  | Some (x, _) -> x
  | None ->
    if List.mem v ann.in_progress then
      raise
        (Err.Eval_error
           (Fmt.str "circular dependency on %s at node %a" (Ast.cost_var_name v)
              Plan.pp ann.node));
    ann.in_progress <- v :: ann.in_progress;
    let result =
      Fun.protect
        ~finally:(fun () -> ann.in_progress <- List.tl ann.in_progress)
        (fun () -> compute ctx ann v)
    in
    Hashtbl.replace ann.vars v result;
    (match ctx.abort_above, v with
     | Some bound, Ast.Total_time when fst result > bound -> raise Aborted
     | _ -> ());
    fst result

(* Select the rules at the most specific matching level providing [v],
   evaluate each, keep the minimum (paper §4.2 steps 1 and 3). *)
and compute ctx ann (v : Ast.cost_var) : float * provenance =
  let provides (r : Rule.t) = List.mem v r.Rule.provides in
  let rec first_level = function
    | [] ->
      raise
        (Err.Eval_error
           (Fmt.str "no formula for %s at node %a (is the generic model registered?)"
              (Ast.cost_var_name v) Plan.pp ann.node))
    | (r, bs) :: rest ->
      if provides r then
        let same, _ =
          List.partition (fun (r', _) -> Rule.same_level r r' && provides r') rest
        in
        (r, bs) :: same
      else first_level rest
  in
  let candidates = first_level (Lazy.force ann.matched) in
  let evaluated =
    List.map
      (fun (r, bs) ->
        let x = eval_rule_var ctx ann r bs v in
        (x, { rule_id = r.Rule.id; rule_scope = r.Rule.scope; rule_source = r.Rule.source }))
      candidates
  in
  (* min-combining must prefer finite values: NaN compares false under [<],
     so a NaN produced by the first candidate (0/0, ln(0)*0 in a wrapper
     rule) would otherwise never be displaced by a later finite one *)
  List.fold_left
    (fun acc c ->
      let x = fst c and best = fst acc in
      if Float.is_nan best then if Float.is_nan x then acc else c
      else if x < best then c
      else acc)
    (List.hd evaluated) (List.tl evaluated)

(* Evaluate a rule's body up to (and including) the assignment of [v]. *)
and eval_rule_var ctx ann (rule : Rule.t) bindings (v : Ast.cost_var) : float =
  let inst =
    match Hashtbl.find_opt ann.insts rule.Rule.id with
    | Some i -> i
    | None ->
      let i =
        { rule; bindings; values = Hashtbl.create 8; next_assign = 0 }
      in
      Hashtbl.add ann.insts rule.Rule.id i;
      i
  in
  let body = rule.Rule.body in
  let wanted = Ast.cost_var_name v in
  let rec run () =
    match Hashtbl.find_opt inst.values wanted with
    | Some value -> Value.to_num value
    | None ->
      if inst.next_assign >= Array.length body then
        raise
          (Err.Eval_error
             (Fmt.str "rule #%d does not compute %s" rule.Rule.id wanted))
      else begin
        let target, compiled = body.(inst.next_assign) in
        incr ctx.evals;
        let value = compiled (eval_ctx ctx ann inst) in
        Hashtbl.replace inst.values (Ast.target_name target) value;
        inst.next_assign <- inst.next_assign + 1;
        run ()
      end
  in
  run ()

(* --- Reference resolution and context functions -------------------------- *)

and operand_ann ann (op : Rule.operand) =
  match op with
  | Rule.Input i when i < Array.length ann.inputs -> Some ann.inputs.(i)
  | Rule.Input _ | Rule.Base _ -> None

(* Resolve a statistic or cost variable of an operand: a child's computed
   variables / derived attribute statistics, or a base collection's catalog
   entries. *)
and operand_path ctx ann (op : Rule.operand) (segs : string list) : Value.t =
  let fail msg = raise (Err.Eval_error msg) in
  match op, segs with
  | Rule.Base r, [ stat ] ->
    let e =
      Disco_catalog.Catalog.extent_stats (Registry.catalog ctx.registry)
        ~source:r.Plan.source r.Plan.collection
    in
    (match Registry.extent_stat e stat with
     | Some f -> Value.Vnum f
     | None ->
       fail
         (Fmt.str "statistic %S is not available on base collection %s" stat
            r.Plan.collection))
  | Rule.Base r, [ attr; stat ] ->
    let st =
      Disco_catalog.Catalog.attribute_stats (Registry.catalog ctx.registry)
        ~source:r.Plan.source ~collection:r.Plan.collection attr
    in
    (match Registry.attr_stat_value (Derive.of_catalog_attr st) stat with
     | Some v -> v
     | None -> fail (Fmt.str "unknown attribute statistic %S" stat))
  | Rule.Input _, [ stat ] ->
    (match operand_ann ann op with
     | None -> fail "operand out of range"
     | Some child ->
       (match Ast.cost_var_of_name stat with
        | Some cv -> Value.Vnum (require ctx child cv)
        | None ->
          (match stat with
           | "ObjectSize" ->
             let total = require ctx child Ast.Total_size in
             let count = require ctx child Ast.Count_object in
             Value.Vnum (total /. Float.max count 1.)
           | _ -> fail (Fmt.str "unknown operand statistic %S" stat))))
  | Rule.Input _, [ attr; stat ] ->
    (match operand_ann ann op with
     | None -> fail "operand out of range"
     | Some child ->
       (match Derive.find_loose (Lazy.force child.stats) attr with
        | None ->
          fail (Fmt.str "attribute %S not found in operand result" attr)
        | Some s ->
          (match Registry.attr_stat_value s stat with
           | Some v -> v
           | None -> fail (Fmt.str "unknown attribute statistic %S" stat))))
  | _, _ ->
    fail (Fmt.str "cannot resolve path .%s on operand" (String.concat "." segs))

(* Substitute a path segment that is a bound head variable. *)
and subst_segment bindings seg =
  match List.assoc_opt seg bindings with
  | Some (Rule.Battr a) -> a
  | Some (Rule.Bname n) -> n
  | _ -> seg

and resolve_ref ctx ann (inst : inst) (path : string list) : Value.t =
  let bindings = inst.bindings in
  match path with
  | [] -> raise (Err.Eval_error "empty reference")
  | [ x ] ->
    (* 1. body-local / already-computed result of this rule instance *)
    (match Hashtbl.find_opt inst.values x with
     | Some v -> v
     | None ->
       (* 2. the node's own cost variable (possibly from another rule) *)
       (match Ast.cost_var_of_name x with
        | Some cv -> Value.Vnum (require ctx ann cv)
        | None ->
          (* 3. head binding *)
          (match List.assoc_opt x bindings with
           | Some (Rule.Bconst c) -> Value.Vconst c
           | Some (Rule.Battr a) -> Value.Vname a
           | Some (Rule.Bpred p) -> Value.Vpred p
           | Some (Rule.Bname n) -> Value.Vconst (Constant.String n)
           | Some (Rule.Boperand _) ->
             raise
               (Err.Eval_error
                  (Fmt.str "operand %S used as a plain value in a formula" x))
           | None ->
             (* 4. wrapper/default parameter *)
             (match
                Registry.lookup_let_or_default ctx.registry
                  ~source:inst.rule.Rule.source x
              with
              | Some v -> v
              | None ->
                (* 5. otherwise, a literal attribute/collection name used as
                   a function argument, e.g. [selectivity(salary, V)] *)
                Value.Vname x))))
  | x :: rest ->
    (match List.assoc_opt x bindings with
     | Some (Rule.Boperand op) ->
       operand_path ctx ann op (List.map (subst_segment bindings) rest)
     | Some (Rule.Battr a) ->
       (* A.Stat: statistic of a bound attribute, searched in the inputs *)
       let stats = input_stats ann in
       (match
          List.fold_left
            (fun acc s ->
              match acc with Some _ -> acc | None -> Derive.find_loose s a)
            None stats
        with
        | Some s ->
          (match Registry.attr_stat_value s (String.concat "." rest) with
           | Some v -> v
           | None ->
             raise
               (Err.Eval_error
                  (Fmt.str "unknown statistic %S of attribute %S"
                     (String.concat "." rest) a)))
        | None ->
          raise (Err.Eval_error (Fmt.str "attribute %S not found in inputs" a)))
     | _ ->
       (* literal collection name resolved against the node's source *)
       let path = x :: List.map (subst_segment bindings) rest in
       (match Registry.catalog_path ctx.registry ~source:ann.source path with
        | Some v -> v
        | None ->
          (match
             Registry.catalog_path ctx.registry ~source:inst.rule.Rule.source path
           with
           | Some v -> v
           | None ->
             raise
               (Err.Eval_error
                  (Fmt.str "cannot resolve %S" (String.concat "." path))))))

(* Context functions: these need the node's inputs or the registry, so they
   live here rather than in [Builtins]. *)
and context_call ctx ann name (args : Value.t list) : Value.t option =
  let stats () = input_stats ann in
  let apply_sel fn = Registry.adt_selectivity ctx.registry fn in
  match name, args with
  | "sel", [ Value.Vpred p ] ->
    let s = Selest.of_pred ~apply_sel (stats ()) p in
    (* feedback-driven correction (§4.3): exactly 1.0 when none installed,
       keeping the no-feedback path bit-identical *)
    let c = Registry.sel_fix ctx.registry ~source:ann.source p in
    let s = if c = 1.0 then s else Float.min 1. (Float.max 0. (s *. c)) in
    Some (Value.Vnum s)
  | "adtcost", [ Value.Vpred p ] ->
    (* total exported per-object cost of the ADT operations in [p];
       operations without an exported cost count as free, which is exactly
       the misestimate the export fixes (paper §7) *)
    let cost =
      List.fold_left
        (fun acc fn -> acc +. Option.value ~default:0. (Registry.adt_cost ctx.registry fn))
        0. (Pred.adt_operations p)
    in
    Some (Value.Vnum cost)
  | "selectivity", [ Value.Vname a; Value.Vconst v ] ->
    Some (Value.Vnum (Selest.of_cmp (stats ()) a Pred.Eq v))
  | "indexed", [ Value.Vpred p ] -> Some (Value.Vnum (Selest.indexed (stats ()) p))
  | "indexed", [ Value.Vname a ] ->
    let v =
      match
        List.fold_left
          (fun acc s -> match acc with Some _ -> acc | None -> Derive.find_loose s a)
          None (stats ())
      with
      | Some s when s.Derive.indexed -> 1.
      | _ -> 0.
    in
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
      if Array.length ann.inputs > 0 then require ctx ann.inputs.(0) Ast.Count_object
      else card
    in
    Some (Value.Vnum (Float.min card (Float.max input_count 1.)))
  | "adjust", [ Value.Vconst (Constant.String w) ] ->
    Some (Value.Vnum (Registry.adjust ctx.registry ~source:w))
  | _ -> None

and call_function ctx ann (inst : inst) name args : Value.t =
  (* wrapper-defined functions shadow context functions and builtins *)
  match
    Registry.lookup_def_or_default ctx.registry ~source:inst.rule.Rule.source name
  with
  | Some d -> Compile.apply_def d (eval_ctx ctx ann inst) args
  | None ->
    (match Builtins.find name with
     | Some f -> f args
     | None ->
       (match context_call ctx ann name args with
        | Some v -> v
        | None -> raise (Err.Eval_error (Fmt.str "unknown function %S" name))))

and eval_ctx ctx ann (inst : inst) : Compile.ctx =
  { Compile.resolve_ref = (fun path -> resolve_ref ctx ann inst path);
    call = (fun name args -> call_function ctx ann inst name args) }

(* --- Public API ----------------------------------------------------------- *)

(* Estimate a plan: returns the annotated tree with at least [require]d
   variables computed at the root. [source] sets the rule-lookup context of
   the root (default: the mediator; pass a wrapper name to estimate a subplan
   as the wrapper executes it). *)
let estimate ?abort_above ?evals ?(require_vars = Ast.all_cost_vars)
    ?(source = Registry.mediator_source) registry plan =
  let ctx = make_ctx ?abort_above ?evals registry in
  let ann = build registry ~source plan in
  List.iter (fun v -> ignore (require ctx ann v)) require_vars;
  ann

(* The root's computed variables, and an annotation whose root carries
   them: what a caller needs to hand out an estimate again without
   recomputing it. Below the root nothing is computed; [require] fills the
   rest on demand, with the values a fresh estimate would give while the
   model is unchanged. *)
let root_vars ann =
  List.filter_map
    (fun v -> Option.map (fun x -> (v, x)) (Hashtbl.find_opt ann.vars v))
    Ast.all_cost_vars

let build_with_root registry plan vars =
  let ann = build registry ~source:Registry.mediator_source plan in
  List.iter (fun (v, x) -> Hashtbl.replace ann.vars v x) vars;
  ann

let var ann v = Option.map fst (Hashtbl.find_opt ann.vars v)

let provenance ann v = Option.map snd (Hashtbl.find_opt ann.vars v)

let total_time ann =
  match var ann Ast.Total_time with
  | Some t -> t
  | None -> raise (Err.Eval_error "TotalTime was not computed")

let count_object ann =
  match var ann Ast.Count_object with
  | Some t -> t
  | None -> raise (Err.Eval_error "CountObject was not computed")

(* Multi-line explain report: each node with its computed variables and the
   scope/source of the rule that supplied them. *)
let report ann =
  let buf = Buffer.create 256 in
  let rec go indent a =
    let pad = String.make indent ' ' in
    let op = Rule.operator_of_node a.node in
    let detail =
      match a.node with
      | Plan.Scan r -> Fmt.str " %s.%s" r.Plan.source r.Plan.collection
      | Plan.Select (_, p) -> Fmt.str " [%a]" Pred.pp p
      | Plan.Join (_, _, p) -> Fmt.str " [%a]" Pred.pp p
      | Plan.Submit (s, _) -> Fmt.str " -> %s" s
      | _ -> ""
    in
    Buffer.add_string buf (Fmt.str "%s%s%s" pad op detail);
    let vars =
      List.filter_map
        (fun v ->
          match Hashtbl.find_opt a.vars v with
          | Some (x, p) ->
            Some
              (Fmt.str "%s=%.1f (%s)" (Ast.cost_var_name v) x
                 (Scope.to_string p.rule_scope))
          | None -> None)
        Ast.all_cost_vars
    in
    if vars <> [] then Buffer.add_string buf (" | " ^ String.concat " " vars);
    Buffer.add_char buf '\n';
    Array.iter (go (indent + 2)) a.inputs
  in
  go 0 ann;
  Buffer.contents buf
