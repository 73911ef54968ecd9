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

type provenance = Rule.provenance = {
  rule_id : int;
  rule_scope : Scope.t;
  rule_source : string;
}

type ctx = Rule.ctx = {
  abort_above : float option;
  evals : int ref;
  require : ctx -> ann -> Ast.cost_var -> float;
}

and ann = Rule.ann = {
  node : Plan.t;
  source : string;
  inputs : ann array;
  stats : Derive.t Lazy.t;
  matched : (Rule.t * Rule.bindings) list Lazy.t;
  vars : Rule.slot array;
  mutable insts : Rule.inst list;
}

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
    vars = Array.make 5 Rule.Unset;
    insts = [] }

let rec build registry ~source (node : Plan.t) : ann =
  let source = node_source ~inherited:source node in
  extend registry ~source node
    (Array.of_list (List.map (build registry ~source) (Plan.children node)))

(* --- Variable computation ------------------------------------------------ *)

(* A node's variable: computed once and kept in its slot. [Pending] is the
   cycle guard; every exit that does not set the slot clears it, because
   the search catches [Aborted] and reuses the annotation. *)
let rec require ctx ann (v : Ast.cost_var) : float =
  let i = Ast.cost_var_index v in
  match ann.vars.(i) with
  | Rule.Set (x, _) -> x
  | Rule.Pending ->
    raise
      (Err.Eval_error
         (Fmt.str "circular dependency on %s at node %a" (Ast.cost_var_name v)
            Plan.pp ann.node))
  | Rule.Unset ->
    ann.vars.(i) <- Rule.Pending;
    let x, p =
      match compute ctx ann v with
      | r -> r
      | exception e ->
        ann.vars.(i) <- Rule.Unset;
        raise e
    in
    ann.vars.(i) <- Rule.Set (x, p);
    (match ctx.abort_above, v with
     | Some bound, Ast.Total_time when x > bound -> raise Aborted
     | _ -> ());
    x

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
        (x, { rule_id = r.Rule.id; rule_scope = r.Rule.scope; rule_source = r.Rule.owner }))
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

(* Evaluate a rule's body up to the first assignment of [v], unless one is
   already evaluated: then the latest evaluated assignment is its value. *)
and eval_rule_var ctx ann (rule : Rule.t) bindings (v : Ast.cost_var) : float =
  let inst =
    match List.find_opt (fun (i : Rule.inst) -> i.Rule.rule == rule) ann.insts with
    | Some i -> i
    | None ->
      let body = rule.Rule.body in
      let i =
        { Rule.rule;
          bindings;
          ann;
          targets = Array.make (Array.length body) (Value.Vnum 0.);
          next_assign = 0 }
      in
      ann.insts <- i :: ann.insts;
      i
  in
  let body = rule.Rule.body in
  let rec assigned j =
    if j < 0 then None
    else
      match fst body.(j) with
      | Ast.Cost w when w = v -> Some j
      | _ -> assigned (j - 1)
  in
  let rec run () =
    match assigned (inst.Rule.next_assign - 1) with
    | Some j -> Value.to_num inst.Rule.targets.(j)
    | None ->
      let k = inst.Rule.next_assign in
      if k >= Array.length body then
        raise
          (Err.Eval_error
             (Fmt.str "rule #%d does not compute %s" rule.Rule.id (Ast.cost_var_name v)))
      else begin
        incr ctx.evals;
        inst.Rule.targets.(k) <- (snd body.(k)) ctx inst [||];
        inst.Rule.next_assign <- k + 1;
        run ()
      end
  in
  run ()

let make_ctx ?abort_above ?(evals = ref 0) () = { abort_above; evals; require }

(* --- Public API ----------------------------------------------------------- *)

(* Estimate a plan: returns the annotated tree with at least [require]d
   variables computed at the root. [source] sets the rule-lookup context of
   the root (default: the mediator; pass a wrapper name to estimate a subplan
   as the wrapper executes it). *)
let estimate ?abort_above ?evals ?(require_vars = Ast.all_cost_vars)
    ?(source = Registry.mediator_source) registry plan =
  let ctx = make_ctx ?abort_above ?evals () in
  let ann = build registry ~source plan in
  List.iter (fun v -> ignore (require ctx ann v)) require_vars;
  ann

(* The root's computed variables, and an annotation whose root carries
   them: what a caller needs to hand out an estimate again without
   recomputing it. Below the root nothing is computed; [require] fills the
   rest on demand, with the values a fresh estimate would give while the
   model is unchanged. *)
let slot ann v =
  match ann.vars.(Ast.cost_var_index v) with
  | Rule.Set (x, p) -> Some (x, p)
  | Rule.Unset | Rule.Pending -> None

let root_vars ann =
  List.filter_map (fun v -> Option.map (fun x -> (v, x)) (slot ann v)) Ast.all_cost_vars

let build_with_root registry plan vars =
  let ann = build registry ~source:Registry.mediator_source plan in
  List.iter (fun (v, (x, p)) -> ann.vars.(Ast.cost_var_index v) <- Rule.Set (x, p)) vars;
  ann

let var ann v = Option.map fst (slot ann v)

let provenance ann v = Option.map snd (slot ann v)

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
          match slot a v with
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
