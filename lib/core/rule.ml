(* Compiled cost rules and rule-head matching (paper §3.3.2 and §4).

   A rule head is matched against a plan node by unification: free variables
   bind to the node's operands (children or scanned collections), attribute
   names, constants, or whole predicates; literal names must coincide with
   the node's corresponding component. Matching levels follow the paper: a
   rule is more specific when more of its head positions are literal. *)

open Disco_common
open Disco_algebra
open Disco_costlang

(* What an operand position of a head refers to at match time. *)
type operand =
  | Input of int                   (* i-th child of the node *)
  | Base of Plan.collection_ref    (* the collection scanned by a scan node *)

type binding =
  | Boperand of operand
  | Battr of string         (* unqualified attribute name *)
  | Bconst of Constant.t
  | Bpred of Pred.t
  | Bname of string         (* source name (submit), group/attr list marker *)

type bindings = (string * binding) list

type kind =
  | Pattern of Ast.head
  | Exact of Plan.t   (* query-scope rules match one subplan structurally *)

type t = {
  id : int;
  scope : Scope.t;
  owner : string;  (* owning source; "default" for the generic model *)
  kind : kind;
  body : (Ast.target * formula) array;  (* compiled at registration *)
  provides : Ast.cost_var list;
  (* Literal positions in the head: (collections, attributes, constants,
     shaped-predicate bonus); lexicographic, higher is more specific. *)
  specificity : int * int * int * int;
  order : int;  (* registration order; earlier wins ties (paper §3.3.2) *)
  ast : Ast.rule option;  (* original syntax, for explain output *)
}

(* The estimator's annotation types, beside the rules whose closures read
   them. [require] is the estimator's: rules compile before it is linked. *)
and formula = (ctx, inst) Compile.t

and ctx = {
  abort_above : float option;
  evals : int ref;
  require : ctx -> ann -> Ast.cost_var -> float;
}

and ann = {
  node : Plan.t;
  source : string;
  inputs : ann array;
  stats : Derive.t Lazy.t;
  matched : (t * bindings) list Lazy.t;
  vars : slot array;
  mutable insts : inst list;
}

and slot = Unset | Pending | Set of float * provenance

and provenance = { rule_id : int; rule_scope : Scope.t; rule_source : string }

and inst = {
  rule : t;
  bindings : bindings;
  ann : ann;
  targets : Value.t array;
  mutable next_assign : int;
}

(* The matching level of a rule: scope first, then head specificity, then
   declaration order. Sorting by [compare_level] descending puts the most
   specific rule first. *)
let compare_level a b =
  match Scope.compare a.scope b.scope with
  | 0 ->
    (match compare a.specificity b.specificity with
     | 0 -> compare b.order a.order (* earlier order = higher level *)
     | c -> c)
  | c -> c

let same_level a b =
  Scope.compare a.scope b.scope = 0 && a.specificity = b.specificity

(* --- Specificity -------------------------------------------------------- *)

let arg_literal = function Ast.Pvar _ -> 0 | Ast.Pname _ | Ast.Pconst _ -> 1

let pred_literals = function
  | Ast.Ppred_var _ -> (0, 0, 0)
  | Ast.Pcmp (l, _, r) ->
    let attr_lit = function Ast.Pname _ -> 1 | _ -> 0 in
    let const_lit = function Ast.Pconst _ -> 1 | _ -> 0 in
    (0, attr_lit l + attr_lit r, const_lit l + const_lit r)

let specificity_of_head (h : Ast.head) =
  let shaped = function Ast.Ppred_var _ -> 0 | Ast.Pcmp _ -> 1 in
  match h with
  | Ast.Hscan c -> (arg_literal c, 0, 0, 0)
  | Ast.Hselect (c, p) ->
    let _, a, v = pred_literals p in
    (arg_literal c, a, v, shaped p)
  | Ast.Hproject (c, a) | Ast.Hsort (c, a) | Ast.Haggregate (c, a) ->
    (arg_literal c, arg_literal a, 0, 0)
  | Ast.Hjoin (l, r, p) ->
    let _, a, v = pred_literals p in
    (arg_literal l + arg_literal r, a, v, shaped p)
  | Ast.Hunion (l, r) -> (arg_literal l + arg_literal r, 0, 0, 0)
  | Ast.Hdedup c -> (arg_literal c, 0, 0, 0)
  | Ast.Hsubmit (w, c) -> (arg_literal w + arg_literal c, 0, 0, 0)

(* --- Scope classification (paper §4.1) ---------------------------------- *)

(* Head collections that are literal names. *)
let head_collection_literals (h : Ast.head) =
  let lit = function Ast.Pname n -> [ n ] | _ -> [] in
  match h with
  | Ast.Hscan c | Ast.Hselect (c, _) | Ast.Hproject (c, _) | Ast.Hsort (c, _)
  | Ast.Hdedup c | Ast.Haggregate (c, _) ->
    lit c
  | Ast.Hjoin (l, r, _) | Ast.Hunion (l, r) -> lit l @ lit r
  | Ast.Hsubmit (_, c) -> lit c

let head_pred_ground (h : Ast.head) =
  let ground_arg = function Ast.Pvar _ -> false | Ast.Pname _ | Ast.Pconst _ -> true in
  match h with
  | Ast.Hselect (_, Ast.Pcmp (l, _, r)) | Ast.Hjoin (_, _, Ast.Pcmp (l, _, r)) ->
    ground_arg l && ground_arg r
  | _ -> false

(* Classify a parsed rule. [interface_of] is the enclosing interface name
   when the rule appeared inside one; [local] marks the mediator's own rule
   set. *)
let classify ?interface_of ~local (h : Ast.head) : Scope.t =
  let has_collection =
    Option.is_some interface_of || head_collection_literals h <> []
  in
  if has_collection && head_pred_ground h then Scope.Predicate
  else if has_collection then Scope.Collection
  else if local then Scope.Local
  else Scope.Wrapper

(* --- Matching ----------------------------------------------------------- *)

(* The collection a plan operand "is about": looking through operators that
   preserve the underlying extent. [select(scan(employee), p)] is an
   operation on employee, so a rule head naming [employee] matches it. *)
let rec subject (p : Plan.t) : Plan.collection_ref option =
  match p with
  | Plan.Scan r -> Some r
  | Plan.Select (c, _) | Plan.Project (c, _) | Plan.Sort (c, _) | Plan.Dedup c
  | Plan.Submit (_, c) ->
    subject c
  | Plan.Join _ | Plan.Union _ | Plan.Aggregate _ -> None

let bind (bs : bindings) var v : bindings option =
  match List.assoc_opt var bs with
  | None -> Some ((var, v) :: bs)
  | Some existing -> if existing = v then Some bs else None

(* Match an operand pattern against child [i] of the node (or, for scan
   heads, against the scanned collection). A literal name also matches
   sub-interfaces of that collection ([is_instance], interface
   inheritance). *)
let match_operand ~is_instance bs (pat : Ast.arg_pat) (op : operand)
    (plan_of : operand -> Plan.t option) =
  match pat with
  | Ast.Pvar v -> bind bs v (Boperand op)
  | Ast.Pname n ->
    let subj =
      match op with
      | Base r -> Some r
      | Input _ -> Option.bind (plan_of op) subject
    in
    (match subj with
     | Some r when is_instance r n -> Some bs
     | _ -> None)
  | Ast.Pconst _ -> None

(* Match an attribute pattern against a qualified plan attribute. Literal
   names compare against the unqualified part (rules are written with the
   wrapper's attribute names, plans carry binding-qualified names). *)
let match_attr bs (pat : Ast.arg_pat) (qattr : string) =
  let base =
    match Plan.split_attr qattr with Some (_, a) -> a | None -> qattr
  in
  match pat with
  | Ast.Pvar v -> bind bs v (Battr base)
  | Ast.Pname n ->
    let n = match Plan.split_attr n with Some (_, a) -> a | None -> n in
    if String.equal n base then Some bs else None
  | Ast.Pconst _ -> None

let match_const bs (pat : Ast.arg_pat) (c : Constant.t) =
  match pat with
  | Ast.Pvar v -> bind bs v (Bconst c)
  | Ast.Pconst pc -> if Constant.equal pc c then Some bs else None
  | Ast.Pname _ -> None

let match_pred bs (pat : Ast.pred_pat) (p : Pred.t) =
  match pat with
  | Ast.Ppred_var v -> bind bs v (Bpred p)
  | Ast.Pcmp (l, op, r) ->
    (match p with
     | Pred.Cmp (a, pop, v) when pop = op ->
       Option.bind (match_attr bs l a) (fun bs -> match_const bs r v)
     | Pred.Attr_cmp (a, pop, b) when pop = op ->
       Option.bind (match_attr bs l a) (fun bs -> match_attr bs r b)
     | _ -> None)

(* The default instance relation: plain name equality (no inheritance). *)
let name_equal (r : Plan.collection_ref) n = String.equal r.Plan.collection n

(* Match a head pattern against a node. Returns variable bindings on
   success. [is_instance] extends literal collection matching to
   sub-interfaces. *)
let match_head ?(is_instance = name_equal) (h : Ast.head) (node : Plan.t) :
    bindings option =
  let match_operand = match_operand ~is_instance in
  let children = Array.of_list (Plan.children node) in
  let plan_of = function
    | Input i -> if i < Array.length children then Some children.(i) else None
    | Base _ -> None
  in
  let input i = Input i in
  match h, node with
  | Ast.Hscan pat, Plan.Scan r -> match_operand [] pat (Base r) plan_of
  | Ast.Hselect (c, pp), Plan.Select (_, p) ->
    Option.bind (match_operand [] c (input 0) plan_of) (fun bs -> match_pred bs pp p)
  | Ast.Hproject (c, a), Plan.Project (_, attrs) ->
    Option.bind (match_operand [] c (input 0) plan_of) (fun bs ->
        match a with
        | Ast.Pvar v -> bind bs v (Bname (String.concat "," attrs))
        | _ -> Some bs)
  | Ast.Hsort (c, a), Plan.Sort (_, keys) ->
    Option.bind (match_operand [] c (input 0) plan_of) (fun bs ->
        match a with
        | Ast.Pvar v -> bind bs v (Bname (String.concat "," (List.map fst keys)))
        | _ -> Some bs)
  | Ast.Hjoin (l, r, pp), Plan.Join (_, _, p) ->
    Option.bind (match_operand [] l (input 0) plan_of) (fun bs ->
        Option.bind (match_operand bs r (input 1) plan_of) (fun bs ->
            match_pred bs pp p))
  | Ast.Hunion (l, r), Plan.Union _ ->
    Option.bind (match_operand [] l (input 0) plan_of) (fun bs ->
        match_operand bs r (input 1) plan_of)
  | Ast.Hdedup c, Plan.Dedup _ -> match_operand [] c (input 0) plan_of
  | Ast.Haggregate (c, g), Plan.Aggregate (_, agg) ->
    Option.bind (match_operand [] c (input 0) plan_of) (fun bs ->
        match g with
        | Ast.Pvar v -> bind bs v (Bname (String.concat "," agg.Plan.group_by))
        | _ -> Some bs)
  | Ast.Hsubmit (w, c), Plan.Submit (src, _) ->
    let bs =
      match w with
      | Ast.Pvar v -> bind [] v (Bname src)
      | Ast.Pname n -> if String.equal n src then Some [] else None
      | Ast.Pconst _ -> None
    in
    Option.bind bs (fun bs -> match_operand bs c (input 0) plan_of)
  | _ -> None

(* Match a compiled rule against a node. *)
let matches ?is_instance (t : t) (node : Plan.t) : bindings option =
  match t.kind with
  | Pattern h -> match_head ?is_instance h node
  | Exact p -> if Plan.equal p node then Some [] else None

let operator_of_node = function
  | Plan.Scan _ -> "scan"
  | Plan.Select _ -> "select"
  | Plan.Project _ -> "project"
  | Plan.Sort _ -> "sort"
  | Plan.Join _ -> "join"
  | Plan.Union _ -> "union"
  | Plan.Dedup _ -> "dedup"
  | Plan.Aggregate _ -> "aggregate"
  | Plan.Submit _ -> "submit"

let operator (t : t) =
  match t.kind with
  | Pattern h -> Ast.head_operator h
  | Exact p -> operator_of_node p
