(** Compiled cost rules and rule-head matching (paper §3.3.2 and §4).

    A rule head is matched against a plan node by unification: free variables
    bind to the node's operands (children or scanned collections), attribute
    names, constants, or whole predicates; literal names must coincide with
    the node's corresponding component. A rule is more specific when more of
    its head positions are literal. *)

open Disco_common
open Disco_algebra
open Disco_costlang

(** What an operand position of a head refers to at match time. *)
type operand =
  | Input of int                 (** i-th child of the node *)
  | Base of Plan.collection_ref  (** the collection scanned by a scan node *)

type binding =
  | Boperand of operand
  | Battr of string      (** unqualified attribute name *)
  | Bconst of Constant.t
  | Bpred of Pred.t
  | Bname of string      (** source name (submit), attribute/group lists *)

type bindings = (string * binding) list

type kind =
  | Pattern of Ast.head
  | Exact of Plan.t  (** query-scope rules match one subplan structurally *)

type t = {
  id : int;
  scope : Scope.t;
  owner : string;  (** owning source; ["default"] for the generic model *)
  kind : kind;
  body : (Ast.target * formula) array;
      (** each formula compiled to closures once, at registration, in body
          order, every name already resolved ({!Compile.rule_body}) *)
  provides : Ast.cost_var list;
  specificity : int * int * int * int;
      (** literal positions: (collections, attributes, constants,
          shaped-predicate bonus); lexicographic, higher is more specific *)
  order : int;  (** registration order; earlier wins ties (paper §3.3.2) *)
  ast : Ast.rule option;  (** original syntax, for explain output *)
}

(** The estimator's annotation types ({!Disco_core.Estimator} re-exports
    them), here beside the rules whose closures read them. A formula runs
    against the estimation in progress, its rule instance and the argument
    frame of the [def] being inlined. *)
and formula = (ctx, inst) Compile.t

(** One estimation: its branch-and-bound limit, its formula-evaluation
    count, and the estimator's [require], which compiled closures call. *)
and ctx = {
  abort_above : float option;
  evals : int ref;
  require : ctx -> ann -> Ast.cost_var -> float;
}

and ann = {
  node : Plan.t;
  source : string;  (** source whose rules govern this node *)
  inputs : ann array;
  stats : Derive.t Lazy.t;  (** derived attribute statistics *)
  matched : (t * bindings) list Lazy.t;  (** most specific first *)
  vars : slot array;  (** cost variables by {!Ast.cost_var_index} *)
  mutable insts : inst list;
}

(** [Pending] is the cycle guard. *)
and slot = Unset | Pending | Set of float * provenance

and provenance = { rule_id : int; rule_scope : Scope.t; rule_source : string }

(** A rule evaluated on a node: its body's results by position, the first
    [next_assign] of them set. *)
and inst = {
  rule : t;
  bindings : bindings;
  ann : ann;
  targets : Value.t array;
  mutable next_assign : int;
}

val compare_level : t -> t -> int
(** Matching level: scope, then specificity, then declaration order (earlier
    is higher). Sorting descending puts the most specific rule first. *)

val same_level : t -> t -> bool
(** Same scope and specificity: competing rules whose formulas are all
    evaluated with the minimum kept (paper §4.2 step 3). *)

val specificity_of_head : Ast.head -> int * int * int * int

val head_collection_literals : Ast.head -> string list
(** Literal collection names appearing in a head. *)

val classify : ?interface_of:string -> local:bool -> Ast.head -> Scope.t
(** Scope of a parsed rule: inside an interface or naming a collection ->
    [Collection]; additionally with a fully ground predicate -> [Predicate];
    otherwise [Local] for the mediator's own rules, else [Wrapper]. *)

val subject : Plan.t -> Plan.collection_ref option
(** The collection a plan operand "is about", looking through operators that
    preserve the underlying extent: [select(scan(employee), p)] is an
    operation on [employee]. *)

val match_head :
  ?is_instance:(Plan.collection_ref -> string -> bool) ->
  Ast.head -> Plan.t -> bindings option
(** Unify a head pattern with a node; repeated variables must bind equal.
    [is_instance] extends literal collection matching to sub-interfaces
    (interface inheritance). *)

val matches :
  ?is_instance:(Plan.collection_ref -> string -> bool) ->
  t -> Plan.t -> bindings option
(** {!match_head} for pattern rules; structural plan equality for query-scope
    rules. *)

val operator_of_node : Plan.t -> string
val operator : t -> string
