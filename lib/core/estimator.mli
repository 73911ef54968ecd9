(** The cost evaluation algorithm (paper §4.2, Fig 11).

    The paper describes a two-phase traversal: top-down association of cost
    formulas with nodes (propagating the list of variables each child must
    compute), then bottom-up evaluation. This implementation realizes the
    same dataflow demand-driven: requesting a variable of a node selects the
    most specific matching rules providing it, and evaluating their formulas
    recursively demands exactly the referenced child variables. The two
    optimizations of §4.2 fall out: only formulas computing required
    variables are invoked, and a child whose variables are never referenced
    (e.g. under a query-scope rule with constant formulas) is never visited.

    Conflicts — several formulas for the same variable at the same matching
    level — are resolved by evaluating all of them and keeping the lowest
    value (§4.2 step 3). The branch-and-bound extension of §4.3.2 aborts
    estimation as soon as any node's TotalTime exceeds the given bound. *)

open Disco_algebra
open Disco_costlang

exception Aborted
(** Raised when [abort_above] is exceeded (§4.3.2). *)

type provenance = Rule.provenance = {
  rule_id : int;
  rule_scope : Scope.t;
  rule_source : string;
}
(** Which rule supplied a computed variable (for explain output and the
    scope-ablation benches). *)

(** One estimation: the branch-and-bound limit, the number of formula
    evaluations performed, and {!require} itself (see {!Rule.ctx}). *)
type ctx = Rule.ctx = {
  abort_above : float option;
  evals : int ref;
  require : ctx -> ann -> Ast.cost_var -> float;
}

(** A plan node annotated with its (incrementally computed) cost variables
    (see {!Rule.ann}). *)
and ann = Rule.ann = {
  node : Plan.t;
  source : string;  (** source whose rules govern this node *)
  inputs : ann array;
  stats : Derive.t Lazy.t;  (** derived attribute statistics *)
  matched : (Rule.t * Rule.bindings) list Lazy.t;  (** most specific first *)
  vars : Rule.slot array;
  mutable insts : Rule.inst list;
}

val make_ctx : ?abort_above:float -> ?evals:int ref -> unit -> ctx

val extend : Registry.t -> source:string -> Plan.t -> ann array -> ann
(** Annotate one plan node over its inputs' annotations without computing
    anything: [inputs.(i)] is the annotation of the node's [i]th child, and
    the new node shares it, so what an input has computed is never computed
    again. [source] is the node's rule context (a [Submit] switches to the
    submitted source, a scan to its own); its children's context is the
    node's own, and [inputs] must have been built in it. *)

val build : Registry.t -> source:string -> Plan.t -> ann
(** Annotate a whole plan without computing anything: {!extend} over the
    annotations of its children, built recursively in the context each
    node gives them. [source] is the rule context of the root. *)

val require : ctx -> ann -> Ast.cost_var -> float
(** Compute (and keep in its slot) one cost variable of a node. A variable
    the node already holds is returned as it is, unchecked against the
    bound. A formula reads its rule's earlier results, the node's
    variables and its inputs' as its names were resolved at registration;
    only [let] values and catalog statistics are looked up by name. The
    slot's cycle guard is cleared on every exit, so an annotation whose
    estimation raised can be estimated again.
    @raise Aborted when the bound is exceeded
    @raise Disco_common.Err.Eval_error on formula errors or circular
    variable dependencies *)

val estimate :
  ?abort_above:float ->
  ?evals:int ref ->
  ?require_vars:Ast.cost_var list ->
  ?source:string ->
  Registry.t ->
  Plan.t ->
  ann
(** Annotate and compute the [require_vars] (default: all five) at the root.
    [source] defaults to the mediator; pass a wrapper name to estimate a
    subplan as the wrapper executes it. Every call builds a fresh
    annotation, so nothing is shared with an earlier estimate. *)

val root_vars : ann -> (Ast.cost_var * (float * provenance)) list
(** The root's computed variables with their provenance, in
    {!Ast.all_cost_vars} order. *)

val build_with_root :
  Registry.t -> Plan.t -> (Ast.cost_var * (float * provenance)) list -> ann
(** {!build} of a mediator plan whose root carries the given variables, as
    recorded by {!root_vars} from an earlier estimate of the same plan.
    Nothing below the root is computed: {!require} computes it on demand,
    exactly as a fresh estimate would while the model is unchanged. *)

val var : ann -> Ast.cost_var -> float option
(** A computed variable, if it has been demanded. *)

val provenance : ann -> Ast.cost_var -> provenance option

val total_time : ann -> float
(** @raise Disco_common.Err.Eval_error if TotalTime was not computed. *)

val count_object : ann -> float

val report : ann -> string
(** Multi-line explain report: each node with its computed variables and the
    scope of the rule that supplied them. *)
