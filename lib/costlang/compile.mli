(** Compilation of cost formulas into closures.

    This mirrors the paper's "semi-compiled bytecode" shipping (§2.4): a
    wrapper's rule text is compiled once at registration time; evaluation
    during query optimization runs the resulting closures without
    re-parsing. The compiled code is parameterized by a {!ctx} supplied by
    the mediator's estimator. *)

type ctx = {
  resolve_ref : string list -> Value.t;
      (** Resolve a reference path: head bindings, statistics, child cost
          variables, wrapper parameters... *)
  call : string -> Value.t list -> Value.t;
      (** Dispatch a function call: builtins, wrapper [def]s, and context
          functions such as [sel]. *)
}

type compiled = ctx -> Value.t

val compile : Ast.expr -> compiled
(** A three-argument [if(c, t, e)] compiles to a conditional that evaluates
    only the branch it takes, so a guard can protect a division; a [def]
    cannot shadow it. Other arities go to the builtin, which raises. *)

val eval_num : compiled -> ctx -> float
(** Evaluate and coerce to a number. *)

(** A wrapper-defined function ([def f(x, y) = ...]). [def_ast] is the
    source of [body], kept for the static analyzer's abstract interpreter,
    which evaluates calls through it. *)
type def = { params : string list; body : compiled; def_ast : Ast.expr }

val compile_def : params:string list -> Ast.expr -> def

val apply_def : def -> ctx -> Value.t list -> Value.t
(** Call a def; the parameters shadow the ambient reference resolution.
    @raise Disco_common.Err.Eval_error on arity mismatch. *)
