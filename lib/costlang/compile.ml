(* Compilation of cost formulas into closures. This mirrors the paper's
   "semi-compiled bytecode" (§2.4): a wrapper's rule text is compiled once at
   registration time; evaluation during query optimization runs the resulting
   closures without re-parsing.

   The compiled code is parameterized by a [ctx]: the mediator provides
   reference resolution (statistics paths, child cost variables, bound head
   variables) and function dispatch (builtins, wrapper [def]s, and
   context-dependent functions such as [sel]). *)

open Disco_common

type ctx = {
  resolve_ref : string list -> Value.t;
  call : string -> Value.t list -> Value.t;
}

type compiled = ctx -> Value.t

let rec compile (e : Ast.expr) : compiled =
  match e with
  | Ast.Num f ->
    let v = Value.Vnum f in
    fun _ -> v
  | Ast.Str s ->
    let v = Value.Vconst (Constant.String s) in
    fun _ -> v
  | Ast.Ref path -> fun ctx -> ctx.resolve_ref path
  | Ast.Neg e ->
    let c = compile e in
    fun ctx -> Value.Vnum (-.Value.to_num (c ctx))
  | Ast.Binop (op, a, b) ->
    let ca = compile a and cb = compile b in
    let f =
      match op with
      | Ast.Add -> ( +. )
      | Ast.Sub -> ( -. )
      | Ast.Mul -> ( *. )
      | Ast.Div ->
        fun x y ->
          if y = 0. then raise (Err.Eval_error "division by zero in cost formula")
          else x /. y
    in
    fun ctx -> Value.Vnum (f (Value.to_num (ca ctx)) (Value.to_num (cb ctx)))
  | Ast.Call ("if", [ c; t; e ]) ->
    (* a conditional: only the branch taken is evaluated *)
    let cc = compile c and ct = compile t and ce = compile e in
    fun ctx -> if Value.to_num (cc ctx) <> 0. then ct ctx else ce ctx
  | Ast.Call (name, args) ->
    let cargs = List.map compile args in
    fun ctx -> ctx.call name (List.map (fun c -> c ctx) cargs)

let eval_num (c : compiled) ctx = Value.to_num (c ctx)

(* A wrapper-defined function ([def f(x, y) = ...]): compiled once; at call
   time the parameters shadow the ambient reference resolution. The source
   AST is kept for the static analyzer's abstract interpreter. *)
type def = { params : string list; body : compiled; def_ast : Ast.expr }

let compile_def ~params body = { params; body = compile body; def_ast = body }

let apply_def (d : def) (ctx : ctx) (args : Value.t list) : Value.t =
  if List.length args <> List.length d.params then
    raise
      (Err.Eval_error
         (Fmt.str "function expects %d arguments, got %d" (List.length d.params)
            (List.length args)));
  let bound = List.combine d.params args in
  let inner =
    { ctx with
      resolve_ref =
        (fun path ->
          match path with
          | [ x ] when List.mem_assoc x bound -> List.assoc x bound
          | _ -> ctx.resolve_ref path) }
  in
  d.body inner
