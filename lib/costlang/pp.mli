(** Pretty-printer for the cost language AST, producing concrete syntax that
    reparses to an equal AST (a property checked by the test suite). Used to
    render the registration text a wrapper ships to the mediator. *)

val expr : Format.formatter -> Ast.expr -> unit
val head : Format.formatter -> Ast.head -> unit
val target : Format.formatter -> Ast.target -> unit
val rule : Format.formatter -> Ast.rule -> unit
val item : Format.formatter -> Ast.item -> unit
val source : Format.formatter -> Ast.source_decl -> unit

val source_to_string : Ast.source_decl -> string
