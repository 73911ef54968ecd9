(** Static well-formedness checking of a wrapper's registration text. The
    mediator runs it during the registration phase so mistakes in an export
    surface immediately (with a location) rather than as evaluation errors in
    the middle of optimizing a later query.

    Errors: unbound head variables referenced in formulas, unknown functions,
    duplicate assignments, duplicate attributes, cardinality sections for
    undeclared attributes, parents declared after their sub-interfaces, a
    [def] named [if]. Warnings: missing extent cardinalities (defaults
    apply), unknown statistic names in paths, unknown capability operators,
    empty rule bodies. Findings carry no source, operator or scope. *)

open Disco_costlang

val check_rule : lets:string list -> defs:string list -> Ast.rule -> Finding.t list

val check_source : Ast.source_decl -> Finding.t list
(** All findings of a source declaration, errors first. *)
