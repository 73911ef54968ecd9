(** Static well-formedness checking of a wrapper's registration text: the
    one registration gate. The mediator runs it before anything of an
    export is installed and refuses an export with an error finding, so
    mistakes surface immediately (with a location) rather than as
    evaluation errors in the middle of optimizing a later query.

    Rules, [let]s and [def]s are checked as registration resolves them
    ({!Disco_costlang.Compile.rule_body} and [let_body], over the export's
    own defs), so a name means here what it means to the estimator.

    Errors: unbound head variables referenced in formulas (a capital-letter
    name that is no head variable, earlier target or [let]; a path through
    one that is no head variable), a call that binds to no [def] of the
    export, builtin or context function ([unknown-function]), a [def]
    called with the wrong number of arguments ([arity]), duplicate
    assignments, duplicate attributes, cardinality sections for undeclared
    attributes, parents declared after their sub-interfaces, a [def] named
    [if], a [let] defined in terms of itself ([let-cycle], counting the
    lets read through the defs it calls), and a [def] that calls itself
    directly or through other defs ([recursive-def]). A finding in a rule
    is located at its assignment; one in a [let] or [def] body (calls
    only), at the declaration. Warnings: missing extent cardinalities
    (defaults apply), unknown statistic names in paths, unknown capability
    operators, empty rule bodies. Findings carry no source, operator or
    scope. *)

open Disco_costlang

val check_rule :
  lets:string list -> defs:(string * Compile.def) list -> Ast.rule -> Finding.t list

val check_source : Ast.source_decl -> Finding.t list
(** All findings of a source declaration, errors first. *)
