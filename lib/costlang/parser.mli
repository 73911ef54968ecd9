(** Recursive-descent parser for the cost communication language. The
    concrete grammar follows Fig 9 of the paper, extended with the full
    operator set of the mediator algebra, [let]/[def] declarations, and the
    IDL-subset interface syntax of Figs 3-5 (see DESIGN.md §3).

    All entry points raise {!Disco_common.Err.Parse_error} with source
    positions on malformed input. *)

val parse_source : what:string -> string -> Ast.source_decl
(** Parse a full [source name { ... }] declaration. *)

val parse_items : what:string -> string -> Ast.item list * (string * Ast.pos) list
(** Parse a sequence of items without the [source] wrapper — a wrapper's
    rules text, or extra rules registered at runtime — with the positions
    of its [let]s and [def]s in that text, as {!parse_source}'s
    [item_pos]. *)

val parse_rule : what:string -> string -> Ast.rule
(** Parse a single [rule head { ... }]. *)

val parse_expr : what:string -> string -> Ast.expr
(** Parse a single formula expression (tests and tools). *)
