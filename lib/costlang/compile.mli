(** Compilation of cost formulas, once, at registration (paper §2.4:
    rules ship as semi-compiled code, so optimization only evaluates them).

    {!rule_body} and {!let_body} decide what every name and call of a
    formula denotes, in one order of precedence; the estimator's closures,
    the static analyzer and the registration checker all read that result.
    {!compile} turns it into closures over the leaves its caller supplies.
    What is decided here is the kind of thing a name is, never a value a
    model write can change: statistics, [let] values (computed when their
    export registers) and adjustment factors are read each time a formula
    runs. *)

(** What a head variable binds to in {!Disco_core.Rule.match_head}. *)
type head_kind =
  | Koperand  (** child plan or base collection *)
  | Kattr  (** attribute name *)
  | Kconst_or_attr  (** right side of a comparison: constant or attribute *)
  | Kpred  (** whole predicate *)
  | Kname  (** source name, or attribute or group list *)

(** The statistics a path may end in: a cost variable or [ObjectSize] of an
    operand or collection; [Indexed], [CountDistinct], [Min], [Max] of an
    attribute. *)
type stat = Var of Ast.cost_var | Object_size | Indexed | Count_distinct | Min | Max

val stat : string -> stat option

type seg = string * head_kind option
(** A path segment, and its kind when it names a head variable (replaced by
    the variable's attribute or name binding when the path is read). *)

(** What a referenced name denotes, first match first. *)
type name =
  | Param of int  (** an argument of the [def] being inlined *)
  | Target of int  (** the latest earlier assignment of the body, by position *)
  | Cost_var of Ast.cost_var  (** the node's own cost variable (rules only) *)
  | Head of string * head_kind  (** a head variable used as a value *)
  | Through of string * head_kind * seg list  (** a path through a head variable *)
  | Dynamic of string
      (** any other single name, looked up when read: in a rule a [let] of
          its source, then of the default model, else the name itself; in a
          [let] a [let] of its export, else an error *)
  | Path of seg list  (** any other path: a catalog path *)

type failure =
  | Arity of int  (** the [def] takes this many arguments *)
  | Recursive  (** the [def] is already being inlined here *)
  | Too_large  (** the formula already inlines 10,000 [def] calls *)

(** A formula with every name resolved. *)
type term =
  | Num of float
  | Str of string
  | Ref of name
  | Neg of term
  | Binop of Ast.binop * term * term
  | If of term * term * term  (** three-argument [if]: one branch runs *)
  | Inline of string * term list * term
      (** a [def] call: its arguments, evaluated first, left to right, then
          its body, whose [Param i] is argument [i] and whose other names
          resolve in the caller's scope *)
  | Builtin of string * (Value.t list -> Value.t) * term list
  | Call of string * term list
      (** a context function of the caller's runtime, or an unknown name *)
  | Fail of string * failure * term list
      (** a [def] call that cannot be inlined: raises after its arguments
          (the registration check refuses an [Arity] failure) *)

(** A wrapper-defined function ([def f(x, y) = ...]), inlined at every call
    site. *)
type def = { params : string list; def_ast : Ast.expr }

val rule_body : def_of:(string -> def option) -> Ast.rule -> term array
(** Each formula of a rule body, by position, resolved in its scope: a name
    is a parameter of the [def] being inlined or an earlier target, then
    the node's cost variable, then a head variable, else {!Dynamic}; a path
    is {!Through} a head variable, else a {!Path}; a call is a
    three-argument [if], then [def_of]'s [def] (one of the rule's own
    export: a call binds no other export's), then a builtin, else a
    {!Call}. An unknown
    function, an operand used as a value or an unresolvable path still
    raise when evaluated, not here. *)

val let_body : def_of:(string -> def option) -> Ast.expr -> term
(** A [let]'s formula: no targets, cost variables or head variables. *)

val fold : ('acc -> term -> 'acc) -> 'acc -> term -> 'acc
(** Every subterm: the term, then its parts left to right, an inlined body
    after its arguments. *)

(** A compiled formula: run with the caller's two run-time values and the
    argument frame of the [def] being inlined ([[||]] outside one). *)
type ('a, 'b) t = 'a -> 'b -> Value.t array -> Value.t

type ('a, 'b) leaves = {
  name : name -> ('a, 'b) t;  (** every name but [Param] *)
  call : string -> ('a, 'b) t list -> ('a, 'b) t;  (** [Call] *)
}

val compile : ('a, 'b) leaves -> term -> ('a, 'b) t
(** Closures over a resolved formula, each leaf built once, here. Division
    by zero raises {!Disco_common.Err.Eval_error}. *)
