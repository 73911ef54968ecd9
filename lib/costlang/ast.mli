(** Abstract syntax of the cost communication language (paper §3, Figs 5
    and 9).

    A wrapper exports a [source] declaration containing interface
    descriptions (an IDL subset with cardinality sections) and cost rules.
    Rules may appear inside an interface (collection scope) or at top level
    (wrapper or predicate scope). [let] binds wrapper parameters such as
    [PageSize]; [def] declares wrapper-defined functions usable in formulas
    (the paper's "ad-hoc function defined by the wrapper implementor"). *)

open Disco_common
open Disco_algebra
open Disco_catalog

(** Source location of a syntactic element, threaded from the lexer. [None]
    positions mark rules synthesized programmatically rather than parsed. *)
type pos = { line : int; col : int }

val pp_pos : Format.formatter -> pos -> unit
(** ["line:col"]. *)

type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Str of string               (** string literal, valid as a function argument *)
  | Ref of string list          (** path: [C], [C.CountObject], [Employee.salary.Min] *)
  | Neg of expr
  | Binop of binop * expr * expr
  | Call of string * expr list

(** The five result variables of the grammar in Fig 9. *)
type cost_var = Total_time | Time_first | Time_next | Count_object | Total_size

val cost_var_name : cost_var -> string
(** ["TotalTime"], ["TimeFirst"], ["TimeNext"], ["CountObject"],
    ["TotalSize"]. *)

val cost_var_of_name : string -> cost_var option

val all_cost_vars : cost_var list
(** In canonical evaluation order: statistics first, then times. *)

val cost_var_index : cost_var -> int
(** Position in {!all_cost_vars}: a node's slot for the variable. *)

(** Head argument patterns. Following the paper's examples (Fig 8:
    [select(C, A = V)] vs [scan(employee)]), an identifier is a free variable
    iff it is a single capital letter optionally followed by digits. *)
type arg_pat =
  | Pvar of string       (** free variable, binds during matching *)
  | Pname of string      (** literal collection or attribute name *)
  | Pconst of Constant.t (** literal constant in a predicate position *)

type pred_pat =
  | Ppred_var of string                   (** [select(C, P)]: any predicate *)
  | Pcmp of arg_pat * Pred.cmp * arg_pat  (** [select(C, A = V)], [join(.., A = B)] *)

type head =
  | Hscan of arg_pat
  | Hselect of arg_pat * pred_pat
  | Hproject of arg_pat * arg_pat   (** second argument binds the attribute list *)
  | Hsort of arg_pat * arg_pat
  | Hjoin of arg_pat * arg_pat * pred_pat
  | Hunion of arg_pat * arg_pat
  | Hdedup of arg_pat
  | Haggregate of arg_pat * arg_pat (** second argument binds the grouping *)
  | Hsubmit of arg_pat * arg_pat    (** [submit(W, C)] *)

val head_operator : head -> string

(** Assignment targets in a rule body. Besides the five result variables, a
    body may bind local intermediates used by later formulas — the paper's
    Fig 13 computes [CountPage] before using it in [TotalTime]. *)
type target = Cost of cost_var | Local of string

val target_of_name : string -> target

val target_name : target -> string

val head_var_names : head -> string list
(** Names bound by matching the head: the free variables of its operand,
    attribute and predicate positions. References whose first segment is one
    of these resolve through the match bindings, never statically. *)

type rule = {
  head : head;
  body : (target * expr) list;  (** declaration order; scoping is sequential *)
  rule_pos : pos option;          (** position of the [rule] keyword *)
  body_pos : (string * pos) list; (** assignment-target name -> position *)
}

val target_pos : rule -> string -> pos option
(** Position of the assignment to the named target, when parsed. *)

val erase_rule_pos : rule -> rule
(** Drop all positions. Positions don't participate in semantic identity;
    comparisons of reparsed rules should erase them first. *)

val rule_provides : rule -> cost_var list
(** Cost variables the rule has formulas for. *)

type member =
  | Attr_decl of Schema.ty * string
  | Extent_decl of { count : float; total : float; objsize : float }
  | Attr_stats of {
      attr : string;
      indexed : bool;
      distinct : float;
      min : Constant.t;
      max : Constant.t;
    }
  | Iface_rule of rule

type interface_decl = {
  iface_name : string;
  iface_parent : string option;
      (** single inheritance ([interface Manager : Employee]): the child
          interface inherits the parent's attributes, and the parent's
          collection-scope rules apply to the child unless overridden *)
  members : member list;
}

type item =
  | Let of string * expr
  | Def of string * string list * expr
  | Interface of interface_decl
  | Toplevel_rule of rule
  | Capabilities of string list
      (** operators the wrapper can execute (paper §2.1); absent = all *)

type source_decl = {
  source_name : string;
  items : item list;
  item_pos : (string * pos) list;
      (** ["let X"] or ["def f"] -> position of its keyword, when parsed *)
}

val erase_source_pos : source_decl -> source_decl
(** [erase_rule_pos] applied to every rule in the declaration, and the
    positions of its lets and defs dropped. *)

val is_variable_name : string -> bool
(** The free-variable convention: a single capital letter, optionally
    followed by digits ([C], [A], [V], [R1], ...). *)

val arg_pat_of_ident : string -> arg_pat

val rules_of_source : source_decl -> (string option * rule) list
(** All rules with the name of their enclosing interface, if any. *)
