(* Abstract syntax of the cost communication language (paper §3, Figs 5 and 9).

   A wrapper exports a [source] declaration containing interface descriptions
   (IDL subset + cardinality section) and cost rules. Rules may appear inside
   an interface (collection scope) or at top level (wrapper or predicate
   scope). [let] binds wrapper parameters such as PageSize; [def] declares
   wrapper-defined functions usable in formulas (the paper's "ad-hoc function
   defined by the wrapper implementor", e.g. selectivity with histograms). *)

open Disco_common
open Disco_algebra
open Disco_catalog

(* Source location of a syntactic element, threaded from the lexer. [None]
   positions mark rules synthesized programmatically rather than parsed. *)
type pos = { line : int; col : int }

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

type binop = Add | Sub | Mul | Div

type expr =
  | Num of float
  | Str of string                 (* string literal, only valid as an argument *)
  | Ref of string list            (* path: C, C.CountObject, Employee.salary.Min *)
  | Neg of expr
  | Binop of binop * expr * expr
  | Call of string * expr list

(* The five result variables of the grammar in Fig 9. *)
type cost_var = Total_time | Time_first | Time_next | Count_object | Total_size

let cost_var_name = function
  | Total_time -> "TotalTime"
  | Time_first -> "TimeFirst"
  | Time_next -> "TimeNext"
  | Count_object -> "CountObject"
  | Total_size -> "TotalSize"

let cost_var_of_name = function
  | "TotalTime" -> Some Total_time
  | "TimeFirst" -> Some Time_first
  | "TimeNext" -> Some Time_next
  | "CountObject" -> Some Count_object
  | "TotalSize" -> Some Total_size
  | _ -> None

let all_cost_vars = [ Total_time; Time_first; Time_next; Count_object; Total_size ]

let cost_var_index = function
  | Total_time -> 0
  | Time_first -> 1
  | Time_next -> 2
  | Count_object -> 3
  | Total_size -> 4

(* Head argument patterns. Following the paper's examples (Fig 8: [select(C,
   A = V)] vs [scan(employee)]), an identifier is a free variable iff it is a
   single capital letter optionally followed by digits; anything else is a
   literal name. *)
type arg_pat =
  | Pvar of string             (* free variable, binds during matching *)
  | Pname of string            (* literal collection or attribute name *)
  | Pconst of Constant.t       (* literal constant in predicate position *)

type pred_pat =
  | Ppred_var of string                      (* select(C, P): any predicate *)
  | Pcmp of arg_pat * Pred.cmp * arg_pat     (* select(C, A = V), join(.., A = B) *)

type head =
  | Hscan of arg_pat
  | Hselect of arg_pat * pred_pat
  | Hproject of arg_pat * arg_pat            (* second arg binds the attr list *)
  | Hsort of arg_pat * arg_pat
  | Hjoin of arg_pat * arg_pat * pred_pat
  | Hunion of arg_pat * arg_pat
  | Hdedup of arg_pat
  | Haggregate of arg_pat * arg_pat          (* second arg binds the grouping *)
  | Hsubmit of arg_pat * arg_pat             (* submit(W, C) *)

let head_operator = function
  | Hscan _ -> "scan"
  | Hselect _ -> "select"
  | Hproject _ -> "project"
  | Hsort _ -> "sort"
  | Hjoin _ -> "join"
  | Hunion _ -> "union"
  | Hdedup _ -> "dedup"
  | Haggregate _ -> "aggregate"
  | Hsubmit _ -> "submit"

(* Assignment targets in a rule body. Besides the five result variables, a
   body may bind local intermediates used by later formulas — the paper's
   Fig 13 computes [CountPage] before using it in [TotalTime]. *)
type target = Cost of cost_var | Local of string

let target_of_name name =
  match cost_var_of_name name with Some v -> Cost v | None -> Local name

let target_name = function Cost v -> cost_var_name v | Local name -> name

(* Names bound by matching a head pattern: the free variables of its operand,
   attribute and predicate positions. At evaluation time exactly these names
   resolve through the match bindings, so a formula reference whose first
   segment is one of them can never be pre-resolved at registration. *)
let head_var_names (h : head) : string list =
  let arg = function Pvar v -> [ v ] | Pname _ | Pconst _ -> [] in
  let pred = function
    | Ppred_var v -> [ v ]
    | Pcmp (l, _, r) -> arg l @ arg r
  in
  match h with
  | Hscan c | Hdedup c -> arg c
  | Hselect (c, p) -> arg c @ pred p
  | Hproject (c, a) | Hsort (c, a) | Haggregate (c, a) | Hsubmit (c, a)
  | Hunion (c, a) ->
    arg c @ arg a
  | Hjoin (l, r, p) -> arg l @ arg r @ pred p

type rule = {
  head : head;
  body : (target * expr) list;  (* in declaration order; scoping is sequential *)
  rule_pos : pos option;          (* position of the [rule] keyword *)
  body_pos : (string * pos) list; (* assignment-target name -> position *)
}

let target_pos r name = List.assoc_opt name r.body_pos

(* Positions don't participate in semantic identity: two parses of the same
   text at different offsets denote the same rule. Comparisons (pp/parse
   round-trips, differential tests) go through the erasers below. *)
let erase_rule_pos r = { r with rule_pos = None; body_pos = [] }

(* Cost variables a rule provides formulas for. *)
let rule_provides r =
  List.filter_map (function Cost v, _ -> Some v | Local _, _ -> None) r.body

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
  iface_parent : string option;  (* single inheritance: [interface B : A] *)
  members : member list;
}

type item =
  | Let of string * expr
  | Def of string * string list * expr
  | Interface of interface_decl
  | Toplevel_rule of rule
  | Capabilities of string list
      (* operators the wrapper can execute (paper §2.1); absent = all *)

type source_decl = {
  source_name : string;
  items : item list;
  item_pos : (string * pos) list;  (* "let X" / "def f" -> position *)
}

let erase_source_pos (s : source_decl) =
  let member = function
    | Iface_rule r -> Iface_rule (erase_rule_pos r)
    | m -> m
  in
  let item = function
    | Interface i -> Interface { i with members = List.map member i.members }
    | Toplevel_rule r -> Toplevel_rule (erase_rule_pos r)
    | it -> it
  in
  { s with items = List.map item s.items; item_pos = [] }

(* Free-variable convention: single capital letter, optional digits. *)
let is_variable_name s =
  String.length s >= 1
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  && (String.length s = 1
      || String.for_all (fun c -> c >= '0' && c <= '9')
           (String.sub s 1 (String.length s - 1)))

let arg_pat_of_ident s = if is_variable_name s then Pvar s else Pname s

(* Syntactic helpers for building rules programmatically (used by tests). *)
let rules_of_source (s : source_decl) : (string option * rule) list =
  List.concat_map
    (function
      | Toplevel_rule r -> [ (None, r) ]
      | Interface i ->
        List.filter_map
          (function Iface_rule r -> Some (Some i.iface_name, r) | _ -> None)
          i.members
      | Let _ | Def _ | Capabilities _ -> [])
    s.items
