(* Static well-formedness checking of a wrapper's registration text. The
   mediator runs it during the registration phase so that mistakes in a
   wrapper's export surface immediately, with a location, rather than as
   evaluation errors in the middle of optimizing some later query. *)

open Disco_costlang
open Finding

(* Statistic path tails understood by the estimator. *)
let operand_stats =
  [ "CountObject"; "TotalSize"; "ObjectSize"; "TimeFirst"; "TimeNext"; "TotalTime" ]

let attr_stats = [ "Indexed"; "CountDistinct"; "Min"; "Max" ]

(* Check one rule: variable-convention references must be bound (by the head
   or by an earlier body assignment); calls must resolve to a builtin, a
   context function or a declared [def]; duplicate assignments are errors;
   paths must end in known statistics. *)
let check_rule ~lets ~defs (r : Ast.rule) : Finding.t list =
  let where = Fmt.str "rule %a" Pp.head r.Ast.head in
  let findings = ref [] in
  (* Expression positions aren't tracked, so findings point at the
     enclosing assignment (or the rule keyword for rule-level findings). *)
  let cur_loc = ref r.Ast.rule_pos in
  let add sev tag msg =
    findings := Finding.v ?loc:!cur_loc sev tag where msg :: !findings
  in
  let bound = ref (List.map fst (Analyzer.head_kinds r.Ast.head)) in
  let is_bound name =
    List.mem name !bound || List.mem name lets
    || Option.is_some (Ast.cost_var_of_name name)
  in
  let rec check_expr (e : Ast.expr) =
    match e with
    | Ast.Num _ | Ast.Str _ -> ()
    | Ast.Neg e -> check_expr e
    | Ast.Binop (_, a, b) ->
      check_expr a;
      check_expr b
    | Ast.Call (fn, args) ->
      if
        not
          (List.mem fn defs
          || List.mem fn Builtins.context_function_names
          || Option.is_some (Builtins.find fn))
      then add Error "unknown-function" (Fmt.str "unknown function %S" fn);
      List.iter check_expr args
    | Ast.Ref [ x ] ->
      (* a bare capital-letter identifier is a variable by convention and
         must be bound; other names may be collections or attributes *)
      if Ast.is_variable_name x && not (is_bound x) then
        add Error "unbound" (Fmt.str "unbound variable %S" x)
    | Ast.Ref (x :: rest) ->
      if Ast.is_variable_name x && not (is_bound x) then
        add Error "unbound" (Fmt.str "unbound variable %S in path" x);
      (match List.rev rest with
       | last :: _
         when not (List.mem last operand_stats || List.mem last attr_stats) ->
         add Warning "unknown-statistic"
           (Fmt.str "path ends in %S, which is not a known statistic" last)
       | _ -> ())
    | Ast.Ref [] -> add Error "empty-reference" "empty reference"
  in
  let assigned = ref [] in
  List.iter
    (fun (target, e) ->
      let name =
        match target with Ast.Cost v -> Ast.cost_var_name v | Ast.Local n -> n
      in
      (cur_loc :=
         match Ast.target_pos r name with
         | Some _ as p -> p
         | None -> r.Ast.rule_pos);
      if List.mem name !assigned then
        add Error "duplicate-assignment" (Fmt.str "duplicate assignment to %S" name);
      assigned := name :: !assigned;
      check_expr e;
      bound := name :: !bound)
    r.Ast.body;
  cur_loc := r.Ast.rule_pos;
  if r.Ast.body = [] then add Warning "empty-body" "rule has an empty body";
  List.rev !findings

let check_interface ~declared (i : Ast.interface_decl) : Finding.t list =
  let where = "interface " ^ i.Ast.iface_name in
  let findings = ref [] in
  let add sev tag msg = findings := Finding.v sev tag where msg :: !findings in
  let attrs =
    List.filter_map
      (function Ast.Attr_decl (_, n) -> Some n | _ -> None)
      i.Ast.members
  in
  let rec dup = function
    | [] -> None
    | a :: rest -> if List.mem a rest then Some a else dup rest
  in
  (match dup attrs with
   | Some a -> add Error "duplicate-attribute" (Fmt.str "duplicate attribute %S" a)
   | None -> ());
  (match i.Ast.iface_parent with
   | Some p when not (List.mem p declared) ->
     add Error "undeclared-parent"
       (Fmt.str "parent interface %S is not declared before %s" p i.Ast.iface_name)
   | _ -> ());
  List.iter
    (function
      | Ast.Attr_stats { attr; _ }
        when (not (List.mem attr attrs)) && i.Ast.iface_parent = None ->
        add Error "undeclared-attribute"
          (Fmt.str "cardinality for undeclared attribute %S" attr)
      | _ -> ())
    i.Ast.members;
  if
    not
      (List.exists (function Ast.Extent_decl _ -> true | _ -> false) i.Ast.members)
  then
    add Warning "no-extent"
      "no extent cardinality exported (standard values will be used)";
  List.rev !findings

(* Check a whole source declaration. Returns all findings, errors first. *)
let check_source (s : Ast.source_decl) : Finding.t list =
  let lets =
    List.filter_map (function Ast.Let (n, _) -> Some n | _ -> None) s.Ast.items
  in
  let defs =
    List.filter_map (function Ast.Def (n, _, _) -> Some n | _ -> None) s.Ast.items
  in
  let findings = ref [] in
  let declared = ref [] in
  List.iter
    (fun item ->
      match item with
      | Ast.Interface i ->
        findings := !findings @ check_interface ~declared:!declared i;
        findings
        := !findings
           @ List.concat_map
               (function Ast.Iface_rule r -> check_rule ~lets ~defs r | _ -> [])
               i.Ast.members;
        declared := i.Ast.iface_name :: !declared
      | Ast.Toplevel_rule r -> findings := !findings @ check_rule ~lets ~defs r
      | Ast.Capabilities ops ->
        List.iter
          (fun op ->
            if not (List.mem op Analyzer.known_operators) then
              findings :=
                !findings
                @ [ Finding.v Warning "unknown-operator" "capabilities"
                      (Fmt.str "unknown operator %S" op) ])
          ops
      | Ast.Def ("if", _, _) ->
        (* [if] compiles to a conditional, so a def could not shadow it *)
        findings :=
          !findings
          @ [ Finding.v Error "reserved-name" "def if"
                "\"if\" is the conditional and cannot be redefined" ]
      | Ast.Let _ | Ast.Def _ -> ())
    s.Ast.items;
  let errors, warnings = List.partition (fun f -> f.severity = Error) !findings in
  errors @ warnings
