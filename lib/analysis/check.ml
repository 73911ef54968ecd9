(* Static well-formedness checking of a wrapper's registration text. The
   mediator runs it during the registration phase so that mistakes in a
   wrapper's export surface immediately, with a location, rather than as
   evaluation errors in the middle of optimizing some later query. *)

open Disco_costlang
open Finding

(* Every subterm of a formula but the bodies of the defs it inlines: those
   are checked at their defs. *)
let rec iter_own f (t : Compile.term) =
  f t;
  match t with
  | Compile.Num _ | Compile.Str _ | Compile.Ref _ -> ()
  | Compile.Neg a -> iter_own f a
  | Compile.Binop (_, a, b) ->
    iter_own f a;
    iter_own f b
  | Compile.If (a, b, c) -> List.iter (iter_own f) [ a; b; c ]
  | Compile.Inline (_, args, _) | Compile.Builtin (_, _, args) | Compile.Call (_, args)
  | Compile.Fail (_, _, args) ->
    List.iter (iter_own f) args

(* A call must bind to a def of the export, with as many arguments as the
   def takes, to a builtin or to a context function. *)
let check_call add (t : Compile.term) =
  match t with
  | Compile.Call (fn, _) when not (List.mem fn Builtins.context_function_names) ->
    add Error "unknown-function" (Fmt.str "unknown function %S" fn)
  | Compile.Fail (fn, Compile.Arity n, args) ->
    add Error "arity"
      (Fmt.str "def %s takes %d argument(s), called with %d" fn n (List.length args))
  | _ -> ()

(* Check one rule over its body as registration resolves it
   ([Compile.rule_body], with the export's own defs): a name of the variable
   convention must denote a head variable, an earlier target, a cost
   variable or one of the export's lets; a call must bind as [check_call]
   requires; duplicate assignments are errors; paths must end in known
   statistics. Inlined def bodies are not checked here: their calls are the
   defs'. *)
let check_rule ~lets ~defs (r : Ast.rule) : Finding.t list =
  let where = Fmt.str "rule %a" Pp.head r.Ast.head in
  let findings = ref [] in
  (* Expression positions aren't tracked, so findings point at the
     enclosing assignment (or the rule keyword for rule-level findings). *)
  let cur_loc = ref r.Ast.rule_pos in
  let add sev tag msg =
    findings := Finding.v ?loc:!cur_loc sev tag where msg :: !findings
  in
  let statistic segs =
    match List.rev segs with
    | (last, _) :: _ when Compile.stat last = None ->
      add Warning "unknown-statistic"
        (Fmt.str "path ends in %S, which is not a known statistic" last)
    | _ -> ()
  in
  let check (t : Compile.term) =
    match t with
    | Compile.Ref (Compile.Dynamic x) ->
      (* a bare capital-letter identifier is a variable by convention and
         must be bound; other names may be collections or attributes *)
      if Ast.is_variable_name x && not (List.mem x lets) then
        add Error "unbound" (Fmt.str "unbound variable %S" x)
    | Compile.Ref (Compile.Path []) -> add Error "empty-reference" "empty reference"
    | Compile.Ref (Compile.Path ((x, _) :: rest)) ->
      if Ast.is_variable_name x then
        add Error "unbound" (Fmt.str "unbound variable %S in path" x);
      statistic rest
    | Compile.Ref (Compile.Through (_, _, segs)) -> statistic segs
    | t -> check_call add t
  in
  let terms = Compile.rule_body ~def_of:(fun n -> List.assoc_opt n defs) r in
  let assigned = ref [] in
  List.iteri
    (fun j (target, _) ->
      let name = Ast.target_name target in
      (cur_loc :=
         match Ast.target_pos r name with
         | Some _ as p -> p
         | None -> r.Ast.rule_pos);
      if List.mem name !assigned then
        add Error "duplicate-assignment" (Fmt.str "duplicate assignment to %S" name);
      assigned := name :: !assigned;
      iter_own check terms.(j))
    r.Ast.body;
  cur_loc := r.Ast.rule_pos;
  if r.Ast.body = [] then add Warning "empty-body" "rule has an empty body";
  List.rev !findings

(* The lets of the export each let reads, through the defs it calls too. *)
let let_reads ~lets ~defs =
  let def_of n = List.assoc_opt n defs in
  List.map
    (fun (name, e) ->
      ( name,
        Compile.fold
          (fun acc -> function
            | Compile.Ref (Compile.Dynamic x) when List.mem_assoc x lets -> x :: acc
            | _ -> acc)
          [] (Compile.let_body ~def_of e) ))
    lets

(* A chain of reads from [target] back to itself, if there is one; each
   let is expanded once. *)
let cycle reads target =
  let seen = Hashtbl.create 8 in
  let rec from x =
    List.find_map
      (fun y ->
        if String.equal y target then Some [ y ]
        else if Hashtbl.mem seen y then None
        else (Hashtbl.add seen y (); Option.map (List.cons y) (from y)))
      (Option.value ~default:[] (List.assoc_opt x reads))
  in
  Option.map (List.cons target) (from target)

(* Whether a def reaches a call of itself: inlining a call of it meets the
   call as [Recursive]. *)
let recursive ~defs name (d : Compile.def) =
  let call = Ast.Call (name, List.map (fun _ -> Ast.Num 0.) d.Compile.params) in
  Compile.fold
    (fun found -> function
      | Compile.Fail (fn, Compile.Recursive, _) -> found || String.equal fn name
      | _ -> found)
    false
    (Compile.let_body ~def_of:(fun n -> List.assoc_opt n defs) call)

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
    List.filter_map (function Ast.Let (n, e) -> Some (n, e) | _ -> None) s.Ast.items
  in
  let defs =
    List.filter_map
      (function
        | Ast.Def (n, params, def_ast) -> Some (n, { Compile.params; def_ast })
        | _ -> None)
      s.Ast.items
  in
  let reads = let_reads ~lets ~defs in
  let located sev tag where msg =
    Finding.v ?loc:(List.assoc_opt where s.Ast.item_pos) sev tag where msg
  in
  (* the calls of a let's or def's own body, located at its declaration *)
  let body_calls where e =
    let out = ref [] in
    iter_own
      (check_call (fun sev tag msg -> out := located sev tag where msg :: !out))
      (Compile.let_body ~def_of:(fun n -> List.assoc_opt n defs) e);
    List.rev !out
  in
  let lets = List.map fst lets in
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
      | Ast.Let (name, e) ->
        (* registration keeps such a let as an error that every read
           raises; the check refuses it here, before any query reads it *)
        Option.iter
          (fun chain ->
            findings :=
              !findings
              @ [ located Error "let-cycle" ("let " ^ name)
                    (Fmt.str "let %s is defined in terms of itself: %s" name
                       (String.concat " -> " chain)) ])
          (cycle reads name);
        findings := !findings @ body_calls ("let " ^ name) e
      | Ast.Def (name, params, def_ast) ->
        if recursive ~defs name { Compile.params; def_ast } then
          findings :=
            !findings
            @ [ located Error "recursive-def" ("def " ^ name)
                  (Fmt.str "def %s calls itself, directly or through other defs" name) ];
        findings := !findings @ body_calls ("def " ^ name) def_ast)
    s.Ast.items;
  let errors, warnings = List.partition (fun f -> f.severity = Error) !findings in
  errors @ warnings
