(* Whole-model static analysis of the blended cost model.

   Four passes over the registry (paper §3.3/§4: wrapper rules blended into
   the mediator's generic model through the scope hierarchy):

   - interval abstract interpretation of every rule body ({!Absint}) over
     typed variable domains — cardinalities/sizes/times in [0, inf),
     selectivities in [0, 1], [let] parameters at their registered values —
     flagging possible division by zero, NaN, negative cost results, and
     names coerced to numbers (the estimator's silent [Vname] fallback for
     undefined variables);
   - scope/shadowing analysis: pairwise head subsumption per
     (source, operator) chain reports rules that can never fire because a
     strictly more specific rule covers all their variables for every node
     shape, and same-level overlaps whose results are min-combined (Fig 11);
   - coverage analysis: for each source and operator, does the merged chain
     define all five cost variables for every node shape, and where does a
     wrapper's own export fall back to the generic model;
   - inter-variable dependency cycle detection (TotalTime -> TotalSize ->
     TotalTime through different rules), which diverges at evaluation time.

   Findings are {!Finding.t}: severity, owning source, scope, and source
   locations threaded from the lexer. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_costlang
open Disco_core
open Finding

(* --- Typed domains for rule-context references ---------------------------- *)

(* The range of a path's statistic. Times, sizes and cardinalities are
   nonnegative by the domain typing premise; [Indexed] is a 0/1 flag;
   [Min]/[Max] may be non-numeric constants. *)
let stat_domain tail =
  match Compile.stat tail with
  | Some (Compile.Var _ | Compile.Object_size | Compile.Count_distinct) ->
    Some Interval.nonneg
  | Some Compile.Indexed -> Some Interval.unit
  | Some (Compile.Min | Compile.Max) | None -> None

let aval_of_value (v : Value.t) : Absint.aval =
  match v with
  | Value.Vnum f -> Absint.Num (Interval.point f)
  | Value.Vconst c ->
    (match Constant.to_float_opt c with
     | Some f -> Absint.Num (Interval.point f)
     | None -> Absint.Name (Fmt.str "%a" Constant.pp c))
  | Value.Vname n -> Absint.Name n
  | Value.Vpred p -> Absint.Pred (Fmt.str "%a" Pred.pp p)

(* Operator names valid in rule heads and capability lists. *)
let known_operators =
  [ "scan"; "select"; "project"; "sort"; "join"; "union"; "dedup"; "aggregate";
    "submit" ]

(* --- Interval pass over one rule ------------------------------------------ *)

(* The abstract value of a resolved reference of a rule of [source]: earlier
   targets as the pass computed them, node-level cost variables, head
   bindings by kind, [let] parameters at their registered values, paths by
   their statistic's domain, and the silent [Vname] fallback (whose numeric
   use the interpreter flags). *)
let rule_resolver reg ~source ~(targets : Absint.aval array) (n : Compile.name) :
    Absint.aval =
  let by_tail segs =
    match List.rev segs with
    | (tail, _) :: _ ->
      (match stat_domain tail with Some i -> Absint.Num i | None -> Absint.Opaque)
    | [] -> Absint.Opaque
  in
  match n with
  | Compile.Target j -> targets.(j)
  | Compile.Param _ -> Absint.Opaque
  | Compile.Cost_var _ -> Absint.Num Interval.nonneg
  (* "operand used as a plain value" raises concretely; surfaces as a
     numeric-name alarm on coercion *)
  | Compile.Head (x, (Compile.Koperand | Compile.Kattr | Compile.Kname)) -> Absint.Name x
  | Compile.Head (_, Compile.Kconst_or_attr) -> Absint.Opaque
  | Compile.Head (x, Compile.Kpred) -> Absint.Pred x
  | Compile.Through (_, (Compile.Koperand | Compile.Kattr), segs) -> by_tail segs
  | Compile.Through _ -> Absint.Opaque
  | Compile.Dynamic x ->
    (match Registry.lookup_let reg ~source x with
     | Some v -> aval_of_value v
     | None -> Absint.Name x (* estimator's silent fallback *)
     | exception _ -> Absint.Opaque)
  | Compile.Path segs ->
    (* literal path against the rule owner's catalog: resolves to the
       registered statistic when the collection is known statically *)
    (match Registry.catalog_path reg ~source (List.map fst segs) with
     | Some v -> aval_of_value v
     | None -> by_tail segs
     | exception _ -> by_tail segs)

(* The interval pass over one rule body, resolved as registration compiled
   it. Sequential scoping: earlier targets' abstract values refine later
   formulas, exactly like the concrete evaluator's target slots. *)
let body_pass reg (rule : Rule.t) (ast : Ast.rule) : Finding.t list =
  let source = rule.Rule.owner in
  let operator = Rule.operator rule in
  let where = Fmt.str "rule %a" Pp.head ast.Ast.head in
  let terms = Compile.rule_body ~def_of:(Registry.def_of reg ~source) ast in
  let targets = Array.make (Array.length terms) Absint.Opaque in
  let findings = ref [] in
  let add ?loc severity tag msg =
    let f =
      Finding.v ~source ~operator ~scope:rule.Rule.scope ?loc severity tag where msg
    in
    if not (List.mem f !findings) then findings := f :: !findings
  in
  List.iteri
    (fun j (target, _) ->
      let name = Ast.target_name target in
      let loc =
        match Ast.target_pos ast name with
        | Some _ as p -> p
        | None -> ast.Ast.rule_pos
      in
      let v, alarms = Absint.eval (rule_resolver reg ~source ~targets) terms.(j) in
      List.iter
        (fun (i : Absint.alarm) ->
          match i with
          | Absint.Div_by_zero { definite } ->
            add ?loc
              (if definite then Error else Warning)
              "div-zero"
              (Fmt.str "%s in the formula for %s"
                 (if definite then "division by zero"
                  else
                    "possible division by zero (the divisor interval \
                     contains 0)")
                 name)
          | Absint.Numeric_name n ->
            add ?loc Error "non-numeric"
              (Fmt.str
                 "%S is used where a number is required in the formula for %s \
                  (undefined variables silently resolve to their own name)"
                 n name)
          | Absint.Unknown_call fn ->
            add ?loc Error "unknown-function"
              (Fmt.str "unknown function %S in the formula for %s" fn name))
        alarms;
      (match target, v with
       | Ast.Cost _, Absint.Num i ->
         if Interval.definitely_neg i then
           add ?loc Error "negative"
             (Fmt.str "%s is always negative: %a" name Interval.pp i)
         else if Interval.maybe_neg i then
           add ?loc Info "negative"
             (Fmt.str "%s may be negative: %a" name Interval.pp i);
         if i.Interval.nan then
           add ?loc Warning "nan"
             (Fmt.str "%s may evaluate to NaN: %a" name Interval.pp i)
       | Ast.Cost _, (Absint.Name n | Absint.Pred n) ->
         add ?loc Error "non-numeric"
           (Fmt.str "%s is assigned the non-numeric value %S" name n)
       | _ -> ());
      targets.(j) <- v)
    ast.Ast.body;
  List.rev !findings

(* Rules without source AST (query-scope history) have nothing to analyze. *)
let analyze_rule reg (rule : Rule.t) : Finding.t list =
  match rule.Rule.ast with None -> [] | Some ast -> body_pass reg rule ast

(* --- Let parameters ------------------------------------------------------------ *)

let has_prefix p s =
  String.length s > String.length p && String.sub s 0 (String.length p) = p

(* A let whose evaluation raised (every formula reading it raises the same
   error), and exported ADT parameters out of range. *)
let let_findings reg ~source : Finding.t list =
  List.filter_map
    (fun (p : Registry.param) ->
      let where = "let " ^ p.Registry.name in
      match p.Registry.value with
      | Error e ->
        let msg = match e with Err.Eval_error m -> m | e -> Printexc.to_string e in
        Some
          (Finding.v ~source ?loc:p.Registry.pos Error "let-error" where
             (Fmt.str "%s cannot be evaluated: %s" p.Registry.name msg))
      | Ok (Value.Vnum f) when has_prefix "AdtSel_" p.Registry.name && (f < 0. || f > 1.) ->
        Some
          (Finding.v ~source Error "selectivity-range" where
             (Fmt.str "exported ADT selectivity is %g, outside [0, 1]" f))
      | Ok (Value.Vnum f) when has_prefix "AdtCost_" p.Registry.name && f < 0. ->
        Some
          (Finding.v ~source Error "negative" where
             (Fmt.str "exported ADT cost is negative (%g)" f))
      | Ok _ -> None)
    (Registry.lets reg ~source)

(* --- Head subsumption, overlap, universality ------------------------------ *)

let unqual a =
  match String.rindex_opt a '.' with
  | Some i -> String.sub a (i + 1) (String.length a - i - 1)
  | None -> a

(* One walk over two heads, position by position, under two position
   relations. [free a_var b_var] decides a pair in which either side is a
   variable (it is told which); [operand] decides two literal operands.
   Literal attributes and constants of a predicate pattern compare
   unqualified and structurally, and a submit's source by exact name (no
   inheritance). The attribute-list positions of project/sort/aggregate
   match unconditionally (literals there are ignored by the matcher), so
   they relate nothing. *)
let heads_relate ~free ~operand a b =
  let is_var = function Ast.Pvar _ -> true | Ast.Pname _ | Ast.Pconst _ -> false in
  let pos rel x y = if is_var x || is_var y then free (is_var x) (is_var y) else rel x y in
  let lit x y =
    match x, y with
    | Ast.Pname na, Ast.Pname nb -> String.equal (unqual na) (unqual nb)
    | Ast.Pconst cx, Ast.Pconst cy -> Constant.equal cx cy
    | _ -> false
  in
  let src x y = match x, y with Ast.Pname na, Ast.Pname nb -> String.equal na nb | _ -> false in
  let is_pred_var = function Ast.Ppred_var _ -> true | Ast.Pcmp _ -> false in
  let pred p q =
    match p, q with
    | Ast.Pcmp (l, op, r), Ast.Pcmp (l', op', r') -> op = op' && pos lit l l' && pos lit r r'
    | _ -> free (is_pred_var p) (is_pred_var q)
  in
  let arg = pos operand in
  match a, b with
  | Ast.Hscan x, Ast.Hscan y | Ast.Hdedup x, Ast.Hdedup y -> arg x y
  | Ast.Hselect (c, p), Ast.Hselect (c', p') -> arg c c' && pred p p'
  | Ast.Hproject (c, _), Ast.Hproject (c', _)
  | Ast.Hsort (c, _), Ast.Hsort (c', _)
  | Ast.Haggregate (c, _), Ast.Haggregate (c', _) ->
    arg c c'
  | Ast.Hjoin (l, r, p), Ast.Hjoin (l', r', p') -> arg l l' && arg r r' && pred p p'
  | Ast.Hunion (l, r), Ast.Hunion (l', r') -> arg l l' && arg r r'
  | Ast.Hsubmit (w, c), Ast.Hsubmit (w', c') -> pos src w w' && arg c c'
  | _ -> false

(* [head_subsumes ~inst a b]: every node matched by [b] is matched by [a].
   A literal operand name matches every instance of that collection,
   including sub-interfaces; [inst child anc] is the catalog's instance
   relation. *)
let head_subsumes ~inst =
  heads_relate
    ~free:(fun a_var _ -> a_var)
    ~operand:(fun a b ->
      match a, b with
      | Ast.Pname na, Ast.Pname nb -> inst nb na
      | Ast.Pconst x, Ast.Pconst y -> Constant.equal x y
      | _ -> false)

(* [heads_overlap ~inst a b]: some node can match both. *)
let heads_overlap ~inst =
  heads_relate
    ~free:(fun _ _ -> true)
    ~operand:(fun a b ->
      match a, b with
      | Ast.Pname x, Ast.Pname y -> inst x y || inst y x
      | _ -> false (* Pconst never matches an operand *))

(* A universal head matches every node of its operator: all constraining
   positions are distinct free variables. *)
let universal_head (h : Ast.head) =
  let distinct =
    let vs = Ast.head_var_names h in
    List.length (List.sort_uniq String.compare vs) = List.length vs
  in
  distinct
  &&
  match h with
  | Ast.Hscan (Ast.Pvar _) | Ast.Hdedup (Ast.Pvar _) -> true
  | Ast.Hselect (Ast.Pvar _, Ast.Ppred_var _) -> true
  | Ast.Hproject (Ast.Pvar _, _)
  | Ast.Hsort (Ast.Pvar _, _)
  | Ast.Haggregate (Ast.Pvar _, _) ->
    true (* the attribute-list position matches unconditionally *)
  | Ast.Hjoin (Ast.Pvar _, Ast.Pvar _, Ast.Ppred_var _) -> true
  | Ast.Hunion (Ast.Pvar _, Ast.Pvar _) -> true
  | Ast.Hsubmit (Ast.Pvar _, Ast.Pvar _) -> true
  | _ -> false

(* A head position the matcher can never satisfy: a constant in an operand,
   attribute or source position. Such a rule can never fire. *)
let unmatchable_head (h : Ast.head) : string option =
  let op = function Ast.Pconst _ -> Some "a constant in an operand position" | _ -> None in
  let pred = function
    | Ast.Ppred_var _ -> None
    | Ast.Pcmp (Ast.Pconst _, _, _) ->
      Some "a constant in the attribute position of a predicate pattern"
    | Ast.Pcmp _ -> None
  in
  let first l = List.find_opt Option.is_some l |> Option.join in
  match h with
  | Ast.Hscan c | Ast.Hdedup c -> op c
  | Ast.Hselect (c, p) -> first [ op c; pred p ]
  | Ast.Hproject (c, _) | Ast.Hsort (c, _) | Ast.Haggregate (c, _) -> op c
  | Ast.Hunion (l, r) -> first [ op l; op r ]
  | Ast.Hjoin (l, r, p) -> first [ op l; op r; pred p ]
  | Ast.Hsubmit (w, c) ->
    first
      [ (match w with
         | Ast.Pconst _ -> Some "a constant in the source position of submit"
         | _ -> None);
        op c ]

(* --- Chain analyses: shadowing, ambiguity, coverage, cycles --------------- *)

let pattern_head (r : Rule.t) =
  match r.Rule.kind with Rule.Pattern h -> Some h | Rule.Exact _ -> None

let rule_where (r : Rule.t) =
  match pattern_head r with
  | Some h -> Fmt.str "rule %a" Pp.head h
  | None -> Fmt.str "rule #%d" r.Rule.id

let rule_loc (r : Rule.t) =
  Option.bind r.Rule.ast (fun a -> a.Ast.rule_pos)

(* The node's cost variables a formula reads (through the defs it calls
   too), first occurrence last: these re-enter the estimator's [require] at
   the same node and form the dependency graph for cycle detection. *)
let cost_var_deps (t : Compile.term) : Ast.cost_var list =
  Compile.fold
    (fun acc -> function
      | Compile.Ref (Compile.Cost_var v) when not (List.mem v acc) -> v :: acc
      | _ -> acc)
    [] t

let analyze_chain reg ~source ~operator : Finding.t list =
  let chain =
    Registry.rules_for reg ~source ~operator
    |> List.filter (fun r -> Option.is_some (pattern_head r))
  in
  let head_of r = Option.get (pattern_head r) in
  let cat = Registry.catalog reg in
  let inst child anc =
    String.equal child anc
    || (try Catalog.is_instance cat ~source child anc with _ -> false)
  in
  let findings = ref [] in
  let add ?loc ?rule_scope ~owner severity tag where msg =
    let f =
      Finding.v ~source:owner ~operator ?scope:rule_scope ?loc severity tag where msg
    in
    if not (List.mem f !findings) then findings := f :: !findings
  in
  (* unmatchable heads *)
  List.iter
    (fun r ->
      match unmatchable_head (head_of r) with
      | Some why ->
        add ~owner:r.Rule.owner ?loc:(rule_loc r)
          ~rule_scope:r.Rule.scope Warning "unmatchable" (rule_where r)
          (Fmt.str "this head can never match a node: %s" why)
      | None -> ())
    chain;
  (* dead rules: every variable of [b] is provided by a strictly more
     specific rule whose head subsumes [b]'s *)
  let fully_dead =
    List.filter
      (fun b ->
        b.Rule.provides <> []
        &&
        let shadowers =
          List.filter
            (fun a ->
              a.Rule.id <> b.Rule.id
              && Rule.compare_level a b > 0
              && (not (Rule.same_level a b))
              && head_subsumes ~inst (head_of a) (head_of b))
            chain
        in
        List.for_all
          (fun v ->
            List.exists (fun a -> List.mem v a.Rule.provides) shadowers)
          b.Rule.provides)
      chain
  in
  List.iter
    (fun b ->
      let shadower =
        List.find
          (fun a ->
            a.Rule.id <> b.Rule.id
            && Rule.compare_level a b > 0
            && (not (Rule.same_level a b))
            && head_subsumes ~inst (head_of a) (head_of b))
          chain
      in
      if String.equal b.Rule.owner Registry.default_source
         && not (String.equal source Registry.default_source)
      then
        add ~owner:source ?loc:(rule_loc shadower)
          ~rule_scope:shadower.Rule.scope Info "shadows-default"
          (rule_where shadower)
          (Fmt.str
             "fully overrides the generic %s (%s scope, intentional blending)"
             (rule_where b)
             (Scope.to_string b.Rule.scope))
      else
        add ~owner:b.Rule.owner ?loc:(rule_loc b) ~rule_scope:b.Rule.scope
          Warning "dead-rule" (rule_where b)
          (Fmt.str
             "dead rule: %s (%s scope) matches every node this rule matches \
              and provides all of its variables, so this rule can never \
              contribute"
             (rule_where shadower)
             (Scope.to_string shadower.Rule.scope)))
    fully_dead;
  let dead_ids = List.map (fun r -> r.Rule.id) fully_dead in
  let live = List.filter (fun r -> not (List.mem r.Rule.id dead_ids)) chain in
  (* same-level ambiguity: overlapping heads providing the same variable are
     all evaluated and min-combined (paper §4.2 step 3) *)
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if
            String.equal a.Rule.owner b.Rule.owner
            && Rule.same_level a b
            && heads_overlap ~inst (head_of a) (head_of b)
          then begin
            let shared =
              List.filter (fun v -> List.mem v b.Rule.provides) a.Rule.provides
            in
            if shared <> [] then
              add ~owner:a.Rule.owner ?loc:(rule_loc a)
                ~rule_scope:a.Rule.scope Info "ambiguous" (rule_where a)
                (Fmt.str
                   "overlaps %s at the same matching level; %s will be \
                    min-combined (competing strategies)"
                   (rule_where b)
                   (String.concat ", "
                      (List.map Ast.cost_var_name shared)))
          end)
        rest;
      pairs rest
  in
  pairs live;
  (* coverage: per variable, does some live universal-head rule provide it,
     and does the wrapper's own export cover it or fall back to defaults *)
  let own = List.filter (fun r -> String.equal r.Rule.owner source) live in
  if own <> [] || String.equal source Registry.default_source then begin
    let missing = ref [] and conditional = ref [] in
    let own_partial = ref [] and own_none = ref [] in
    List.iter
      (fun v ->
        let providers =
          List.filter (fun r -> List.mem v r.Rule.provides) live
        in
        let universal =
          List.filter (fun r -> universal_head (head_of r)) providers
        in
        if providers = [] then missing := v :: !missing
        else if universal = [] then conditional := (v, providers) :: !conditional;
        if not (String.equal source Registry.default_source) then begin
          let own_p = List.filter (fun r -> List.mem r.Rule.id (List.map (fun o -> o.Rule.id) own)) providers in
          if own_p = [] && providers <> [] then own_none := v :: !own_none
          else if own_p <> [] && not (List.exists (fun r -> universal_head (head_of r)) own_p)
          then own_partial := v :: !own_partial
        end)
      Ast.all_cost_vars;
    if !missing <> [] then
      add ~owner:source Error "coverage" (Fmt.str "operator %s" operator)
        (Fmt.str
           "no rule in the merged chain provides %s: estimation will fail \
            for every %s node"
           (String.concat ", " (List.map Ast.cost_var_name (List.rev !missing)))
           operator);
    List.iter
      (fun (v, providers) ->
        add ~owner:source Error "coverage" (Fmt.str "operator %s" operator)
          (Fmt.str
             "%s is only provided for restricted node shapes (%s): other %s \
              nodes have no formula and estimation will fail"
             (Ast.cost_var_name v)
             (String.concat "; " (List.map rule_where providers))
             operator))
      (List.rev !conditional);
    if !own_none <> [] then
      add ~owner:source Info "fallback" (Fmt.str "operator %s" operator)
        (Fmt.str "%s %s provided only by the generic model for %s nodes"
           (String.concat ", " (List.map Ast.cost_var_name (List.rev !own_none)))
           (if List.length !own_none = 1 then "is" else "are")
           operator);
    if !own_partial <> [] then
      add ~owner:source Info "fallback" (Fmt.str "operator %s" operator)
        (Fmt.str
           "%s exported only for some node shapes; other %s nodes fall back \
            to the generic model"
           (String.concat ", " (List.map Ast.cost_var_name (List.rev !own_partial)))
           operator)
  end;
  (* inter-variable dependency cycles across the chain's live rules *)
  let edges =
    List.concat_map
      (fun r ->
        match r.Rule.ast with
        | None -> []
        | Some ast ->
          let terms = Compile.rule_body ~def_of:(Registry.def_of reg ~source:r.Rule.owner) ast in
          let _, edges =
            List.fold_left
              (fun (j, acc) (target, _) ->
                let acc =
                  match target with
                  | Ast.Cost v ->
                    List.map (fun w -> (v, w, r)) (cost_var_deps terms.(j)) @ acc
                  | Ast.Local _ -> acc
                in
                (j + 1, acc))
              (0, []) ast.Ast.body
          in
          edges)
      live
  in
  let succ v = List.filter (fun (a, _, _) -> a = v) edges in
  let reported = ref [] in
  let rec dfs path v =
    if List.mem v path then begin
      (* cycle: the segment of [path] from [v] back to [v] *)
      let rec upto = function
        | [] -> []
        | x :: rest -> if x = v then [ x ] else x :: upto rest
      in
      let cycle = List.sort_uniq compare (v :: upto path) in
      if not (List.mem cycle !reported) then begin
        reported := cycle :: !reported;
        let cyc_edges =
          List.filter (fun (a, b, _) -> List.mem a cycle && List.mem b cycle) edges
        in
        let rules =
          List.sort_uniq compare (List.map (fun (_, _, r) -> rule_where r) cyc_edges)
        in
        let loc =
          match cyc_edges with (_, _, r) :: _ -> rule_loc r | [] -> None
        in
        add ~owner:source ?loc Error "cycle" (String.concat ", " rules)
          (Fmt.str
             "circular cost-variable dependency %s for operator %s: \
              evaluation cannot terminate"
             (String.concat " -> "
                (List.map Ast.cost_var_name (cycle @ [ List.hd cycle ])))
             operator)
      end
    end
    else List.iter (fun (_, w, _) -> dfs (v :: path) w) (succ v)
  in
  List.iter (fun v -> dfs [] v) Ast.all_cost_vars;
  List.rev !findings

(* --- Whole-source and whole-model entry points ---------------------------- *)

let dedup fs =
  List.rev
    (List.fold_left (fun acc f -> if List.mem f acc then acc else f :: acc) [] fs)

let analyze_source reg ~source : Finding.t list =
  let own =
    Registry.source_rules reg ~source
    |> List.filter (fun r -> Option.is_some (pattern_head r))
  in
  let rule_findings = List.concat_map (analyze_rule reg) own in
  let ops =
    if String.equal source Registry.default_source then known_operators
    else List.sort_uniq String.compare (List.map Rule.operator own)
  in
  let chain_findings =
    List.concat_map (fun op -> analyze_chain reg ~source ~operator:op) ops
  in
  dedup (rule_findings @ let_findings reg ~source @ chain_findings)

let analyze reg : Finding.t list =
  dedup (List.concat_map (fun source -> analyze_source reg ~source) (Registry.sources reg))
