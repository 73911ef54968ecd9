(* Typed well-formedness checking of whole plans (DESIGN.md §14).

   The checker walks a plan bottom-up computing each node's typed output
   environment — the qualified attribute names it emits, with their schema
   types — and validates every reference against it. The environment mirrors
   [Plan.output_attrs] exactly (requested names survive Project/Aggregate
   verbatim), so what we type here is what [Run] will look up at execution.
   Name resolution copies the executor's rule (Tuple.get / Batch.find_col):
   exact match first, then a unique unqualified-suffix match. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_core
open Finding

(* The one caller left is perfbench's traced replica of [run_query]. *)
let errors = Finding.errors

type ctx = [ `Mediator | `Wrapper of string ]

(* ---------------- typed environments ---------------- *)

type env = (string * Schema.ty) list

let unqual name =
  match Plan.split_attr name with Some (_, a) -> a | None -> name

type resolution =
  | Found of string * Schema.ty
  | Ambiguous of string list
  | Missing

let resolve (env : env) name : resolution =
  match List.assoc_opt name env with
  | Some ty -> Found (name, ty)
  | None ->
    if Plan.split_attr name <> None then Missing
    else (
      match List.filter (fun (n, _) -> unqual n = name) env with
      | [ (n, ty) ] -> Found (n, ty)
      | [] -> Missing
      | several -> Ambiguous (List.map fst several))

let numeric = function Schema.Tint | Schema.Tfloat -> true | _ -> false
let compatible a b = a = b || (numeric a && numeric b)

let ty_name = function
  | Schema.Tbool -> "bool"
  | Schema.Tint -> "int"
  | Schema.Tfloat -> "float"
  | Schema.Tstring -> "string"

let const_ty : Constant.t -> Schema.ty option = function
  | Constant.Null -> None (* null compares with anything *)
  | Constant.Bool _ -> Some Schema.Tbool
  | Constant.Int _ -> Some Schema.Tint
  | Constant.Float _ -> Some Schema.Tfloat
  | Constant.String _ -> Some Schema.Tstring

let available env =
  match env with
  | [] -> "nothing in scope"
  | _ -> "in scope: " ^ String.concat ", " (List.map fst env)

(* ---------------- the checker ---------------- *)

(* Operator paths. A walk carries only the reversed list of nodes from the
   current one up to the root; the path string is rendered when a finding
   is recorded, so a clean check builds no labels and no paths. *)
let render_path label rev_nodes = String.concat "/" (List.rev_map label rev_nodes)

let plan_label = function
  | Plan.Scan r -> Fmt.str "scan(%s.%s)" r.Plan.source r.Plan.collection
  | Plan.Submit (s, _) -> Fmt.str "submit(%s)" s
  | p -> Rule.operator_of_node p

let check ?(ctx = `Mediator) reg plan =
  let cat = Registry.catalog reg in
  let out = ref [] in
  let add ?source severity tag path msg =
    out := Finding.v ?source severity tag (render_path plan_label path) msg :: !out
  in
  let resolve_or_report ?(tag = "unknown-attribute") env path name =
    match resolve env name with
    | Found _ as r -> r
    | Missing as r ->
      add Error tag path (Fmt.str "attribute %s does not resolve (%s)" name (available env));
      r
    | Ambiguous names as r ->
      add Error "ambiguous-attribute" path
        (Fmt.str "attribute %s is ambiguous: matches %s" name (String.concat ", " names));
      r
  in
  (* [sides = Some (left, right)] inside a Join predicate: attr-vs-attr
     conjuncts get the join-key vocabulary and a sidedness check. *)
  let rec check_pred ?sides env path (p : Pred.t) =
    match p with
    | Pred.True -> ()
    | Pred.And (a, b) | Pred.Or (a, b) ->
      check_pred ?sides env path a;
      check_pred ?sides env path b
    | Pred.Not a -> check_pred ?sides env path a
    | Pred.Cmp (attr, _, c) ->
      (match resolve_or_report env path attr with
       | Found (_, ty) ->
         (match const_ty c with
          | Some cty when not (compatible ty cty) ->
            add Error "type-mismatch" path
              (Fmt.str "%s : %s compared with %s constant %s" attr (ty_name ty)
                 (ty_name cty) (Constant.to_string c))
          | _ -> ())
       | _ -> ())
    | Pred.Apply (fn, attr, _) ->
      ignore (resolve_or_report env path attr);
      if Registry.adt_cost reg fn = None then
        add Warning "unknown-adt" path
          (Fmt.str "ADT operation %s exports no cost; it will be priced as free" fn)
    | Pred.Attr_cmp (a, _, b) -> (
      match (resolve_or_report env path a, resolve_or_report env path b) with
      | Found (ra, ta), Found (rb, tb) ->
        let tag = if sides = None then "type-mismatch" else "join-type" in
        if not (compatible ta tb) then
          add Error tag path
            (Fmt.str "%s : %s compared with %s : %s" a (ty_name ta) b (ty_name tb));
        (match sides with
         | Some (le, re) ->
           let on e n = match resolve e n with Found _ -> true | _ -> false in
           let left_only = on le ra && not (on re ra) in
           let right_only = on re rb && not (on le rb) in
           let left_only_b = on le rb && not (on re rb) in
           let right_only_a = on re ra && not (on le ra) in
           if not ((left_only && right_only) || (left_only_b && right_only_a))
           then
             add Warning "join-local" path
               (Fmt.str "join conjunct %s vs %s does not pair the two sides" a b)
         | None -> ())
      | _ -> ())
  in
  (* Returns the node's typed output environment. [up] lists the ancestors,
     nearest first; [inside] is the submit source when below a Submit
     node. *)
  let rec walk ~inside up (p : Plan.t) : env =
    let path = p :: up in
    match p with
    | Plan.Scan r ->
      let source = r.Plan.source in
      (match (ctx, inside) with
       | `Mediator, None ->
         add ~source Error "bare-scan" path
           "scan outside submit cannot execute at the mediator (missing Submit)"
       | `Wrapper w, _ when source <> w ->
         add ~source Error "foreign-scan" path
           (Fmt.str "scan of source %s inside a plan for wrapper %s" source w)
       | _ -> ());
      (match inside with
       | Some s when s <> source ->
         add ~source Error "foreign-scan" path
           (Fmt.str "scan of source %s inside submit(%s)" source s)
       | _ -> ());
      (match Catalog.find_collection cat ~source r.Plan.collection with
       | exception Err.Unknown_source s ->
         add ~source Error "unknown-source" path
           (Fmt.str "source %s is not registered" s);
         []
       | exception Err.Unknown_collection c ->
         add ~source Error "unknown-collection" path
           (Fmt.str "collection %s is not exported by source %s" c source);
         []
       | entry ->
         List.map
           (fun a ->
             let q =
               if r.Plan.binding = "" then a.Schema.attr_name
               else r.Plan.binding ^ "." ^ a.Schema.attr_name
             in
             (q, a.Schema.attr_type))
           entry.Catalog.schema.Schema.attributes)
    | Plan.Select (c, pred) ->
      let env = walk ~inside path c in
      check_pred env path pred;
      env
    | Plan.Project (c, attrs) ->
      let env = walk ~inside path c in
      if attrs = [] then
        add Error "projection" path "projection keeps no attributes";
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun a ->
          if Hashtbl.mem seen a then (
            add Warning "projection" path (Fmt.str "duplicate projection of %s" a);
            None)
          else (
            Hashtbl.add seen a ();
            match resolve_or_report ~tag:"projection" env path a with
            | Found (_, ty) -> Some (a, ty) (* requested name survives *)
            | _ -> None))
        attrs
    | Plan.Sort (c, keys) ->
      let env = walk ~inside path c in
      List.iter (fun (k, _) -> ignore (resolve_or_report env path k)) keys;
      if keys = [] then add Warning "sort" path "sort with no keys";
      env
    | Plan.Join (l, r, pred) ->
      let le = walk ~inside path l in
      let re = walk ~inside path r in
      let overlap = List.filter (fun (n, _) -> List.mem_assoc n re) le in
      (match overlap with
       | [] -> ()
       | (n, _) :: _ ->
         add Error "duplicate-binding" path
           (Fmt.str "both join sides export %s (rebind one scan)" n));
      let env = le @ re in
      if pred = Pred.True then
        add Info "cross-product" path "join on true is a cross product";
      check_pred ~sides:(le, re) env path pred;
      env
    | Plan.Union (l, r) ->
      let le = walk ~inside path l in
      let re = walk ~inside path r in
      let names e = List.sort compare (List.map fst e) in
      if names le <> names re then
        add Warning "union-schema" path
          "union branches emit different attributes; downstream resolution \
           follows the left branch"
      else
        List.iter
          (fun (n, ty) ->
            match List.assoc_opt n re with
            | Some ty' when not (compatible ty ty') ->
              add Warning "type-mismatch" path
                (Fmt.str "union branches disagree on %s: %s vs %s" n (ty_name ty)
                   (ty_name ty'))
            | _ -> ())
          le;
      le
    | Plan.Dedup c -> walk ~inside path c
    | Plan.Aggregate (c, a) ->
      let env = walk ~inside path c in
      let group =
        List.filter_map
          (fun g ->
            match resolve_or_report env path g with
            | Found (_, ty) -> Some (g, ty)
            | _ -> None)
          a.Plan.group_by
      in
      let aggs =
        List.filter_map
          (fun (fn, input, output) ->
            match fn with
            | Plan.Count when input = "" -> Some (output, Schema.Tint)
            | _ -> (
              match resolve_or_report ~tag:"agg-input" env path input with
              | Found (_, ty) ->
                (match fn with
                 | Plan.Sum | Plan.Avg when not (numeric ty) ->
                   add Error "agg-type" path
                     (Fmt.str "%a over non-numeric attribute %s : %s"
                        Plan.pp_agg_fun fn input (ty_name ty))
                 | _ -> ());
                let oty =
                  match fn with
                  | Plan.Count -> Schema.Tint
                  | Plan.Avg -> Schema.Tfloat
                  | Plan.Sum | Plan.Min | Plan.Max -> ty
                in
                Some (output, oty)
              | _ -> None))
          a.Plan.aggs
      in
      if a.Plan.aggs = [] && a.Plan.group_by = [] then
        add Warning "aggregate" path "aggregate computes nothing";
      let outs = group @ aggs in
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (n, _) ->
          if Hashtbl.mem seen n then
            add Error "aggregate" path (Fmt.str "duplicate output attribute %s" n)
          else Hashtbl.add seen n ())
        outs;
      outs
    | Plan.Submit (source, sub) ->
      (match (ctx, inside) with
       | _, Some enclosing ->
         add ~source Error "submit-nesting" path
           (Fmt.str "submit(%s) nested inside submit(%s)" source enclosing)
       | `Wrapper w, None ->
         add ~source Error "submit-in-wrapper" path
           (Fmt.str "submit node in a plan for wrapper %s" w)
       | _ -> ());
      (match Catalog.find_source cat source with
       | exception Err.Unknown_source s ->
         add ~source Error "unknown-source" path
           (Fmt.str "submit to unregistered source %s" s);
         []
       | _ ->
         (* capability check: every operator below the submit must be one the
            wrapper declared (paper §2.1); scans are always executable *)
         Plan.fold
           (fun () node ->
             match node with
             | Plan.Scan _ | Plan.Submit _ -> ()
             | node ->
               let op = Rule.operator_of_node node in
               if not (Catalog.capable cat ~source op) then
                 add ~source Error "capability" path
                   (Fmt.str "source %s cannot execute %s" source op))
           () sub;
         walk ~inside:(Some source) path sub)
  in
  ignore (walk ~inside:None [] plan);
  List.rev !out
