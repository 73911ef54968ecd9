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

type severity = Analyzer.severity = Error | Warning | Info

type finding = {
  severity : severity;
  tag : string;
  source : string option;
  scope : Scope.t option;
  path : string;
  msg : string;
}

let errors fs = List.filter (fun f -> f.severity = Error) fs
let of_severity s fs = List.filter (fun f -> f.severity = s) fs

let pp_severity ppf s =
  Fmt.string ppf
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let pp_finding ppf f =
  Fmt.pf ppf "%s: %a [%s]%a: %s" f.path pp_severity f.severity f.tag
    (Fmt.option (fun ppf s -> Fmt.pf ppf " %s" s))
    f.source f.msg

(* Same hand-rolled JSON as Analyzer.to_json: stable field order, no
   dependencies. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json findings =
  let field k v = Fmt.str "\"%s\":%s" k v in
  let str s = Fmt.str "\"%s\"" (json_escape s) in
  let one f =
    let fields =
      [ field "severity"
          (str (match f.severity with Error -> "error" | Warning -> "warning" | Info -> "info"));
        field "tag" (str f.tag);
        field "source" (match f.source with Some s -> str s | None -> "null");
        field "scope"
          (match f.scope with Some s -> str (Scope.to_string s) | None -> "null");
        field "path" (str f.path);
        field "msg" (str f.msg) ]
    in
    "{" ^ String.concat "," fields ^ "}"
  in
  "[" ^ String.concat "," (List.map one findings) ^ "]"

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
  | Plan.Select _ -> "select"
  | Plan.Project _ -> "project"
  | Plan.Sort _ -> "sort"
  | Plan.Join _ -> "join"
  | Plan.Union _ -> "union"
  | Plan.Dedup _ -> "dedup"
  | Plan.Aggregate _ -> "aggregate"
  | Plan.Submit (s, _) -> Fmt.str "submit(%s)" s

let check ?(ctx = `Mediator) reg plan =
  let cat = Registry.catalog reg in
  let out = ref [] in
  let add ?source ?scope severity tag path msg =
    let path = render_path plan_label path in
    out := { severity; tag; source; scope; path; msg } :: !out
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
             let op =
               match node with
               | Plan.Scan _ | Plan.Submit _ -> None
               | Plan.Select _ -> Some "select"
               | Plan.Project _ -> Some "project"
               | Plan.Sort _ -> Some "sort"
               | Plan.Join _ -> Some "join"
               | Plan.Union _ -> Some "union"
               | Plan.Dedup _ -> Some "dedup"
               | Plan.Aggregate _ -> Some "aggregate"
             in
             match op with
             | Some op when not (Catalog.capable cat ~source op) ->
               add ~source Error "capability" path
                 (Fmt.str "source %s cannot execute %s" source op)
             | _ -> ())
           () sub;
         walk ~inside:(Some source) path sub)
  in
  ignore (walk ~inside:None [] plan);
  List.rev !out

(* ---------------- batched-engine preconditions ---------------- *)

module B = Disco_exec.Batch

let check_batch (b : B.t) =
  let out = ref [] in
  let add severity tag msg =
    out := { severity; tag; source = None; scope = None; path = "batch"; msg }
           :: !out
  in
  let ncols = Array.length b.B.cols in
  if Array.length b.B.attrs <> ncols then
    add Error "batch-shape"
      (Fmt.str "%d attribute names for %d columns" (Array.length b.B.attrs) ncols);
  let col_len = function
    | B.Ints a -> Array.length a
    | B.Floats a -> Array.length a
    | B.Boxed a -> Array.length a
  in
  let phys =
    Array.fold_left (fun acc c -> min acc (col_len c)) max_int b.B.cols
  in
  let phys = if ncols = 0 then 0 else phys in
  (match b.B.sel with
   | None ->
     if ncols > 0 && phys < b.B.len then
       add Error "batch-shape"
         (Fmt.str "dense batch of len %d over columns of %d rows" b.B.len phys)
   | Some sel ->
     if Array.length sel <> b.B.len then
       add Error "selection-vector"
         (Fmt.str "selection vector of %d entries but len = %d"
            (Array.length sel) b.B.len);
     Array.iter
       (fun i ->
         if i < 0 || (ncols > 0 && i >= phys) then
           add Error "selection-vector"
             (Fmt.str "selection index %d outside physical rows [0, %d)" i phys))
       sel);
  if b.B.len = 0 then
    add Warning "batch-shape" "emitted batches are non-empty by engine invariant";
  if errors !out = [] then (
    let bytes = ref 0 in
    for i = 0 to b.B.len - 1 do
      bytes := !bytes + B.row_bytes b i
    done;
    if !bytes <> b.B.bytes then
      add Error "batch-bytes"
        (Fmt.str "batch claims %d bytes but rows sum to %d" b.B.bytes !bytes));
  List.rev !out

(* ---------------- physical-plan invariants ---------------- *)

module P = Disco_exec.Physical
module T = Disco_storage.Table

let physical_label = function
  | P.Pscan { table; _ } -> Fmt.str "pscan(%s)" table.T.name
  | P.Pfilter _ -> "pfilter"
  | P.Pproject _ -> "pproject"
  | P.Psort _ -> "psort"
  | P.Pnested_join _ -> "pnested_join"
  | P.Pindex_join _ -> "pindex_join"
  | P.Punion _ -> "punion"
  | P.Pdedup _ -> "pdedup"
  | P.Paggregate _ -> "paggregate"
  | P.Pmaterialized _ -> "pmaterialized"

let check_physical plan =
  let out = ref [] in
  let add severity tag path msg =
    let path = render_path physical_label path in
    out := { severity; tag; source = None; scope = None; path; msg } :: !out
  in
  let table_attr table binding path what name =
    (* residuals and access paths reference attributes of one table: accept
       the bare schema name or its binding-qualified form *)
    let bare =
      match Plan.split_attr name with
      | Some (b, a) when b = binding -> Some a
      | Some _ -> None
      | None -> Some name
    in
    match bare with
    | Some a
      when Schema.find_attribute table.T.schema a <> None ->
      Some a
    | _ ->
      add Error "unknown-attribute" path
        (Fmt.str "%s references %s, not an attribute of %s" what name
           table.T.schema.Schema.coll_name);
      None
  in
  let rec walk up (p : P.t) =
    let path = p :: up in
    match p with
    | P.Pscan { table; binding; access; residual } ->
      (match access with
       | P.Full_scan -> ()
       | P.Index_scan { attr; _ } -> (
         match table_attr table binding path "index access" attr with
         | Some a when not (T.has_index table a) ->
           add Error "index-access" path
             (Fmt.str "index scan on %s but %s has no index on it" attr
                table.T.name)
         | _ -> ()));
      List.iter
        (fun a -> ignore (table_attr table binding path "residual" a))
        (Pred.attributes residual)
    | P.Pfilter (c, _) | P.Pproject (c, _) | P.Psort (c, _) | P.Pdedup c
    | P.Paggregate (c, _) ->
      walk path c
    | P.Pnested_join (l, r, _) | P.Punion (l, r) ->
      walk path l;
      walk path r
    | P.Pindex_join { outer; table; binding; inner_attr; residual; _ } ->
      (match table_attr table binding path "index join" inner_attr with
       | Some a when not (T.has_index table a) ->
         add Error "index-access" path
           (Fmt.str "index join probes %s but %s has no index on it" inner_attr
              table.T.name)
       | _ -> ());
      ignore residual;
      walk path outer
    | P.Pmaterialized { batches; count; _ } ->
      (* the mediator's engine reads these batches without re-checking
         them: each must meet the batched engine's preconditions *)
      List.iteri
        (fun i b ->
          List.iter
            (fun (f : finding) ->
              add f.severity f.tag path (Fmt.str "batch %d: %s" i f.msg))
            (check_batch b))
        batches;
      let n = List.fold_left (fun acc (b : B.t) -> acc + b.B.len) 0 batches in
      if count <> n then
        add Error "materialized-count" path
          (Fmt.str "materialized node claims %d rows but holds %d" count n)
  in
  walk [] plan;
  List.rev !out
