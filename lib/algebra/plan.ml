(* Logical query plans: the mediator algebra of paper §2.2 — scan, select,
   project, sort, join, union, dedup, aggregate, plus [submit] which models
   sending a subplan to a wrapper.

   Attributes in a plan are qualified by the binding of the scan that produces
   them ("e.salary" for scan of Employee bound to [e]), so joins of two
   collections with identically-named attributes stay unambiguous. *)

type collection_ref = {
  source : string;     (* data source (wrapper) name *)
  collection : string; (* collection name in that source *)
  binding : string;    (* alias used to qualify attributes *)
}

let pp_collection_ref ppf r = Fmt.pf ppf "%s.%s as %s" r.source r.collection r.binding

type order = Asc | Desc

type agg_fun = Count | Sum | Avg | Min | Max

let pp_agg_fun ppf = function
  | Count -> Fmt.string ppf "count"
  | Sum -> Fmt.string ppf "sum"
  | Avg -> Fmt.string ppf "avg"
  | Min -> Fmt.string ppf "min"
  | Max -> Fmt.string ppf "max"

type aggregate = {
  group_by : string list;
  (* (function, input attribute, output name); Count ignores its input. *)
  aggs : (agg_fun * string * string) list;
}

type t =
  | Scan of collection_ref
  | Select of t * Pred.t
  | Project of t * string list
  | Sort of t * (string * order) list
  | Join of t * t * Pred.t
  | Union of t * t
  | Dedup of t
  | Aggregate of t * aggregate
  | Submit of string * t

let rec pp ppf = function
  | Scan r -> Fmt.pf ppf "scan(%a)" pp_collection_ref r
  | Select (p, pr) -> Fmt.pf ppf "select(%a, %a)" pp p Pred.pp pr
  | Project (p, attrs) -> Fmt.pf ppf "project(%a, [%s])" pp p (String.concat ", " attrs)
  | Sort (p, keys) ->
    let key ppf (a, o) = Fmt.pf ppf "%s%s" a (match o with Asc -> "" | Desc -> " desc") in
    Fmt.pf ppf "sort(%a, [%a])" pp p Fmt.(list ~sep:(any ", ") key) keys
  | Join (l, r, pr) -> Fmt.pf ppf "join(%a, %a, %a)" pp l pp r Pred.pp pr
  | Union (l, r) -> Fmt.pf ppf "union(%a, %a)" pp l pp r
  | Dedup p -> Fmt.pf ppf "dedup(%a)" pp p
  | Aggregate (p, a) ->
    let agg ppf (f, i, o) = Fmt.pf ppf "%a(%s) as %s" pp_agg_fun f i o in
    Fmt.pf ppf "aggregate(%a, group [%s], [%a])" pp p
      (String.concat ", " a.group_by)
      Fmt.(list ~sep:(any ", ") agg)
      a.aggs
  | Submit (src, p) -> Fmt.pf ppf "submit(%s, %a)" src pp p

let to_string p = Fmt.str "%a" pp p

(* Multi-line rendering for EXPLAIN output. *)
let pp_indented ppf plan =
  let rec go indent p =
    let pad = String.make indent ' ' in
    let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "@.") pad in
    match p with
    | Scan r -> line "scan %a" pp_collection_ref r
    | Select (c, pr) ->
      line "select %a" Pred.pp pr;
      go (indent + 2) c
    | Project (c, attrs) ->
      line "project [%s]" (String.concat ", " attrs);
      go (indent + 2) c
    | Sort (c, keys) ->
      line "sort [%s]" (String.concat ", " (List.map fst keys));
      go (indent + 2) c
    | Join (l, r, pr) ->
      line "join %a" Pred.pp pr;
      go (indent + 2) l;
      go (indent + 2) r
    | Union (l, r) ->
      line "union";
      go (indent + 2) l;
      go (indent + 2) r
    | Dedup c ->
      line "dedup";
      go (indent + 2) c
    | Aggregate (c, a) ->
      line "aggregate group [%s]" (String.concat ", " a.group_by);
      go (indent + 2) c
    | Submit (src, c) ->
      line "submit -> %s" src;
      go (indent + 2) c
  in
  go 0 plan

let children = function
  | Scan _ -> []
  | Select (c, _) | Project (c, _) | Sort (c, _) | Dedup c | Aggregate (c, _)
  | Submit (_, c) ->
    [ c ]
  | Join (l, r, _) | Union (l, r) -> [ l; r ]

let rec fold f acc p = List.fold_left (fold f) (f acc p) (children p)

let size p = fold (fun n _ -> n + 1) 0 p

let rec equal p q =
  match p, q with
  | Scan a, Scan b ->
    String.equal a.source b.source
    && String.equal a.collection b.collection
    && String.equal a.binding b.binding
  | Select (c1, p1), Select (c2, p2) -> Pred.equal p1 p2 && equal c1 c2
  | Project (c1, a1), Project (c2, a2) -> a1 = a2 && equal c1 c2
  | Sort (c1, k1), Sort (c2, k2) -> k1 = k2 && equal c1 c2
  | Join (l1, r1, p1), Join (l2, r2, p2) ->
    Pred.equal p1 p2 && equal l1 l2 && equal r1 r2
  | Union (l1, r1), Union (l2, r2) -> equal l1 l2 && equal r1 r2
  | Dedup c1, Dedup c2 -> equal c1 c2
  | Aggregate (c1, a1), Aggregate (c2, a2) -> a1 = a2 && equal c1 c2
  | Submit (s1, c1), Submit (s2, c2) -> String.equal s1 s2 && equal c1 c2
  | _ -> false

let equal_structural = equal

(* Canonical structural hash consistent with [equal]. The tree is
   combined manually (the default [Hashtbl.hash] stops after 10 meaningful
   nodes, which would collide every deep plan); flat leaf payloads — name
   lists, sort keys, aggregate specs — go through [Hashtbl.hash], and
   predicates through [Pred.hash], whose constant hashing matches the numeric
   coercion of [Pred.equal]. *)
let hash p =
  let comb acc x = (acc * 31) + x in
  let rec go acc = function
    | Scan r ->
      comb
        (comb (comb (comb acc 3) (Hashtbl.hash r.source)) (Hashtbl.hash r.collection))
        (Hashtbl.hash r.binding)
    | Select (c, pr) -> go (comb (comb acc 5) (Pred.hash pr)) c
    | Project (c, attrs) -> go (comb (comb acc 7) (Hashtbl.hash attrs)) c
    | Sort (c, keys) -> go (comb (comb acc 11) (Hashtbl.hash keys)) c
    | Join (l, r, pr) -> go (go (comb (comb acc 13) (Pred.hash pr)) l) r
    | Union (l, r) -> go (go (comb acc 17) l) r
    | Dedup c -> go (comb acc 19) c
    | Aggregate (c, a) -> go (comb (comb acc 23) (Hashtbl.hash a)) c
    | Submit (src, c) -> go (comb (comb acc 29) (Hashtbl.hash src)) c
  in
  go 0 p land max_int

(* All scans appearing in a plan, left to right. *)
let scans p =
  List.rev
    (fold (fun acc n -> match n with Scan r -> r :: acc | _ -> acc) [] p)

(* Binding -> collection_ref map for attribute-origin resolution. *)
let bindings p = List.map (fun r -> (r.binding, r)) (scans p)

(* Split a qualified attribute name "b.attr" into (binding, attr). *)
let split_attr qname =
  match String.index_opt qname '.' with
  | Some i ->
    Some (String.sub qname 0 i, String.sub qname (i + 1) (String.length qname - i - 1))
  | None -> None

type resolution = Found of int | Ambiguous of int list | Missing

(* The index of the first attribute equal to [name] at or after [i], or
   -1; the attributes before [i] whose unqualified part is [name], onto
   [acc]. Top-level, so a resolution allocates no closure. *)
let rec exact_index attrs name i =
  if i = Array.length attrs then -1
  else if String.equal attrs.(i) name then i
  else exact_index attrs name (i + 1)

let rec suffix_indexes attrs name i acc =
  if i = 0 then acc
  else
    let acc =
      match split_attr attrs.(i - 1) with
      | Some (_, base) when String.equal base name -> (i - 1) :: acc
      | _ -> acc
    in
    suffix_indexes attrs name (i - 1) acc

(* The executors' attribute-resolution rule, and the plan checker's: the
   first exact match wins; otherwise the one attribute whose unqualified
   part is [name]. Several such attributes are ambiguous, none is missing. *)
let resolve_attr attrs name =
  match exact_index attrs name 0 with
  | -1 ->
    (match suffix_indexes attrs name (Array.length attrs) [] with
     | [] -> Missing
     | [ i ] -> Found i
     | is -> Ambiguous is)
  | i -> Found i

let attr_index attrs name =
  match resolve_attr attrs name with
  | Found i -> i
  | Ambiguous _ | Missing ->
    raise
      (Disco_common.Err.Eval_error
         (Fmt.str "attribute %S not found in tuple (%s)" name
            (String.concat ", " (Array.to_list attrs))))

(* The base collection and unqualified attribute a qualified name refers to,
   if it traces back to a scan of [plan]. *)
let attr_origin plan qname =
  match split_attr qname with
  | None -> None
  | Some (binding, attr) ->
    (match List.assoc_opt binding (bindings plan) with
     | Some r -> Some (r, attr)
     | None -> None)

(* Output attributes of a plan, given the attribute names of base
   collections. [collection_attrs source collection] returns the unqualified
   attribute names. *)
let rec output_attrs ~collection_attrs p =
  match p with
  | Scan r ->
    List.map (fun a -> r.binding ^ "." ^ a) (collection_attrs r.source r.collection)
  | Select (c, _) | Sort (c, _) | Dedup c | Submit (_, c) ->
    output_attrs ~collection_attrs c
  | Project (_, attrs) -> attrs
  | Join (l, r, _) ->
    output_attrs ~collection_attrs l @ output_attrs ~collection_attrs r
  | Union (l, _) -> output_attrs ~collection_attrs l
  | Aggregate (_, a) -> a.group_by @ List.map (fun (_, _, o) -> o) a.aggs

(* Sources mentioned by submits in the plan. *)
let submit_sources p =
  List.rev
    (fold (fun acc n -> match n with Submit (s, _) -> s :: acc | _ -> acc) [] p)
