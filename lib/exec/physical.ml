(* Physical plans and access-path selection for one execution engine.

   A wrapper translates the logical subplan it receives into a physical plan
   over its stored tables: selections over base scans choose between a full
   scan and an index scan (using the engine's true costs — the wrapper knows
   its own engine, which is precisely why its exported cost rules beat the
   mediator's generic model), and joins choose index-nested-loop when the
   inner input is a base scan with an index on the join attribute.

   Access-path selection runs on every wrapper execution, so it reads the
   index without walking it: the exact match count of a candidate conjunct
   is [Btree.count], a difference of posting offsets that allocates
   nothing. *)

open Disco_common
open Disco_algebra
open Disco_storage

type access =
  | Full_scan
  | Index_scan of { attr : string; op : Cmp.t; value : Constant.t }

type t =
  | Pscan of { table : Table.t; binding : string; access : access; residual : Pred.t }
  | Pfilter of t * Pred.t
  | Pproject of t * string list
  | Psort of t * (string * Plan.order) list
  | Pnested_join of t * t * Pred.t
  | Pindex_join of {
      outer : t;
      table : Table.t;           (* inner base table *)
      binding : string;
      outer_attr : string;       (* qualified attr of the outer tuple *)
      inner_attr : string;       (* unqualified inner attribute (indexed) *)
      residual : Pred.t;
    }
  | Punion of t * t
  | Pdedup of t
  | Paggregate of t * Plan.aggregate
  (* Already-computed input (a wrapper subresult at the mediator): the
     wrapper engine's batches as they are, with the simulated times spent
     producing them. [count] is their total length, carried so
     pretty-printing never walks materialized data. *)
  | Pmaterialized of { batches : Batch.t list; count : int; first : float; total : float }

let rec pp ppf = function
  | Pscan { table; binding; access; residual } ->
    let acc ppf = function
      | Full_scan -> Fmt.string ppf "seq"
      | Index_scan { attr; op; value } ->
        Fmt.pf ppf "index[%s %a %a]" attr Cmp.pp op Constant.pp value
    in
    Fmt.pf ppf "scan<%a>(%s as %s, %a)" acc access table.Table.name binding Pred.pp
      residual
  | Pfilter (c, p) -> Fmt.pf ppf "filter(%a, %a)" pp c Pred.pp p
  | Pproject (c, attrs) -> Fmt.pf ppf "project(%a, [%s])" pp c (String.concat "," attrs)
  | Psort (c, keys) ->
    Fmt.pf ppf "sort(%a, [%s])" pp c (String.concat "," (List.map fst keys))
  | Pnested_join (l, r, p) -> Fmt.pf ppf "nljoin(%a, %a, %a)" pp l pp r Pred.pp p
  | Pindex_join { outer; table; outer_attr; inner_attr; _ } ->
    Fmt.pf ppf "idxjoin(%a, %s on %s=%s)" pp outer table.Table.name outer_attr
      inner_attr
  | Punion (l, r) -> Fmt.pf ppf "union(%a, %a)" pp l pp r
  | Pdedup c -> Fmt.pf ppf "dedup(%a)" pp c
  | Paggregate (c, _) -> Fmt.pf ppf "aggregate(%a)" pp c
  | Pmaterialized { count; _ } -> Fmt.pf ppf "materialized[%d rows]" count

(* Strip the binding qualifier when the attribute belongs to [binding]. *)
let local_attr ~binding qattr =
  match Plan.split_attr qattr with
  | Some (b, a) when String.equal b binding -> Some a
  | Some _ -> None
  | None -> Some qattr

(* --- Access-path selection ------------------------------------------------ *)

(* Estimated cost of scanning [table] through an index for [k] matches. *)
let index_scan_cost (engine : Costs.engine) table ~clustered k =
  let pages = float_of_int (Table.page_count table) in
  let n = float_of_int (Table.count table) in
  let per_page = n /. Float.max pages 1. in
  let touched =
    if clustered then ceil (float_of_int k /. Float.max per_page 1.)
    else
      Disco_costlang.Builtins.yao_exact ~objects:n ~pages ~selected:(float_of_int k)
      *. pages
  in
  engine.Costs.probe_ms +. (touched *. engine.Costs.io_ms)
  +. (float_of_int k *. engine.Costs.output_ms)

let full_scan_cost (engine : Costs.engine) table ~matches =
  (float_of_int (Table.page_count table) *. engine.Costs.io_ms)
  +. (float_of_int (Table.count table) *. engine.Costs.eval_ms)
  +. (float_of_int matches *. engine.Costs.output_ms)

(* Choose the cheapest indexed conjunct, if any beats the full scan. Returns
   the chosen access and the residual predicate. *)
let choose_access engine table ~binding (pred : Pred.t) : access * Pred.t =
  let conjuncts = Pred.conjuncts pred in
  let candidates =
    List.filter_map
      (fun c ->
        match c with
        | Pred.Cmp (qattr, op, v) ->
          (match local_attr ~binding qattr with
           | Some attr ->
             (match Table.index table attr with
              | Some idx ->
                let k = Btree.count idx op v in
                let clustered = table.Table.clustered_on = Some attr in
                let cost = index_scan_cost engine table ~clustered k in
                Some (c, attr, op, v, k, cost)
              | None -> None)
           | None -> None)
        | _ -> None)
      conjuncts
  in
  match candidates with
  | [] -> (Full_scan, pred)
  | _ ->
    let best =
      List.fold_left
        (fun acc c ->
          let _, _, _, _, _, cost = c in
          match acc with
          | Some (_, _, _, _, _, best_cost) when best_cost <= cost -> acc
          | _ -> Some c)
        None candidates
    in
    (match best with
     | Some (chosen, attr, op, v, k, cost)
       when cost < full_scan_cost engine table ~matches:k ->
       let residual = Pred.conj (List.filter (fun c -> not (Pred.equal c chosen)) conjuncts) in
       (Index_scan { attr; op; value = v }, residual)
     | _ -> (Full_scan, pred))

(* --- Logical-to-physical translation -------------------------------------- *)

(* [find_table] resolves a collection name of this source. *)
let rec of_logical ~engine ~find_table (plan : Plan.t) : t =
  let recur = of_logical ~engine ~find_table in
  match plan with
  | Plan.Scan r ->
    Pscan
      { table = find_table r.Plan.collection;
        binding = r.Plan.binding;
        access = Full_scan;
        residual = Pred.True }
  | Plan.Select (Plan.Scan r, pred) ->
    let table = find_table r.Plan.collection in
    let access, residual = choose_access engine table ~binding:r.Plan.binding pred in
    Pscan { table; binding = r.Plan.binding; access; residual }
  | Plan.Select (child, pred) -> Pfilter (recur child, pred)
  | Plan.Project (child, attrs) -> Pproject (recur child, attrs)
  | Plan.Sort (child, keys) -> Psort (recur child, keys)
  | Plan.Join (left, inner, Pred.Attr_cmp (a, Pred.Eq, b))
    when (match inner with
          | Plan.Scan _ | Plan.Project (Plan.Scan _, _) -> true
          | _ -> false) ->
    (* An inner base scan — possibly under a (width-only) projection pushed
       down by the optimizer — can be probed through its index. The
       projection is dropped: it only trims attribute width, and the final
       projection above still applies. *)
    let r =
      match inner with
      | Plan.Scan r | Plan.Project (Plan.Scan r, _) -> r
      | _ -> assert false
    in
    let table = find_table r.Plan.collection in
    let inner_of q = local_attr ~binding:r.Plan.binding q in
    let choice =
      match inner_of b, inner_of a with
      | Some inner, _ when Table.has_index table inner -> Some (a, inner)
      | _, Some inner when Table.has_index table inner -> Some (b, inner)
      | _ -> None
    in
    (match choice with
     | Some (outer_attr, inner_attr) ->
       Pindex_join
         { outer = recur left;
           table;
           binding = r.Plan.binding;
           outer_attr;
           inner_attr;
           residual = Pred.True }
     | None ->
       Pnested_join (recur left, recur inner, Pred.Attr_cmp (a, Pred.Eq, b)))
  | Plan.Join (left, right, pred) -> Pnested_join (recur left, recur right, pred)
  | Plan.Union (left, right) -> Punion (recur left, recur right)
  | Plan.Dedup child -> Pdedup (recur child)
  | Plan.Aggregate (child, agg) -> Paggregate (recur child, agg)
  | Plan.Submit (_, _) ->
    raise (Err.Plan_error "submit cannot appear inside a wrapper subplan")
