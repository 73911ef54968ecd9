(* Engine-invariant audits for the verification tests: batched-engine
   preconditions of one batch, and the shape invariants of a physical plan
   that the executors assume but do not re-check. They walk every row of
   every materialized batch, so they stay off the query path. Findings are
   [Finding.t], with the batch or the physical operator path as [where]. *)

open Disco_algebra
open Disco_catalog
open Disco_analysis
module B = Disco_exec.Batch
module P = Disco_exec.Physical
module T = Disco_storage.Table

(* Batched-engine preconditions: attrs/columns agreement, selection-vector
   bounds, exact [bytes] accounting, non-emptiness (warning). *)
let check_batch (b : B.t) =
  let out = ref [] in
  let add severity tag msg = out := Finding.v severity tag "batch" msg :: !out in
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
  if Finding.errors !out = [] then (
    let bytes = ref 0 in
    for i = 0 to b.B.len - 1 do
      bytes := !bytes + B.row_bytes b i
    done;
    if !bytes <> b.B.bytes then
      add Error "batch-bytes"
        (Fmt.str "batch claims %d bytes but rows sum to %d" b.B.bytes !bytes));
  List.rev !out

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

(* Index access paths name indexed attributes, residual predicates resolve
   against the scanned table, and materialized nodes (what crosses from a
   wrapper to the mediator) claim the total length of their batches as
   [count] and hold only batches that pass [check_batch]; those findings
   are reported at the node's path, prefixed with the batch's position. *)
let check_physical plan =
  let out = ref [] in
  let add severity tag path msg =
    let where = String.concat "/" (List.rev_map physical_label path) in
    out := Finding.v severity tag where msg :: !out
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
    | P.Pindex_join { outer; table; binding; inner_attr; _ } ->
      (match table_attr table binding path "index join" inner_attr with
       | Some a when not (T.has_index table a) ->
         add Error "index-access" path
           (Fmt.str "index join probes %s but %s has no index on it" inner_attr
              table.T.name)
       | _ -> ());
      walk path outer
    | P.Pmaterialized { batches; count; _ } ->
      (* the mediator's engine reads these batches without re-checking
         them: each must meet the batched engine's preconditions *)
      List.iteri
        (fun i b ->
          List.iter
            (fun (f : Finding.t) ->
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
