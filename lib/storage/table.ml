(* A stored collection: fixed-size objects packed into pages, optionally
   clustered on one attribute, with secondary B-tree indexes. This is the
   simulated stand-in for the paper's data sources (ObjectStore et al.);
   object placement across pages is what makes index-scan costs follow Yao's
   formula rather than the linear calibrated model. *)

open Disco_common
open Disco_catalog

type tuple = Constant.t array

(* One whole-table column in storage order: unboxed when every cell is an
   Int (resp. Float), boxed otherwise. The vectorized executor's full
   scans, index scans and index joins read these in place (zero-copy
   batches, selection vectors of row positions, gathers) instead of
   transposing boxed cells row by row. Row position [p] of the mirror is
   slot [p mod per_page] of page [p / per_page]. *)
type col =
  | Cints of int array
  | Cfloats of float array
  | Cboxed of Constant.t array

type t = {
  name : string;
  schema : Schema.collection;
  pages : tuple array array;      (* page -> slot -> object *)
  object_size : int;              (* bytes per object *)
  page_size : int;
  fill : float;
  indexes : (string * Btree.t) list;  (* attribute -> index *)
  clustered_on : string option;
  count : int;
  per_page : int;                 (* objects per page; every page but the last is full *)
  columnar : col array;           (* per attribute, whole table, page order *)
  bytes : int;                    (* Constant.byte_size summed over the mirror *)
}

let attr_pos t name =
  match Schema.attr_index t.schema name with
  | Some i -> i
  | None ->
    raise (Err.Unknown_attribute { collection = t.name; attribute = name })

let objects_per_page ~page_size ~fill ~object_size =
  max 1 (int_of_float (float_of_int page_size *. fill) / object_size)

(* Build a table from rows. Rows are paged in the given order (callers
   shuffle beforehand for random placement) unless [cluster_on] asks for
   clustering, in which case rows are sorted by that attribute first. *)
let create ~name ~schema ?(page_size = 4096) ?(fill = 0.96) ~object_size ?cluster_on
    ?(index_on = []) (rows : tuple list) : t =
  let rows =
    match cluster_on with
    | None -> rows
    | Some attr ->
      let pos =
        match Schema.attr_index schema attr with
        | Some i -> i
        | None -> raise (Err.Unknown_attribute { collection = name; attribute = attr })
      in
      List.sort (fun a b -> Constant.compare a.(pos) b.(pos)) rows
  in
  let per_page = objects_per_page ~page_size ~fill ~object_size in
  let arr = Array.of_list rows in
  let count = Array.length arr in
  let n_pages = (count + per_page - 1) / per_page in
  let pages =
    Array.init (max n_pages 0) (fun p ->
        let base = p * per_page in
        Array.init (min per_page (count - base)) (fun s -> arr.(base + s)))
  in
  let index_of attr =
    let pos =
      match Schema.attr_index schema attr with
      | Some i -> i
      | None -> raise (Err.Unknown_attribute { collection = name; attribute = attr })
    in
    (attr, Btree.build (Array.map (fun row -> row.(pos)) arr))
  in
  (* The columnar mirror duplicates the data in unboxed form (cheaper than
     the boxed rows it shadows). Built eagerly, so there is no lazy cell
     for concurrent readers to race on. [arr] is already in page order —
     pages were cut from it above. *)
  let ncols = List.length schema.Schema.attributes in
  let columnar =
    Array.init ncols (fun c ->
        let rec kind i k =
          if i >= count then k
          else
            match arr.(i).(c), k with
            | Constant.Int _, (`Any | `Int) -> kind (i + 1) `Int
            | Constant.Float _, (`Any | `Float) -> kind (i + 1) `Float
            | _ -> `Boxed
        in
        match kind 0 `Any with
        | `Int ->
          Cints
            (Array.init count (fun i ->
                 match arr.(i).(c) with Constant.Int x -> x | _ -> assert false))
        | `Float ->
          Cfloats
            (Array.init count (fun i ->
                 match arr.(i).(c) with Constant.Float x -> x | _ -> assert false))
        | `Any | `Boxed -> Cboxed (Array.init count (fun i -> arr.(i).(c))))
  in
  { name;
    schema;
    pages;
    object_size;
    page_size;
    fill;
    indexes = List.map index_of index_on;
    clustered_on = cluster_on;
    count;
    per_page;
    columnar;
    bytes =
      Array.fold_left
        (fun acc -> function
          | Cints _ | Cfloats _ -> acc + (8 * count)
          | Cboxed a -> Array.fold_left (fun acc v -> acc + Constant.byte_size v) acc a)
        0 columnar }

let page_count t = Array.length t.pages
let count t = t.count
let total_size t = t.count * t.object_size
let columnar t = t.columnar

let page_of t pos = pos / t.per_page

let fetch t pos : tuple = t.pages.(pos / t.per_page).(pos mod t.per_page)

let index t attr = List.assoc_opt attr t.indexes
let has_index t attr = List.mem_assoc attr t.indexes

let iter_pages t f = Array.iteri f t.pages

let fold_pages t init f =
  let acc = ref init in
  Array.iteri (fun p page -> acc := f !acc p page) t.pages;
  !acc

let fold_rows t init f =
  fold_pages t init (fun acc _ page -> Array.fold_left f acc page)

(* All rows, in storage order. *)
let rows t = List.rev (fold_rows t [] (fun acc row -> row :: acc))

let column t attr =
  let pos = attr_pos t attr in
  List.rev (fold_rows t [] (fun acc row -> row.(pos) :: acc))

(* --- Statistics export (the wrapper's cardinality methods, paper §3.2) --- *)

let extent_stats t : Stats.extent =
  Stats.extent ~count_objects:t.count ~total_size:(total_size t)
    ~object_size:t.object_size

let attribute_stats t attr : Stats.attribute =
  let values = column t attr in
  Stats.attribute_of_values ~indexed:(has_index t attr) values

let all_attribute_stats t =
  List.map
    (fun (a : Schema.attribute) ->
      (a.Schema.attr_name, attribute_stats t a.Schema.attr_name))
    t.schema.Schema.attributes
