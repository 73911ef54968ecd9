(* A stored collection: fixed-size objects packed into pages, optionally
   clustered on one attribute, with secondary B-tree indexes. This is the
   simulated stand-in for the paper's data sources (ObjectStore et al.);
   object placement across pages is what makes index-scan costs follow Yao's
   formula rather than the linear calibrated model.

   The objects are stored once, column by column, in storage order. A page
   is arithmetic on a position: every page but the last holds [per_page]
   objects, so position [p] sits on page [p / per_page]. Scans, index
   postings ({!Btree}), the executor's batches and the statistics export all
   read these columns; a boxed row exists only while a caller holds it. *)

open Disco_common
open Disco_catalog

type tuple = Constant.t array

(* One whole-table column: unboxed when every cell is an Int (resp.
   Float), boxed otherwise. The executor's batches use this type for their
   own columns, so a scan's batch is the table's column array itself. *)
type col =
  | Ints of int array
  | Floats of float array
  | Boxed of Constant.t array

(* Box cell [i]. *)
let cell c i =
  match c with
  | Ints a -> Constant.Int a.(i)
  | Floats a -> Constant.Float a.(i)
  | Boxed a -> a.(i)

(* [Constant.byte_size] summed over cells [0 .. n - 1] of every column, or
   over cells [sel.(0)] .. [sel.(n - 1)]. An unboxed cell is 8 bytes. *)
let cols_bytes ?sel cols n =
  Array.fold_left
    (fun acc c ->
      match c, sel with
      | (Ints _ | Floats _), _ -> acc + (8 * n)
      | Boxed a, None ->
        let s = ref acc in
        for i = 0 to n - 1 do
          s := !s + Constant.byte_size a.(i)
        done;
        !s
      | Boxed a, Some sel ->
        let s = ref acc in
        for k = 0 to n - 1 do
          s := !s + Constant.byte_size a.(Array.unsafe_get sel k)
        done;
        !s)
    0 cols

type t = {
  name : string;
  schema : Schema.collection;
  object_size : int;              (* bytes per object *)
  indexes : (string * Btree.t) list;  (* attribute -> index *)
  clustered_on : string option;
  count : int;
  per_page : int;                 (* objects per page; every page but the last is full *)
  columns : col array;            (* per attribute, whole table, storage order *)
  bytes : int;                    (* Constant.byte_size summed over the columns *)
}

let attr_pos t name =
  match Schema.attr_index t.schema name with
  | Some i -> i
  | None ->
    raise (Err.Unknown_attribute { collection = t.name; attribute = name })

let objects_per_page ~page_size ~fill ~object_size =
  max 1 (int_of_float (float_of_int page_size *. fill) / object_size)

(* Column [c] of the rows [arr], unboxed when every cell allows it. *)
let column_of (arr : tuple array) c =
  let n = Array.length arr in
  let rec kind i k =
    if i >= n then k
    else
      match arr.(i).(c), k with
      | Constant.Int _, (`Any | `Int) -> kind (i + 1) `Int
      | Constant.Float _, (`Any | `Float) -> kind (i + 1) `Float
      | _ -> `Boxed
  in
  match kind 0 `Any with
  | `Int ->
    Ints (Array.init n (fun i -> match arr.(i).(c) with Constant.Int x -> x | _ -> assert false))
  | `Float ->
    Floats
      (Array.init n (fun i -> match arr.(i).(c) with Constant.Float x -> x | _ -> assert false))
  | `Any | `Boxed -> Boxed (Array.init n (fun i -> arr.(i).(c)))

(* Build a table from rows. Rows are stored in the given order (callers
   shuffle beforehand for random placement) unless [cluster_on] asks for
   clustering, in which case rows are stably sorted by that attribute
   first. *)
let create ~name ~schema ?(page_size = 4096) ?(fill = 0.96) ~object_size ?cluster_on
    ?(index_on = []) (rows : tuple list) : t =
  let attr_index attr =
    match Schema.attr_index schema attr with
    | Some i -> i
    | None -> raise (Err.Unknown_attribute { collection = name; attribute = attr })
  in
  let rows =
    match cluster_on with
    | None -> rows
    | Some attr ->
      let pos = attr_index attr in
      List.stable_sort (fun a b -> Constant.compare a.(pos) b.(pos)) rows
  in
  let arr = Array.of_list rows in
  let count = Array.length arr in
  let columns = Array.init (List.length schema.Schema.attributes) (column_of arr) in
  (* the keys are the input rows' own cells: boxing an unboxed column
     afresh leaves a dead box per row around the keys the index keeps,
     and the OO7 queries measured a few percent slower that way *)
  let index_of attr =
    let pos = attr_index attr in
    (attr, Btree.build (Array.map (fun row -> row.(pos)) arr))
  in
  { name;
    schema;
    object_size;
    indexes = List.map index_of index_on;
    clustered_on = cluster_on;
    count;
    per_page = objects_per_page ~page_size ~fill ~object_size;
    columns;
    bytes = cols_bytes columns count }

let page_count t = (t.count + t.per_page - 1) / t.per_page
let count t = t.count
let total_size t = t.count * t.object_size

let page_of t pos = pos / t.per_page

let fetch t pos : tuple = Array.map (fun c -> cell c pos) t.columns

let index t attr = List.assoc_opt attr t.indexes
let has_index t attr = List.mem_assoc attr t.indexes

let iter_pages t f =
  for p = 0 to page_count t - 1 do
    let lo = p * t.per_page in
    f p lo (min t.count (lo + t.per_page))
  done

(* All rows, in storage order. *)
let rows t = List.init t.count (fetch t)

let column t attr = List.init t.count (cell t.columns.(attr_pos t attr))

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
