(* Tests for lib/storage: B-tree index, paged tables, LRU buffer pool. *)

open Disco_common
open Disco_catalog
open Disco_storage

(* --- Btree -------------------------------------------------------------------- *)

(* An index over positions 0 .. n-1, position [p] keyed by the [p]-th key. *)
let mk_index keys = Btree.build (Array.of_list (List.map (fun k -> Constant.Int k) keys))

(* Row positions of [key op k], in index order. *)
let search idx op k =
  let acc = ref [] in
  Btree.iter_spans idx op k (fun lo hi ->
      for o = lo to hi - 1 do
        acc := idx.Btree.postings.(o) :: !acc
      done);
  List.rev !acc

let lookup idx k = search idx Cmp.Eq k

let test_btree_lookup () =
  let idx = mk_index [ 5; 1; 5; 9 ] in
  Alcotest.(check int) "key count" 3 (Btree.key_count idx);
  Alcotest.(check int) "dup postings" 2 (List.length (lookup idx (Constant.Int 5)));
  Alcotest.(check int) "single" 1 (List.length (lookup idx (Constant.Int 1)));
  Alcotest.(check int) "missing" 0 (List.length (lookup idx (Constant.Int 7)));
  Alcotest.(check int) "find missing" (-1) (Btree.find idx (Constant.Int 7));
  Alcotest.(check int) "find_int = find" (Btree.find idx (Constant.Int 9))
    (Btree.find_int idx 9);
  Alcotest.(check int) "find_float = find" (Btree.find idx (Constant.Int 5))
    (Btree.find_float idx 5.)

let test_btree_range () =
  let idx = mk_index (List.init 10 Fun.id) in
  let range op k = search idx op (Constant.Int k) in
  Alcotest.(check (list int)) "le 3" [ 0; 1; 2; 3 ] (range Cmp.Le 3);
  Alcotest.(check (list int)) "lt 3" [ 0; 1; 2 ] (range Cmp.Lt 3);
  Alcotest.(check (list int)) "ge 7" [ 7; 8; 9 ] (range Cmp.Ge 7);
  Alcotest.(check (list int)) "gt 7" [ 8; 9 ] (range Cmp.Gt 7);
  (* spans are runs of posting offsets in key order, so a two-sided range
     is the overlap of two one-sided spans *)
  let offsets op k =
    let r = ref (0, 0) in
    Btree.iter_spans idx op (Constant.Int k) (fun lo hi -> r := (lo, hi));
    !r
  in
  let lo, _ = offsets Cmp.Ge 3 and _, hi = offsets Cmp.Lt 5 in
  Alcotest.(check (list int)) "between" [ 3; 4 ]
    (List.init (hi - lo) (fun i -> idx.Btree.postings.(lo + i)));
  Alcotest.(check int) "all" 10 (List.length (range Cmp.Ne (-1)))

let test_btree_search_ops () =
  let idx = mk_index (List.init 10 Fun.id) in
  let count op v =
    let n = List.length (search idx op (Constant.Int v)) in
    Alcotest.(check int) "count = span length" n (Btree.count idx op (Constant.Int v));
    n
  in
  Alcotest.(check int) "eq" 1 (count Cmp.Eq 4);
  Alcotest.(check int) "ne" 9 (count Cmp.Ne 4);
  Alcotest.(check int) "lt" 4 (count Cmp.Lt 4);
  Alcotest.(check int) "le" 5 (count Cmp.Le 4);
  Alcotest.(check int) "gt" 5 (count Cmp.Gt 4);
  Alcotest.(check int) "ge" 6 (count Cmp.Ge 4)

let op_of = function
  | 0 -> Cmp.Eq
  | 1 -> Cmp.Ne
  | 2 -> Cmp.Lt
  | 3 -> Cmp.Le
  | 4 -> Cmp.Gt
  | _ -> Cmp.Ge

let prop_btree_vs_naive =
  QCheck2.Test.make ~name:"btree search = naive filter" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (int_range 0 20))
        (pair (int_range (-2) 22) (int_range 0 5)))
    (fun (keys, (v, opn)) ->
      let op = op_of opn in
      let idx = mk_index keys in
      let expected =
        List.filter (fun k -> Cmp.eval op (Constant.Int k) (Constant.Int v)) keys
      in
      List.length (search idx op (Constant.Int v)) = List.length expected)

let test_btree_rids_in_key_order () =
  (* keys 3, 1, 2 at positions 0, 1, 2: postings list them by key *)
  let idx = mk_index [ 3; 1; 2 ] in
  Alcotest.(check (list int)) "key order" [ 1; 2; 0 ] (search idx Cmp.Ne (Constant.Int 0))

(* The record-id lists the index kept before its postings went flat: every
   stored row's (key, (page, slot)) consed in storage order — so the list
   runs last row first — stably sorted by key and grouped under each
   group's first key; a search concatenates the matching groups in key
   order. [keys] are the stored rows' keys in storage order. *)
let model_rids keys ~per_page op k =
  let entries = List.rev (List.mapi (fun i key -> (key, (i / per_page, i mod per_page))) keys) in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Constant.compare a b) entries in
  let rec group = function
    | [] -> []
    | (key, r) :: rest ->
      let rec same acc = function
        | (k', r') :: rest when Constant.compare key k' = 0 -> same (r' :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let rids, rest = same [ r ] rest in
      (key, rids) :: group rest
  in
  List.concat_map
    (fun (key, rids) -> if Cmp.eval op key k then rids else [])
    (group sorted)

let kv_schema = Schema.collection "Kv" [ ("k", Schema.Tint); ("v", Schema.Tint) ]

(* The rows a table stores, in storage order: the input, stably sorted on
   the clustering attribute if there is one. *)
let stored_order ?cluster_on rows =
  match cluster_on with
  | None -> rows
  | Some c -> List.stable_sort (fun a b -> Constant.compare a.(c) b.(c)) rows

(* Cells equal by constructor and value, floats by bits (NaN, -0.0). *)
let same_cell a b =
  match a, b with
  | Constant.Float x, Constant.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Constant.Float _, _ | _, Constant.Float _ -> false
  | a, b -> a = b

let same_row a b = Array.length a = Array.length b && Array.for_all2 same_cell a b

(* Random tables with duplicate keys, some of them Null or an integral
   Float (equal to the Int under [Constant.compare]), clustered or not, at
   several objects per page; probes of every operator, absent keys
   included. The flat index must replay the model's (page, slot) sequence
   exactly, count its length, and fetch the input row stored there. *)
let prop_flat_index_vs_rid_lists =
  let open QCheck2.Gen in
  let key =
    frequency
      [ (8, map (fun x -> Constant.Int x) (int_range 0 12));
        (1, map (fun x -> Constant.Float (float_of_int x)) (int_range 0 12));
        (1, pure Constant.Null) ]
  in
  let gen =
    let* keys = list_size (int_range 0 150) key in
    let* clustered = bool and* object_size = oneofl [ 56; 700; 2000 ] in
    let* probes =
      list_size (int_range 1 8)
        (pair (int_range 0 5)
           (frequency
              [ (6, map (fun x -> Constant.Int x) (int_range (-1) 14));
                (1, pure (Constant.Float 2.5));
                (1, pure Constant.Null) ]))
    in
    pure (keys, clustered, object_size, probes)
  in
  QCheck2.Test.make ~name:"flat index = rid-list model" ~count:300 gen
    (fun (keys, clustered, object_size, probes) ->
      let rows = List.mapi (fun i k -> [| k; Constant.Int i |]) keys in
      let t =
        Table.create ~name:"Kv" ~schema:kv_schema ~object_size
          ?cluster_on:(if clustered then Some "k" else None)
          ~index_on:[ "k" ] rows
      in
      let idx = Option.get (Table.index t "k") in
      let stored = Array.of_list (stored_order ?cluster_on:(if clustered then Some 0 else None) rows) in
      let per_page = Table.objects_per_page ~page_size:4096 ~fill:0.96 ~object_size in
      let stored_keys = Array.to_list (Array.map (fun row -> row.(0)) stored) in
      List.for_all
        (fun (opn, v) ->
          let op = op_of opn in
          let got =
            List.map
              (fun p ->
                let page = Table.page_of t p in
                (page, p - (page * t.Table.per_page)))
              (search idx op v)
          in
          let want = model_rids stored_keys ~per_page op v in
          got = want
          && Btree.count idx op v = List.length want
          && List.for_all2
               (fun p (page, slot) -> same_row (Table.fetch t p) stored.((page * per_page) + slot))
               (search idx op v) want)
        probes)

(* Words allocated on this domain so far (minor and direct-major), exact
   after forcing a minor collection and a major slice. *)
let allocated_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Access-path selection counts an index's matches on every wrapper
   execution: two binary searches and a subtraction, nothing allocated. *)
let test_btree_count_allocates_nothing () =
  let idx = mk_index (List.init 5_000 (fun i -> i mod 97)) in
  let probe = Sys.opaque_identity (Constant.Int 40) in
  let ops = [| Cmp.Eq; Cmp.Ne; Cmp.Lt; Cmp.Le; Cmp.Gt; Cmp.Ge |] in
  let sum = ref 0 in
  let before = allocated_words () in
  for i = 1 to 6_000 do
    sum := !sum + Btree.count idx ops.(i mod 6) probe
  done;
  let words = allocated_words () -. before in
  Alcotest.(check bool) "counted" true (!sum > 0);
  if words > 64. then Alcotest.failf "%.0f words for 6,000 counts" words

(* Postings cost one word per row and one per key: the index keeps at most
   2n words besides its keys (plus a few headers), against about 7n as
   lists of (page, slot) records. *)
let test_btree_retained_size () =
  let n = 20_000 in
  let unique = Btree.build (Array.init n (fun i -> Constant.Int ((i * 7919) mod n))) in
  let dups = Btree.build (Array.init n (fun i -> Constant.Int (i mod 50))) in
  List.iter
    (fun (name, idx) ->
      let words =
        Obj.reachable_words (Obj.repr idx) - Obj.reachable_words (Obj.repr idx.Btree.keys)
      in
      if words > (2 * n) + 16 then
        Alcotest.failf "%s: %d words over %d rows besides the keys" name words n)
    [ ("unique keys", unique); ("50 keys", dups) ]

(* --- Table ------------------------------------------------------------------------ *)

let part_schema =
  Schema.collection "Part" [ ("id", Schema.Tint); ("weight", Schema.Tint) ]

let part_rows n = List.init n (fun i -> [| Constant.Int (i + 1); Constant.Int (i mod 10) |])

let mk_table ?cluster_on ?(index_on = []) ?(object_size = 56) n =
  Table.create ~name:"Part" ~schema:part_schema ~object_size ~page_size:4096 ~fill:0.96
    ?cluster_on ~index_on (part_rows n)

let test_table_paging_paper_parameters () =
  (* the paper's §5 parameters: 56-byte objects, 4096-byte pages, 96% fill
     -> 70 objects per page; 70000 objects -> 1000 pages *)
  Alcotest.(check int) "objects per page" 70
    (Table.objects_per_page ~page_size:4096 ~fill:0.96 ~object_size:56);
  let t = mk_table 70_000 in
  Alcotest.(check int) "1000 pages" 1000 (Table.page_count t);
  Alcotest.(check int) "count" 70_000 (Table.count t);
  Alcotest.(check int) "total size" (70_000 * 56) (Table.total_size t)

let test_table_fetch_and_rows () =
  let t = mk_table 100 in
  Alcotest.(check int) "rows" 100 (List.length (Table.rows t));
  let r = Table.fetch t 3 in
  Alcotest.(check bool) "fetch slot" true (Constant.equal r.(0) (Constant.Int 4));
  (* 70 objects per page: position 75 is slot 5 of page 1 *)
  Alcotest.(check int) "page of" 1 (Table.page_of t 75);
  Alcotest.(check bool) "fetch on a later page" true
    (same_row (Table.fetch t 75) (List.nth (part_rows 100) 75))

let test_table_clustering () =
  let rows =
    [ [| Constant.Int 3; Constant.Int 0 |];
      [| Constant.Int 1; Constant.Int 0 |];
      [| Constant.Int 2; Constant.Int 0 |] ]
  in
  let t =
    Table.create ~name:"Part" ~schema:part_schema ~object_size:56 ~cluster_on:"id" rows
  in
  Alcotest.(check (list bool)) "sorted by id" [ true; true; true ]
    (List.mapi
       (fun i row -> Constant.equal row.(0) (Constant.Int (i + 1)))
       (Table.rows t));
  Alcotest.(check (option string)) "clustered_on" (Some "id") t.Table.clustered_on

let test_table_indexes () =
  let t = mk_table ~index_on:[ "id" ] 500 in
  Alcotest.(check bool) "has id index" true (Table.has_index t "id");
  Alcotest.(check bool) "no weight index" false (Table.has_index t "weight");
  let idx = Option.get (Table.index t "id") in
  (* each posting resolves to the object with the matching key *)
  let rids = lookup idx (Constant.Int 123) in
  Alcotest.(check int) "one match" 1 (List.length rids);
  let row = Table.fetch t (List.hd rids) in
  Alcotest.(check bool) "resolves" true (Constant.equal row.(0) (Constant.Int 123))

let test_table_stats () =
  let t = mk_table ~index_on:[ "id" ] 500 in
  let e = Table.extent_stats t in
  Alcotest.(check int) "count" 500 e.Stats.count_objects;
  let a = Table.attribute_stats t "weight" in
  Alcotest.(check int) "distinct weights" 10 a.Stats.count_distinct;
  Alcotest.(check bool) "weight unindexed" false a.Stats.indexed;
  let id_stats = Table.attribute_stats t "id" in
  Alcotest.(check bool) "id indexed" true id_stats.Stats.indexed;
  Alcotest.(check bool) "id max" true (Constant.equal id_stats.Stats.max (Constant.Int 500))

let test_table_unknown_attr () =
  let t = mk_table 10 in
  Alcotest.(check bool) "unknown attr raises" true
    (try
       ignore (Table.column t "nope");
       false
     with Disco_common.Err.Unknown_attribute _ -> true)

(* Random tables of 1 to 4 columns, each all Int, all Float (NaN and -0.0
   among them), all String, all Null, Int and Float mixed, or of any kind;
   empty ones included, clustered on a column or not, at 1, 2 or 70
   objects per page. The table must give back exactly the input rows in
   storage order, page by page. *)
let prop_table_is_input_rows =
  let open QCheck2.Gen in
  let float_cell =
    map
      (fun x -> Constant.Float x)
      (frequency [ (6, float_range (-100.) 100.); (1, oneofl [ Float.nan; -0.0; 0.0; infinity ]) ])
  in
  let int_cell = map (fun x -> Constant.Int x) (int_range (-5) 30) in
  let string_cell = map (fun x -> Constant.String x) (oneofl [ "a"; "b"; ""; "ab" ]) in
  let cell_of = function
    | 0 -> int_cell
    | 1 -> float_cell
    | 2 -> string_cell
    | 3 -> pure Constant.Null
    | 4 -> oneof [ int_cell; float_cell ]
    | _ ->
      oneof [ int_cell; float_cell; string_cell; pure Constant.Null; map (fun b -> Constant.Bool b) bool ]
  in
  let gen =
    let* kinds = list_size (int_range 1 4) (int_range 0 5) in
    let kinds = Array.of_list kinds in
    let* n = frequency [ (1, pure 0); (6, int_range 1 200) ] in
    let* rows = list_repeat n (flatten_a (Array.map cell_of kinds)) in
    let* cluster_on = option (int_range 0 (Array.length kinds - 1))
    and* per_page = oneofl [ 1; 2; 70 ] in
    pure (kinds, rows, cluster_on, per_page)
  in
  let print (kinds, rows, cluster_on, per_page) =
    Fmt.str "kinds=%s cluster_on=%s per_page=%d rows=[%s]"
      (String.concat "," (Array.to_list (Array.map string_of_int kinds)))
      (match cluster_on with None -> "-" | Some c -> string_of_int c)
      per_page
      (String.concat "; "
         (List.map
            (fun r -> String.concat "," (Array.to_list (Array.map Constant.to_string r)))
            rows))
  in
  QCheck2.Test.make ~name:"table = input rows" ~count:300 ~print gen
    (fun (kinds, rows, cluster_on, per_page) ->
      let attrs = Array.to_list (Array.mapi (fun i _ -> (Printf.sprintf "c%d" i, Schema.Tint)) kinds) in
      let t =
        Table.create ~name:"R" ~schema:(Schema.collection "R" attrs) ~object_size:56
          ~page_size:(56 * per_page) ~fill:1.0
          ?cluster_on:(Option.map (fun c -> fst (List.nth attrs c)) cluster_on)
          rows
      in
      let stored = Array.of_list (stored_order ?cluster_on rows) in
      let n = Array.length stored in
      let all p c = Array.for_all (fun row -> p row.(c)) stored in
      let pages = ref [] in
      Table.iter_pages t (fun p lo hi -> pages := (p, lo, hi) :: !pages);
      let pages = List.rev !pages in
      Table.count t = n
      && t.Table.per_page = per_page
      && Table.page_count t = (n + per_page - 1) / per_page
      && List.length pages = Table.page_count t
      && List.for_all2
           (fun i (p, lo, hi) ->
             p = i && lo = i * per_page
             && hi = if i = Table.page_count t - 1 then n else lo + per_page)
           (List.init (List.length pages) Fun.id) pages
      && (n = 0 || List.for_all (fun (_, lo, hi) -> lo < hi && hi - lo <= per_page) pages)
      && Array.for_all Fun.id (Array.mapi (fun p row -> same_row (Table.fetch t p) row) stored)
      && List.for_all2 same_row (Table.rows t) (Array.to_list stored)
      && List.for_all
           (fun (c, (name, _)) ->
             List.for_all2 same_cell (Table.column t name)
               (Array.to_list (Array.map (fun row -> row.(c)) stored)))
           (List.mapi (fun c a -> (c, a)) attrs)
      && t.Table.bytes
         = Array.fold_left
             (fun acc row -> Array.fold_left (fun acc v -> acc + Constant.byte_size v) acc row)
             0 stored
      && Array.for_all Fun.id
           (Array.mapi
              (fun c col ->
                let ints = n > 0 && all (function Constant.Int _ -> true | _ -> false) c
                and floats = n > 0 && all (function Constant.Float _ -> true | _ -> false) c in
                match col with
                | Table.Ints _ -> ints
                | Table.Floats _ -> floats
                | Table.Boxed _ -> not (ints || floats))
              t.Table.columns))

(* A table keeps its objects once, as columns: 20,000 rows of four Int
   columns and no index retain, besides the schema, one word per cell plus
   a few headers. *)
let test_table_retained_size () =
  let n = 20_000 and k = 4 in
  let schema = Schema.collection "W" (List.init k (fun c -> (Printf.sprintf "c%d" c, Schema.Tint))) in
  let t =
    Table.create ~name:"W" ~schema ~object_size:56
      (List.init n (fun i -> Array.init k (fun c -> Constant.Int ((i * (c + 3)) mod 1000))))
  in
  let words = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr schema) in
  if words > (k * n) + 64 then
    Alcotest.failf "%d words for %d rows of %d Int columns (%.1f per row)" words n k
      (float_of_int words /. float_of_int n)

(* --- Buffer ------------------------------------------------------------------------- *)

let test_buffer_miss_then_hit () =
  let b = Buffer.create ~capacity:4 in
  Alcotest.(check bool) "first access misses" true (Buffer.access b ~table:"t" ~page:0);
  Alcotest.(check bool) "second access hits" false (Buffer.access b ~table:"t" ~page:0);
  Alcotest.(check int) "hits" 1 (Buffer.hits b);
  Alcotest.(check int) "misses" 1 (Buffer.misses b)

let test_buffer_lru_eviction () =
  let b = Buffer.create ~capacity:2 in
  ignore (Buffer.access b ~table:"t" ~page:0);
  ignore (Buffer.access b ~table:"t" ~page:1);
  ignore (Buffer.access b ~table:"t" ~page:0);  (* 0 is now most recent *)
  ignore (Buffer.access b ~table:"t" ~page:2);  (* evicts 1 *)
  Alcotest.(check bool) "0 still resident" false (Buffer.access b ~table:"t" ~page:0);
  Alcotest.(check bool) "1 evicted" true (Buffer.access b ~table:"t" ~page:1)

let test_buffer_capacity_bound () =
  let b = Buffer.create ~capacity:8 in
  for i = 0 to 99 do
    ignore (Buffer.access b ~table:"t" ~page:i)
  done;
  Alcotest.(check bool) "resident bounded" true (Buffer.resident b <= 8)

let test_buffer_distinct_pages_when_large () =
  (* with capacity >= distinct pages, misses = distinct pages regardless of
     the access pattern *)
  let b = Buffer.create ~capacity:100 in
  let rng = Rng.create ~seed:1 in
  let distinct = Hashtbl.create 16 in
  for _ = 1 to 1000 do
    let p = Rng.int rng 50 in
    Hashtbl.replace distinct p ();
    ignore (Buffer.access b ~table:"t" ~page:p)
  done;
  Alcotest.(check int) "misses = distinct" (Hashtbl.length distinct) (Buffer.misses b)

let test_buffer_clear () =
  let b = Buffer.create ~capacity:4 in
  ignore (Buffer.access b ~table:"t" ~page:0);
  Buffer.clear b;
  Alcotest.(check int) "cleared misses" 0 (Buffer.misses b);
  Alcotest.(check bool) "page gone" true (Buffer.access b ~table:"t" ~page:0)

let test_buffer_tables_disjoint () =
  let b = Buffer.create ~capacity:4 in
  ignore (Buffer.access b ~table:"a" ~page:0);
  Alcotest.(check bool) "same page other table misses" true
    (Buffer.access b ~table:"b" ~page:0)

let prop_buffer_misses_bounded =
  QCheck2.Test.make ~name:"distinct <= misses <= accesses" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 100) (int_range 0 15)))
    (fun (cap, pages) ->
      let b = Buffer.create ~capacity:cap in
      List.iter (fun p -> ignore (Buffer.access b ~table:"t" ~page:p)) pages;
      let distinct = List.length (List.sort_uniq compare pages) in
      Buffer.misses b >= distinct && Buffer.misses b <= List.length pages)

(* A naive exact LRU: resident keys, most recent first. *)
let model_access (resident, cap) key =
  if List.mem key resident then (false, (key :: List.filter (( <> ) key) resident, cap))
  else
    let kept = if List.length resident >= cap then List.filteri (fun i _ -> i < cap - 1) resident else resident in
    (true, (key :: kept, cap))

type op = Access of int * int | Clear

let prop_buffer_model =
  let tables = [| "a"; "b"; "c" |] in
  QCheck2.Test.make ~name:"exact LRU = naive list model" ~count:500
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 1 3)
        (list_size (int_range 0 200)
           (frequency
              [ (24, map2 (fun t p -> Access (t, p)) (int_range 0 2) (int_range 0 11));
                (* pages far past the ones seen so far grow a table's page
                   array *)
                (6, map2 (fun t p -> Access (t, p)) (int_range 0 2) (int_range 0 5000));
                (1, pure Clear) ])))
    (fun (cap, ntables, ops) ->
      let b = Buffer.create ~capacity:cap in
      let model = ref ([], cap) and hits = ref 0 and misses = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Clear ->
            Buffer.clear b;
            model := ([], cap);
            hits := 0;
            misses := 0;
            Buffer.resident b = 0 && Buffer.hits b = 0 && Buffer.misses b = 0
          | Access (t, page) ->
            let t = t mod ntables in
            let want, m = model_access !model (t, page) in
            model := m;
            if want then incr misses else incr hits;
            let got = Buffer.access b ~table:tables.(t) ~page in
            got = want
            && Buffer.resident b = List.length (fst m)
            && Buffer.hits b = !hits
            && Buffer.misses b = !misses)
        ops)

(* A pool that never fills keeps a bounded footprint: a million hits on 100
   resident pages must not grow it with the number of accesses. *)
let test_buffer_bounded_memory () =
  let b = Buffer.create ~capacity:2048 in
  for i = 1 to 1_000_000 do
    ignore (Buffer.access b ~table:"t" ~page:(i mod 100))
  done;
  Alcotest.(check int) "resident" 100 (Buffer.resident b);
  Alcotest.(check int) "misses" 100 (Buffer.misses b);
  let words = Obj.reachable_words (Obj.repr b) in
  if words > 2_000 then Alcotest.failf "%d words reachable after 10^6 hits" words

(* The pool's memory is O(capacity) words plus the page arrays: after every
   page 0 .. P-1 of k tables, at most two words per page (an array doubles
   to cover the highest page accessed), whatever the access count. *)
let test_buffer_page_arrays_memory () =
  let capacity = 64 and k = 3 and p = 1500 in
  let b = Buffer.create ~capacity in
  for round = 1 to 3 do
    for t = 0 to k - 1 do
      for page = 0 to p - 1 do
        ignore (Buffer.access b ~table:(Printf.sprintf "t%d" t) ~page)
      done
    done;
    if round = 2 then Buffer.clear b
  done;
  Alcotest.(check int) "resident" capacity (Buffer.resident b);
  let words = Obj.reachable_words (Obj.repr b) in
  let bound = (8 * capacity) + (2 * k * p) + 512 in
  if words > bound then
    Alcotest.failf "%d words reachable (bound %d: capacity %d, %d tables of %d pages)" words
      bound capacity k p

let test_buffer_negative_page () =
  let b = Buffer.create ~capacity:4 in
  Alcotest.check_raises "negative page" (Invalid_argument "Buffer.access: negative page")
    (fun () -> ignore (Buffer.access b ~table:"t" ~page:(-1)));
  Alcotest.(check int) "nothing counted" 0 (Buffer.hits b + Buffer.misses b)

let () =
  Alcotest.run "storage"
    [ ( "btree",
        [ Alcotest.test_case "lookup" `Quick test_btree_lookup;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "search operators" `Quick test_btree_search_ops;
          Alcotest.test_case "rids in key order" `Quick test_btree_rids_in_key_order;
          Alcotest.test_case "count allocates nothing" `Quick
            test_btree_count_allocates_nothing;
          Alcotest.test_case "retained size" `Quick test_btree_retained_size;
          QCheck_alcotest.to_alcotest prop_btree_vs_naive;
          QCheck_alcotest.to_alcotest prop_flat_index_vs_rid_lists ] );
      ( "table",
        [ Alcotest.test_case "paper paging parameters" `Quick
            test_table_paging_paper_parameters;
          Alcotest.test_case "fetch and rows" `Quick test_table_fetch_and_rows;
          Alcotest.test_case "clustering" `Quick test_table_clustering;
          Alcotest.test_case "indexes" `Quick test_table_indexes;
          Alcotest.test_case "statistics" `Quick test_table_stats;
          Alcotest.test_case "unknown attribute" `Quick test_table_unknown_attr;
          Alcotest.test_case "retained size" `Quick test_table_retained_size;
          QCheck_alcotest.to_alcotest prop_table_is_input_rows ] );
      ( "buffer",
        [ Alcotest.test_case "miss then hit" `Quick test_buffer_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_buffer_lru_eviction;
          Alcotest.test_case "capacity bound" `Quick test_buffer_capacity_bound;
          Alcotest.test_case "distinct pages" `Quick test_buffer_distinct_pages_when_large;
          Alcotest.test_case "clear" `Quick test_buffer_clear;
          Alcotest.test_case "tables disjoint" `Quick test_buffer_tables_disjoint;
          Alcotest.test_case "bounded memory" `Quick test_buffer_bounded_memory;
          Alcotest.test_case "page arrays memory" `Quick test_buffer_page_arrays_memory;
          Alcotest.test_case "negative page" `Quick test_buffer_negative_page;
          QCheck_alcotest.to_alcotest prop_buffer_misses_bounded;
          QCheck_alcotest.to_alcotest prop_buffer_model ] ) ]
