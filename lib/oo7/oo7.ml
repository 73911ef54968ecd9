(* The OO7 benchmark database [CDN93], as used in the paper's validation
   (§5): AtomicParts with the exact parameters of the index-scan experiment —
   70000 objects of 56 bytes on 1000 pages (4096-byte pages, 96 % fill),
   uniformly distributed ids, an unclustered index on [id] — plus the
   CompositeParts / Connections / Documents structure around them.

   Ids are assigned uniformly and the rows are shuffled before paging, so an
   index scan in id order touches pages in random order: the measured page
   count follows Yao's formula, which is the non-linearity Figure 12 of the
   paper demonstrates. *)

open Disco_common
open Disco_catalog
open Disco_storage
open Disco_exec

type config = {
  atomic_parts : int;
  composite_parts : int;      (* AtomicPart.partOf fan-in *)
  connections_per_part : int; (* outgoing connections per atomic part *)
  documents : int;
  seed : int;
}

(* The paper's §5 parameters. *)
let paper_config =
  { atomic_parts = 70_000;
    composite_parts = 500;
    connections_per_part = 3;
    documents = 500;
    seed = 7 }

(* A small configuration for tests. *)
let small_config =
  { atomic_parts = 2_000;
    composite_parts = 40;
    connections_per_part = 3;
    documents = 40;
    seed = 7 }

let atomic_part_schema =
  Schema.collection "AtomicPart"
    [ ("id", Schema.Tint);
      ("buildDate", Schema.Tint);
      ("x", Schema.Tint);
      ("y", Schema.Tint);
      ("partOf", Schema.Tint) ]

let composite_part_schema =
  Schema.collection "CompositePart"
    [ ("id", Schema.Tint); ("buildDate", Schema.Tint); ("docId", Schema.Tint) ]

let connection_schema =
  Schema.collection "Connection"
    [ ("fromId", Schema.Tint); ("toId", Schema.Tint); ("length", Schema.Tint) ]

let document_schema =
  Schema.collection "Document"
    [ ("id", Schema.Tint); ("partId", Schema.Tint); ("title", Schema.Tstring) ]

let make_tables (cfg : config) : Table.t list =
  let rng = Rng.create ~seed:cfg.seed in
  let atomic_rows =
    List.init cfg.atomic_parts (fun i ->
        [| Constant.Int (i + 1);
           Constant.Int (Rng.int rng 1000);
           Constant.Int (Rng.int rng 100_000);
           Constant.Int (Rng.int rng 100_000);
           Constant.Int (1 + Rng.int rng (max cfg.composite_parts 1)) |])
  in
  (* random placement: shuffle before paging (unclustered extent) *)
  let arr = Array.of_list atomic_rows in
  Rng.shuffle rng arr;
  let atomic =
    Table.create ~name:"AtomicPart" ~schema:atomic_part_schema ~object_size:56
      ~page_size:4096 ~fill:0.96 ~index_on:[ "id"; "buildDate" ]
      (Array.to_list arr)
  in
  let composite_rows =
    List.init cfg.composite_parts (fun i ->
        [| Constant.Int (i + 1);
           Constant.Int (Rng.int rng 1000);
           Constant.Int (1 + Rng.int rng (max cfg.documents 1)) |])
  in
  let composite =
    Table.create ~name:"CompositePart" ~schema:composite_part_schema ~object_size:40
      ~cluster_on:"id" ~index_on:[ "id" ] composite_rows
  in
  let connection_rows =
    List.concat_map
      (fun from ->
        List.init cfg.connections_per_part (fun _ ->
            [| Constant.Int (from + 1);
               Constant.Int (1 + Rng.int rng cfg.atomic_parts);
               Constant.Int (1 + Rng.int rng 100) |]))
      (List.init cfg.atomic_parts Fun.id)
  in
  let conn_arr = Array.of_list connection_rows in
  Rng.shuffle rng conn_arr;
  let connection =
    Table.create ~name:"Connection" ~schema:connection_schema ~object_size:24
      ~index_on:[ "fromId"; "toId" ] (Array.to_list conn_arr)
  in
  let document_rows =
    List.init cfg.documents (fun i ->
        [| Constant.Int (i + 1);
           Constant.Int (1 + Rng.int rng (max cfg.composite_parts 1));
           Constant.String (Fmt.str "doc-%04d" (i + 1)) |])
  in
  let document =
    Table.create ~name:"Document" ~schema:document_schema ~object_size:64
      ~cluster_on:"id" ~index_on:[ "id" ] document_rows
  in
  [ atomic; composite; connection; document ]

(* The Yao-based cost rules of the paper's Fig 13, generalized over the
   collection (the wrapper-scope version; Fig 13 itself is the
   [select(Collection, Id = value)] instance). *)
let yao_rules =
  {|
  let IO = 25; let Output = 9; let Eval = 0.4; let Startup = 120; let Probe = 12;
  let PageSize = 4096; let Fill = 0.96;
  let Huge = 1e18;

  rule scan(C) {
    CountObject = C.CountObject;
    TotalSize = C.TotalSize;
    TimeFirst = Startup + IO;
    TotalTime = Startup + IO * ceil(C.TotalSize / (PageSize * Fill))
                + Output * C.CountObject;
    TimeNext = (TotalTime - TimeFirst) / max(C.CountObject, 1);
  }

  rule select(C, P) {
    CountObject = C.CountObject * sel(P);
    TotalSize = CountObject * C.ObjectSize;
    TimeFirst = C.TimeFirst + Eval + adtcost(P);
    TotalTime = C.TotalTime + (Eval + adtcost(P)) * C.CountObject;
    TimeNext = (TotalTime - TimeFirst) / max(CountObject, 1);
  }

  // Figure 13: index scan costed with Yao's page-fetch formula.
  rule select(C, P) {
    CountPage = ceil(C.TotalSize / (PageSize * Fill));
    CountObject = C.CountObject * sel(P);
    TotalSize = CountObject * C.ObjectSize;
    TimeFirst = if(indexed(P), Startup + 3 * Probe + IO, Huge);
    TotalTime = if(indexed(P),
                   Startup + 3 * Probe
                   + IO * CountPage * yao(C.CountObject, CountPage, CountObject)
                   + Output * CountObject,
                   Huge);
  }

  // Index join: probe the inner index per outer object; the IO is the
  // number of distinct inner pages the fetches touch (Yao again, this time
  // over the result cardinality).
  rule join(C1, C2, P) {
    CountPage2 = ceil(C2.TotalSize / (PageSize * Fill));
    CountObject = C1.CountObject * C2.CountObject * sel(P);
    TotalSize = CountObject * (C1.ObjectSize + C2.ObjectSize);
    TimeFirst = if(rindexed(P), C1.TimeFirst + 3 * Probe + IO, Huge);
    TotalTime = if(rindexed(P),
                   C1.TotalTime + C1.CountObject * 3 * Probe
                   + IO * CountPage2 * yao(C2.CountObject, CountPage2, CountObject)
                   + Output * CountObject,
                   Huge);
  }
  |}

(* The ObjectStore-backed OO7 source. [with_rules] controls whether the
   wrapper exports the Yao cost rules (the paper's proposal) or only
   statistics (the baseline calibrating approach of [GST96]). *)
let make_source ?(config = paper_config) ?(with_rules = true) ?(buffer_pages = 2048) () :
    Disco_wrapper.Wrapper.t =
  Disco_wrapper.Wrapper.create ~name:"oo7" ~engine:Costs.objectstore
    ~network:Costs.lan ~buffer_pages
    ~rules_text:(if with_rules then yao_rules else "")
    (make_tables config)

(* Reset the wrapper's buffer pool between measurements (cold-cache runs). *)
let cold_cache (w : Disco_wrapper.Wrapper.t) = Buffer.clear w.Disco_wrapper.Wrapper.buffer

(* --- The OO7 query workload [CDN93] ---------------------------------------

   The subset of the OO7 queries expressible in the mediator algebra, scaled
   by the configured database size. The paper's §5 validation uses "queries
   ... from the 007 benchmark"; these drive the workload-level accuracy
   bench. *)

open Disco_algebra

let scan_of collection binding =
  Plan.Scan { Plan.source = "oo7"; collection; binding }

let queries (cfg : config) : (string * Plan.t) list =
  let n = cfg.atomic_parts in
  [ (* Q1: exact-match lookup on AtomicPart ids (index equality) *)
    ( "Q1 exact match (id = k)",
      Plan.Select (scan_of "AtomicPart" "a", Pred.Cmp ("a.id", Pred.Eq, Constant.Int (n / 2)))
    );
    (* Q2: 1% range on buildDate (indexed) *)
    ( "Q2 1% buildDate range",
      Plan.Select
        (scan_of "AtomicPart" "a", Pred.Cmp ("a.buildDate", Pred.Lt, Constant.Int 10)) );
    (* Q3: 10% range on buildDate *)
    ( "Q3 10% buildDate range",
      Plan.Select
        (scan_of "AtomicPart" "a", Pred.Cmp ("a.buildDate", Pred.Lt, Constant.Int 100)) );
    (* Q4: documents of the first composite parts (join via partId) *)
    ( "Q4 Document x CompositePart",
      Plan.Join
        ( Plan.Select
            ( scan_of "Document" "d",
              Pred.Cmp ("d.id", Pred.Le, Constant.Int (max (cfg.documents / 10) 1)) ),
          scan_of "CompositePart" "c",
          Pred.Attr_cmp ("d.partId", Pred.Eq, "c.id") ) );
    (* Q5: composite parts of recently built atomic parts (index join) *)
    ( "Q5 AtomicPart x CompositePart",
      Plan.Join
        ( Plan.Select
            ( scan_of "AtomicPart" "a",
              Pred.Cmp ("a.buildDate", Pred.Lt, Constant.Int 10) ),
          scan_of "CompositePart" "c",
          Pred.Attr_cmp ("a.partOf", Pred.Eq, "c.id") ) );
    (* Q7: full scan of AtomicParts *)
    ("Q7 full scan", scan_of "AtomicPart" "a");
    (* Q8: outgoing connections of a window of atomic parts (index join) *)
    ( "Q8 AtomicPart x Connection",
      Plan.Join
        ( Plan.Select
            (scan_of "AtomicPart" "a", Pred.Cmp ("a.id", Pred.Le, Constant.Int (n / 100))),
          scan_of "Connection" "k",
          Pred.Attr_cmp ("a.id", Pred.Eq, "k.fromId") ) ) ]
