(* A wrapper: the interface between the mediator and one data source (paper
   §2). During the registration phase it exports a [source] declaration —
   interfaces with cardinality sections computed from the actual data, plus
   whatever cost rules its implementor wrote (possibly none: the mediator's
   generic model then covers the source). During the query phase it accepts
   logical subplans, translates them to physical plans over its stored
   tables, executes them on the simulated engine and returns objects plus
   measured costs. *)

open Disco_common
open Disco_catalog
open Disco_algebra
open Disco_costlang
open Disco_storage
open Disco_exec

type t = {
  name : string;
  engine : Costs.engine;
  network : Costs.network;
  buffer : Buffer.t;
  tables : (string * Table.t) list;
  rules_text : string;  (* cost-language items exported at registration *)
  adts : Adt.t list;    (* ADT operation implementations (paper §7) *)
  export_adt_costs : bool;  (* export AdtCost_/AdtSel_ parameters *)
  (* communication-fault injector, consulted by the mediator's submit policy;
     orthogonal to the wrapper's tables and cost rules *)
  mutable fault : Disco_fault.Fault.t option;
}

let create ~name ~engine ~network ?(buffer_pages = 2048) ?(rules_text = "")
    ?(adts = []) tables =
  { name;
    engine;
    network;
    buffer = Buffer.create ~capacity:buffer_pages;
    tables = List.map (fun (tbl : Table.t) -> (tbl.Table.name, tbl)) tables;
    rules_text;
    adts;
    export_adt_costs = true;
    fault = None }

let install_fault t profile =
  t.fault <- Some (Disco_fault.Fault.install profile ~source:t.name)

let clear_fault t = t.fault <- None

(* The same wrapper, exporting statistics but no cost rules or ADT costs: the
   baseline calibrating behaviour, used by the validation benches. *)
let without_rules t = { t with rules_text = ""; export_adt_costs = false }

let find_table t name =
  match List.assoc_opt name t.tables with
  | Some tbl -> tbl
  | None -> raise (Err.Unknown_collection (t.name ^ "." ^ name))

let table_names t = List.map fst t.tables

(* The wrapper's sample-export method (§4.3): raw column values the mediator
   turns into histograms at registration or on feedback-driven refresh. A
   real wrapper would subsample server-side; the mediator's histogram builder
   subsamples deterministically anyway, so the simulated one just ships the
   column. *)
let sample_values t ~collection ~attr = Table.column (find_table t collection) attr

(* --- Registration phase --------------------------------------------------- *)

(* The wrapper's [cardinality] methods (paper §3.2): statistics computed from
   the stored data. *)
let interface_of_table (tbl : Table.t) : Ast.interface_decl =
  let extent = Table.extent_stats tbl in
  let attr_decls =
    List.map
      (fun (a : Schema.attribute) -> Ast.Attr_decl (a.Schema.attr_type, a.Schema.attr_name))
      tbl.Table.schema.Schema.attributes
  in
  let stats_decls =
    List.map
      (fun (name, (st : Stats.attribute)) ->
        Ast.Attr_stats
          { attr = name;
            indexed = st.Stats.indexed;
            distinct = float_of_int st.Stats.count_distinct;
            min = st.Stats.min;
            max = st.Stats.max })
      (Table.all_attribute_stats tbl)
  in
  { Ast.iface_name = tbl.Table.name;
    iface_parent = None;
    members =
      attr_decls
      @ [ Ast.Extent_decl
            { count = float_of_int extent.Stats.count_objects;
              total = float_of_int extent.Stats.total_size;
              objsize = float_of_int extent.Stats.object_size } ]
      @ stats_decls }

(* Everything the wrapper uploads at registration (paper Fig 1, steps 2a/2b):
   schemas, statistics, and cost rules. *)
let registration_decl t : Ast.source_decl =
  let interfaces =
    List.map (fun (_, tbl) -> Ast.Interface (interface_of_table tbl)) t.tables
  in
  (* the cost and selectivity of ADT operations, exported as parameters the
     mediator harvests (paper §7) *)
  let adt_items =
    if not t.export_adt_costs then []
    else
      List.concat_map
        (fun (a : Adt.t) ->
          [ Ast.Let ("AdtCost_" ^ a.Adt.name, Ast.Num a.Adt.cost_ms);
            Ast.Let ("AdtSel_" ^ a.Adt.name, Ast.Num a.Adt.selectivity) ])
        t.adts
  in
  let rule_items =
    if String.length (String.trim t.rules_text) = 0 then []
    else Parser.parse_items ~what:(t.name ^ " cost rules") t.rules_text
  in
  { Ast.source_name = t.name; items = interfaces @ adt_items @ rule_items }

(* The registration text as shipped on the wire — the concrete cost-language
   syntax of Figs 4/8. *)
let registration_text t = Pp.source_to_string (registration_decl t)

(* --- Query phase ----------------------------------------------------------- *)

(* Execute a logical subplan (no [submit] nodes) and measure it. *)
let execute t (plan : Plan.t) : Tuple.t list * Run.vector =
  let physical =
    Physical.of_logical ~engine:t.engine ~find_table:(find_table t) plan
  in
  Run.measure
    { Run.engine = t.engine; buffer = t.buffer; hash_join = false; adts = t.adts }
    physical

(* The physical plan the wrapper would run, for explain output. *)
let physical_plan t (plan : Plan.t) : Physical.t =
  Physical.of_logical ~engine:t.engine ~find_table:(find_table t) plan
