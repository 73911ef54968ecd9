(* The mediator catalog (paper §2.1): stores, per registered source, the
   schemas and statistics uploaded by its wrapper. Cost rules are stored
   separately in the cost-model registry (lib/core). *)

open Disco_common

type entry = {
  schema : Schema.collection;
  extent : Stats.extent;
  attributes : (string * Stats.attribute) list;
  parent : string option;  (* super-interface within the same source *)
}

type source = {
  source_name : string;
  mutable collections : (string * entry) list;
  (* operators the wrapper can execute (paper §2.1); None = all *)
  mutable capabilities : string list option;
}

type t = { mutable sources : (string * source) list }

let create () = { sources = [] }

let source_names t = List.map fst t.sources

let find_source t name =
  match List.assoc_opt name t.sources with
  | Some s -> s
  | None -> raise (Err.Unknown_source name)

(* A source's whole export, written at once: re-registration replaces
   every collection and the capabilities (the paper's administrative
   interface for refreshing out-of-date statistics), so nothing the new
   export no longer declares survives. A source the catalog does not hold
   stays absent while its export declares nothing. *)
let replace_source t ~source ~collections ~capabilities =
  match List.assoc_opt source t.sources, collections, capabilities with
  | Some s, _, _ ->
    s.collections <- collections;
    s.capabilities <- capabilities
  | None, [], None -> ()
  | None, _, _ ->
    t.sources <- t.sources @ [ (source, { source_name = source; collections; capabilities }) ]

let collections t ~source = List.map fst (find_source t source).collections

(* Wrapper capabilities (paper §2.1): which operators a source can execute.
   [None] (the default) means all. *)
let capable t ~source op =
  match List.assoc_opt source t.sources with
  | None | Some { capabilities = None; _ } -> true
  | Some { capabilities = Some ops; _ } -> List.mem op ops

(* Interface inheritance: [is_instance t ~source child ancestor] holds when
   [child] equals [ancestor] or derives from it through parent links. *)
let rec is_instance t ~source child ancestor =
  String.equal child ancestor
  ||
  match List.assoc_opt source t.sources with
  | None -> false
  | Some s ->
    (match List.assoc_opt child s.collections with
     | Some { parent = Some p; _ } -> is_instance t ~source p ancestor
     | _ -> false)

(* Depth of a collection in its inheritance chain (0 for roots); used to make
   sub-interface rules more specific than their parents'. *)
let rec inheritance_depth t ~source name =
  match List.assoc_opt source t.sources with
  | None -> 0
  | Some s ->
    (match List.assoc_opt name s.collections with
     | Some { parent = Some p; _ } -> 1 + inheritance_depth t ~source p
     | _ -> 0)

let find_collection t ~source name =
  match List.assoc_opt name (find_source t source).collections with
  | Some e -> e
  | None -> raise (Err.Unknown_collection (source ^ "." ^ name))

let mem_collection t ~source name =
  match List.assoc_opt source t.sources with
  | None -> false
  | Some s -> List.mem_assoc name s.collections

(* Locate the unique source exporting [name]; used to resolve unqualified
   collection names in queries. *)
let locate_collection t name =
  let hits =
    List.filter_map
      (fun (src, s) -> if List.mem_assoc name s.collections then Some src else None)
      t.sources
  in
  match hits with
  | [ src ] -> Some src
  | [] -> None
  | src :: _ -> Some src (* ambiguous: first registered wins *)

let extent_stats t ~source name = (find_collection t ~source name).extent

let attribute_stats t ~source ~collection attr =
  let e = find_collection t ~source collection in
  match List.assoc_opt attr e.attributes with
  | Some st -> st
  | None ->
    if Schema.has_attribute e.schema attr then Stats.default_attribute
    else raise (Err.Unknown_attribute { collection; attribute = attr })

(* Install (or replace) a histogram on one attribute, leaving the wrapper's
   exported statistics untouched. Used by the mediator's statistics harvest
   at registration and by feedback-driven recalibration. *)
let set_histogram t ~source ~collection ~attr hist =
  let e = find_collection t ~source collection in
  let st =
    match List.assoc_opt attr e.attributes with
    | Some st -> st
    | None ->
      if Schema.has_attribute e.schema attr then Stats.default_attribute
      else raise (Err.Unknown_attribute { collection; attribute = attr })
  in
  let st = { st with Stats.histogram = hist } in
  let e = { e with attributes = (attr, st) :: List.remove_assoc attr e.attributes } in
  let s = find_source t source in
  s.collections <- (collection, e) :: List.remove_assoc collection s.collections

let pp ppf t =
  List.iter
    (fun (src, s) ->
      Fmt.pf ppf "source %s:@." src;
      List.iter
        (fun (cname, e) ->
          Fmt.pf ppf "  %s %a@." cname Stats.pp_extent e.extent;
          List.iter
            (fun (a, st) -> Fmt.pf ppf "    .%s %a@." a Stats.pp_attribute st)
            e.attributes)
        s.collections)
    t.sources
