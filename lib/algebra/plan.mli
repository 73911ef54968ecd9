(** Logical query plans: the mediator algebra of paper §2.2 — scan, select,
    project, sort, join, union, dedup, aggregate — plus [submit], which
    models sending a subplan to a wrapper.

    Attributes in a plan are qualified by the binding of the scan producing
    them ([e.salary] for a scan of Employee bound to [e]), so joins of
    collections with identically-named attributes stay unambiguous. *)

type collection_ref = {
  source : string;      (** the data source (wrapper) name *)
  collection : string;  (** collection name within that source *)
  binding : string;     (** alias qualifying this scan's attributes *)
}

type order = Asc | Desc

type agg_fun = Count | Sum | Avg | Min | Max

val pp_agg_fun : Format.formatter -> agg_fun -> unit

type aggregate = {
  group_by : string list;
  aggs : (agg_fun * string * string) list;
      (** (function, input attribute — [""] for count-star, output name) *)
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
  | Submit of string * t  (** [Submit (source, subplan)] *)

val pp : Format.formatter -> t -> unit
(** Single-line rendering. *)

val to_string : t -> string

val pp_indented : Format.formatter -> t -> unit
(** Multi-line rendering for EXPLAIN output. *)

val children : t -> t list

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)

val size : t -> int
(** Number of nodes. *)

val equal : t -> t -> bool
(** Structural equality; this is the matching relation of query-scope
    (historical) cost rules. *)

val equal_structural : t -> t -> bool
(** Alias of {!equal}. The library does not use it; the benchmark's replica
    of the plan cache's lookup keys its table with it and {!hash}. *)

val hash : t -> int
(** Canonical structural hash consistent with {!equal} (full depth,
    numeric-coercing constant hashing): the key of the plan cache's
    whole-plan entries. *)

val scans : t -> collection_ref list
(** All scans, left to right. *)

val bindings : t -> (string * collection_ref) list
(** Binding -> collection map, for attribute-origin resolution. *)

val split_attr : string -> (string * string) option
(** [split_attr "e.salary" = Some ("e", "salary")]; [None] for bare names. *)

(** Where a name resolves among a row's attributes: the index of the
    attribute, several candidate indexes (ascending), or none. *)
type resolution = Found of int | Ambiguous of int list | Missing

val resolve_attr : string array -> string -> resolution
(** The one attribute-resolution rule, used by both execution engines
    ([Tuple.get], [Batch.find_col], the join-pair evaluator) and by the plan
    checker: the first attribute equal to the name wins; otherwise the
    single attribute whose unqualified part ({!split_attr}) is the name. Two
    or more such attributes are [Ambiguous], none is [Missing]. *)

val attr_index : string array -> string -> int
(** The [Found] index of {!resolve_attr}.
    @raise Disco_common.Err.Eval_error ["attribute \"x\" not found in tuple
    (a, b)"] when the name is ambiguous or missing: the executors' one
    resolution error. *)

val attr_origin : t -> string -> (collection_ref * string) option
(** The base collection and unqualified attribute a qualified name traces
    back to, if its binding appears in the plan. *)

val output_attrs : collection_attrs:(string -> string -> string list) -> t -> string list
(** Output attributes of a plan; [collection_attrs source collection] supplies
    the unqualified attribute names of base collections. *)

val submit_sources : t -> string list
(** Sources of all [Submit] nodes, in plan order. *)
