(** The mediator catalog (paper §2.1): per registered source, the schemas and
    statistics uploaded by its wrapper. Cost rules are stored separately in
    the cost-model registry (lib/core). *)

type entry = {
  schema : Schema.collection;
  extent : Stats.extent;
  attributes : (string * Stats.attribute) list;
  parent : string option;  (** super-interface within the same source *)
}

type source = {
  source_name : string;
  mutable collections : (string * entry) list;
  mutable capabilities : string list option;
      (** operators the wrapper can execute (paper §2.1); [None] = all *)
}

type t

val create : unit -> t

val source_names : t -> string list

val find_source : t -> string -> source
(** @raise Disco_common.Err.Unknown_source when absent. *)

val register_collection :
  ?parent:string ->
  t ->
  source:string ->
  schema:Schema.collection ->
  extent:Stats.extent ->
  attributes:(string * Stats.attribute) list ->
  unit
(** Register or replace a collection. Re-registration supports the paper's
    administrative interface for refreshing out-of-date statistics. *)

val collections : t -> source:string -> string list

val set_capabilities : t -> source:string -> string list -> unit
(** Restrict a source to the given operator names. *)

val capable : t -> source:string -> string -> bool
(** Whether the source can execute the operator; [true] when no capabilities
    were declared (the paper's simplifying assumption). *)

val is_instance : t -> source:string -> string -> string -> bool
(** [is_instance t ~source child ancestor]: [child] equals [ancestor] or
    derives from it through interface-inheritance links. *)

val inheritance_depth : t -> source:string -> string -> int
(** Depth in the inheritance chain (0 for roots); sub-interface rules beat
    their parents' during matching. *)

val find_collection : t -> source:string -> string -> entry
(** @raise Disco_common.Err.Unknown_collection when absent. *)

val mem_collection : t -> source:string -> string -> bool

val locate_collection : t -> string -> string option
(** The source exporting a collection name, used to resolve unqualified names
    in queries; first registered wins when several sources export it. *)

val extent_stats : t -> source:string -> string -> Stats.extent

val attribute_stats : t -> source:string -> collection:string -> string -> Stats.attribute
(** Statistics of one attribute; defaults when the attribute exists in the
    schema but exported no statistics.
    @raise Disco_common.Err.Unknown_attribute when not in the schema. *)

val set_histogram :
  t -> source:string -> collection:string -> attr:string -> Histogram.t option -> unit
(** Install (or clear, with [None]) a histogram on one attribute without
    touching the wrapper's exported statistics. Used by the mediator's
    statistics harvest at registration and by feedback-driven recalibration.
    @raise Disco_common.Err.Unknown_attribute when not in the schema. *)

val pp : Format.formatter -> t -> unit
