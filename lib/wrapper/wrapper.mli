(** A wrapper: the interface between the mediator and one data source (paper
    §2). During the registration phase it exports a [source] declaration —
    interfaces with cardinality sections computed from the actual data, plus
    whatever cost rules its implementor wrote (possibly none: the mediator's
    generic model then covers the source). During the query phase it accepts
    logical subplans, executes them on the simulated engine, and returns
    objects, in columnar batches, plus measured costs. *)

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
  rules_text : string;  (** cost-language items exported at registration *)
  adts : Adt.t list;    (** ADT operation implementations (paper §7) *)
  export_adt_costs : bool;
      (** export [AdtCost_]/[AdtSel_] parameters at registration *)
  mutable fault : Disco_fault.Fault.t option;
      (** communication-fault injector, consulted by the mediator's submit
          policy; orthogonal to the wrapper's tables and cost rules *)
}

val create :
  name:string ->
  engine:Costs.engine ->
  network:Costs.network ->
  ?buffer_pages:int ->
  ?rules_text:string ->
  ?adts:Adt.t list ->
  Table.t list ->
  t

val without_rules : t -> t
(** The same wrapper, exporting statistics but no cost rules or ADT costs:
    the baseline calibrating behaviour, used by the validation benches. *)

val install_fault : t -> Disco_fault.Fault.profile -> unit
(** Attach a fault injector for this source, replacing any previous one.
    The wrapper's tables, rules and statistics are untouched; the mediator's
    submit policy consults the injector on every submit attempt. *)

val find_table : t -> string -> Table.t
(** @raise Disco_common.Err.Unknown_collection when absent. *)

val table_names : t -> string list

val sample_values : t -> collection:string -> attr:string -> Disco_common.Constant.t list
(** The wrapper's sample-export method (§4.3): raw column values the mediator
    turns into histograms at registration or on feedback-driven refresh.
    @raise Disco_common.Err.Unknown_collection on an unknown collection. *)

(** {1 Registration phase (paper Fig 1)} *)

val registration_decl : t -> Ast.source_decl
(** Everything the wrapper uploads at registration: schemas, statistics and
    cost rules. @raise Disco_common.Err.Parse_error if the wrapper's rule
    text is malformed. *)

val registration_text : t -> string
(** The registration declaration as shipped on the wire — the concrete
    cost-language syntax of Figs 4/8. *)

(** {1 Query phase (paper Fig 2)} *)

val execute : t -> Plan.t -> Batch.t list * Run.vector
(** Execute a logical subplan (no [submit] nodes) and measure it. The
    objects come back in the batches the wrapper's engine produced
    ({!Run.run_batched} under the default mode), in row order, possibly
    with selection vectors and sharing column arrays with the wrapper's
    tables; callers must treat them as read-only. The mediator composes
    them as they are ({!Physical.Pmaterialized}); {!Batch.to_tuples}
    turns one into tuples. *)
