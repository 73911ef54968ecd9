(** Attribute-level statistics of intermediate results.

    The five cost variables of a node are rule-driven; attribute statistics
    (Indexed, CountDistinct, Min, Max) of intermediate results are derived
    structurally by the mediator so that formulas such as [C.id.Min] and the
    context functions [sel]/[indexed] are meaningful on any operand. Scans
    read the catalog; selections narrow distinct/min/max; every non-scan
    operator clears [Indexed] (an operator's output is a stream, not an
    indexed extent) — projections excepted, since they are width-only. *)

open Disco_common
open Disco_catalog
open Disco_algebra

type attr_stat = {
  indexed : bool;
  distinct : float;
  min : Constant.t;
  max : Constant.t;
  hist : Histogram.t option;
      (** value distribution, carried from the catalog through scans and
          clipped by range predicates; equality pins drop it *)
}

type t = (string * attr_stat) list
(** Qualified attribute name -> statistics. *)

val default_stat : attr_stat

val find : t -> string -> attr_stat option
(** Exact (qualified) lookup. *)

val find_loose : t -> string -> attr_stat option
(** Qualified lookup, falling back to matching the unqualified part; supports
    rules written with bare attribute names such as [id]. When several
    qualified attributes share the bare name (e.g. [e.id] and [d.id] above a
    join), the tie-break is derivation order: the {e first} entry wins, which
    for a join means the left operand's attribute (children are concatenated
    left-to-right by {!of_node}). Rules that care which side they read should
    use the qualified name. *)

val of_catalog_attr : Stats.attribute -> attr_stat

val of_node : Catalog.t -> Plan.t -> t list -> t
(** Derived statistics of one node given its children's. *)

val pp : Format.formatter -> t -> unit
