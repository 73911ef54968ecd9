(** Typed well-formedness checking of whole plans (DESIGN.md §14).

    Where {!Analyzer} proves each cost {e formula} sound in isolation, this
    module checks the {e plans} those formulas price: every attribute
    reference resolves against the registered schemas, predicate operands
    agree in type, join keys are comparable, and projections and aggregates
    have the shape the executors assume. A finding's [where] is its
    operator path from the root (plans carry no lexer locations). *)

open Disco_algebra
open Disco_core

val errors : Finding.t list -> Finding.t list
(** {!Finding.errors}, kept for perfbench's traced replica of
    [Mediator.run_query]. *)

val plan_label : Plan.t -> string
(** A node's label in an operator path: ["scan(src.Coll)"],
    ["submit(src)"], or the operator name. *)

val render_path : ('a -> string) -> 'a list -> string
(** [render_path label rev_nodes]: the operator path of the first node of
    [rev_nodes], whose tail runs up to the root, as ["join/scan(src.C)"].
    Checks carry the reversed list and render it only for a finding they
    record. *)

type ctx =
  [ `Mediator  (** full mediator plan: bare scans outside [Submit] are errors *)
  | `Wrapper of string
    (** wrapper-side plan for the named source: [Submit] is an error and
        every scan must stay on that source *) ]

val check : ?ctx:ctx -> Registry.t -> Plan.t -> Finding.t list
(** Structural + type checks only; never estimates costs (see {!Planbound}).
    Defaults to [`Mediator]. Unknown sources/collections are reported once
    and their subtrees are skipped rather than cascading. *)
