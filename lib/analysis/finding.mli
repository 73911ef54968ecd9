(** One report type for every static check (DESIGN.md §9, §14): {!Check}
    on a wrapper's export, {!Analyzer} on the blended model, {!Plancheck}
    and {!Planbound} on a chosen plan. [Disco_server.Protocol.json_of_finding]
    is its one JSON encoding.

    Severity contract: [Error] means registration must reject the export,
    estimation can raise, diverge or produce meaningless costs, or the plan
    cannot execute as typed; [Warning] and [Info] never block anything. *)

open Disco_costlang
open Disco_core

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

type t = {
  severity : severity;
  tag : string;
      (** stable machine tag: ["div-zero"], ["dead-rule"], ["unbound"],
          ["type-mismatch"], ["card-bound"], ... *)
  source : string option;
      (** owning source of the offending rule, parameter or plan node *)
  operator : string option;  (** the operator whose rule chain is at fault *)
  scope : Scope.t option;  (** scope of the cost rule at fault *)
  loc : Ast.pos option;  (** lexer position, when the text was parsed *)
  where : string;
      (** ["rule scan(C)"], ["interface Employee"], ["let AdtSel_match"], or
          a plan's operator path from the root, ["join/scan(relstore.Employee)"] *)
  msg : string;
  excluded : bool;
      (** the owning source is circuit-broken (breaker open), so the
          optimizer cannot pick its rules right now: reported for
          completeness, tagged [scope:excluded], and never gating *)
}

val v :
  ?source:string -> ?operator:string -> ?scope:Scope.t -> ?loc:Ast.pos ->
  severity -> string -> string -> string -> t
(** [v severity tag where msg], not excluded. *)

val errors : t list -> t list
val of_severity : severity -> t list -> t list

val active : t list -> t list
(** Findings that are not [excluded]; [--strict] and [--fail-on] gate on
    these. *)

val pp : Format.formatter -> t -> unit
(** One line: [LOC: severity [tag] source/operator in where: msg], the
    location, source and operator printed only when known, followed by
    [(scope:excluded)] for an excluded finding. *)
