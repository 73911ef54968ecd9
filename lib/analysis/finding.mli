(** One report type for every static check (DESIGN.md §9, §14): {!Check}
    on a wrapper's export, {!Analyzer} on the blended model, {!Plancheck}
    and {!Planbound} on a chosen plan. [Disco_server.Protocol.json_of_finding]
    is its one JSON encoding.

    Severity contract: [Error] means the export is ill-formed ({!Check},
    the one registration gate, refuses it), estimation can raise, diverge
    or produce meaningless costs, or the plan cannot execute as typed;
    [Warning] and [Info] never block anything. *)

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
}

val v :
  ?source:string -> ?operator:string -> ?scope:Scope.t -> ?loc:Ast.pos ->
  severity -> string -> string -> string -> t
(** [v severity tag where msg]. *)

val errors : t list -> t list
val of_severity : severity -> t list -> t list

val pp : Format.formatter -> t -> unit
(** One line: [LOC: severity [tag] source/operator in where: msg], the
    location, source and operator printed only when known. *)
