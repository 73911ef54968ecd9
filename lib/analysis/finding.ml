(* One report type for every static check: the export checker, the model
   analyzer and plan verification all build [t]; the server's protocol
   encodes it. *)

open Disco_costlang
open Disco_core

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type t = {
  severity : severity;
  tag : string;
  source : string option;
  operator : string option;
  scope : Scope.t option;
  loc : Ast.pos option;
  where : string;
  msg : string;
}

let v ?source ?operator ?scope ?loc severity tag where msg =
  { severity; tag; source; operator; scope; loc; where; msg }

let errors fs = List.filter (fun f -> f.severity = Error) fs
let of_severity s fs = List.filter (fun f -> f.severity = s) fs

let pp ppf f =
  Option.iter (Fmt.pf ppf "%a: " Ast.pp_pos) f.loc;
  Fmt.pf ppf "%s [%s]" (severity_name f.severity) f.tag;
  Option.iter (Fmt.pf ppf " %s") f.source;
  Option.iter (Fmt.pf ppf "/%s") f.operator;
  Fmt.pf ppf " in %s: %s" f.where f.msg
