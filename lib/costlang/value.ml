(* Runtime values flowing through compiled cost formulas. Formulas compute
   numbers, but function arguments may also be attribute/collection names,
   constants, or whole predicates (e.g. [sel(P)]). *)

open Disco_common
open Disco_algebra

type t =
  | Vnum of float
  | Vconst of Constant.t
  | Vname of string      (* an attribute or collection name bound in a head *)
  | Vpred of Pred.t      (* a predicate bound to a predicate variable *)

let to_num = function
  | Vnum f -> f
  | Vconst c ->
    (match Constant.to_float_opt c with
     | Some f -> f
     | None ->
       raise (Err.Eval_error (Fmt.str "constant %a is not numeric" Constant.pp c)))
  | Vname s -> raise (Err.Eval_error (Fmt.str "name %S used where a number was expected" s))
  | Vpred p ->
    raise
      (Err.Eval_error (Fmt.str "predicate %a used where a number was expected" Pred.pp p))

let num f = Vnum f
