(* Runtime tuples: a flat array of constants with qualified attribute names
   ("e.salary"). Joins concatenate, projections restrict. *)

open Disco_common

type t = {
  attrs : string array;
  values : Constant.t array;
}

let make attrs values =
  if Array.length attrs <> Array.length values then
    invalid_arg "Tuple.make: attribute/value arity mismatch";
  { attrs; values }

let arity t = Array.length t.attrs

(* Attribute lookup by the executors' one rule ([Plan.resolve_attr]):
   qualified names and, when unambiguous in the tuple, bare names. *)
let get t name : Constant.t = t.values.(Disco_algebra.Plan.attr_index t.attrs name)

let concat a b =
  { attrs = Array.append a.attrs b.attrs; values = Array.append a.values b.values }

let project t names =
  let values = Array.of_list (List.map (fun n -> get t n) names) in
  { attrs = Array.of_list names; values }

(* Serialized byte size, used to charge communication cost. *)
let byte_size t =
  Array.fold_left (fun acc v -> acc + Constant.byte_size v) 0 t.values

let equal a b =
  Array.length a.values = Array.length b.values
  && (let ok = ref true in
      Array.iteri (fun i v -> if not (Constant.equal v b.values.(i)) then ok := false) a.values;
      !ok)

(* A comparable key for hashing/dedup: the rendered values. *)
let key t = String.concat "\x00" (Array.to_list (Array.map Constant.to_string t.values))

let pp ppf t =
  Fmt.pf ppf "(%a)"
    Fmt.(array ~sep:(any ", ") Constant.pp)
    t.values

let pp_with_names ppf t =
  let item ppf i = Fmt.pf ppf "%s=%a" t.attrs.(i) Constant.pp t.values.(i) in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") item)
    (List.init (Array.length t.attrs) Fun.id)
