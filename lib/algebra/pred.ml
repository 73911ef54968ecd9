(* Predicates over objects. Selection predicates compare an attribute with a
   constant; join predicates compare attributes of two inputs. Compound
   predicates combine them with And/Or/Not. *)

open Disco_common

type cmp = Cmp.t = Eq | Ne | Lt | Le | Gt | Ge

let pp_cmp = Cmp.pp
let eval_cmp = Cmp.eval

type t =
  | Cmp of string * cmp * Constant.t    (* attr op constant *)
  | Attr_cmp of string * cmp * string   (* attr op attr (join condition) *)
  | Apply of string * string * Constant.t
      (* ADT operation: fn(attr, constant), boolean result *)
  | And of t * t
  | Or of t * t
  | Not of t
  | True

let rec pp ppf = function
  | Cmp (a, op, v) -> Fmt.pf ppf "%s %a %a" a pp_cmp op Constant.pp v
  | Attr_cmp (a, op, b) -> Fmt.pf ppf "%s %a %s" a pp_cmp op b
  | Apply (fn, a, v) -> Fmt.pf ppf "%s(%s, %a)" fn a Constant.pp v
  | And (p, q) -> Fmt.pf ppf "(%a and %a)" pp p pp q
  | Or (p, q) -> Fmt.pf ppf "(%a or %a)" pp p pp q
  | Not p -> Fmt.pf ppf "not %a" pp p
  | True -> Fmt.string ppf "true"

let to_string p = Fmt.str "%a" pp p

let rec equal p q =
  match p, q with
  | Cmp (a1, o1, v1), Cmp (a2, o2, v2) ->
    String.equal a1 a2 && o1 = o2 && Constant.equal v1 v2
  | Attr_cmp (a1, o1, b1), Attr_cmp (a2, o2, b2) ->
    String.equal a1 a2 && o1 = o2 && String.equal b1 b2
  | Apply (f1, a1, v1), Apply (f2, a2, v2) ->
    String.equal f1 f2 && String.equal a1 a2 && Constant.equal v1 v2
  | And (p1, q1), And (p2, q2) | Or (p1, q1), Or (p2, q2) ->
    equal p1 p2 && equal q1 q2
  | Not p1, Not p2 -> equal p1 p2
  | True, True -> true
  | _ -> false

(* Structural hash consistent with [equal]; a cheap polynomial combine over
   constructor tags and leaf hashes (no depth cut-off, unlike the default
   [Hashtbl.hash], so large predicates still discriminate). *)
let hash p =
  let comb acc x = (acc * 31) + x in
  let cmp_tag = function Eq -> 1 | Ne -> 2 | Lt -> 3 | Le -> 4 | Gt -> 5 | Ge -> 6 in
  let rec go acc = function
    | Cmp (a, op, v) ->
      comb (comb (comb (comb acc 3) (Hashtbl.hash a)) (cmp_tag op)) (Constant.hash v)
    | Attr_cmp (a, op, b) ->
      comb (comb (comb (comb acc 5) (Hashtbl.hash a)) (cmp_tag op)) (Hashtbl.hash b)
    | Apply (fn, a, v) ->
      comb (comb (comb (comb acc 7) (Hashtbl.hash fn)) (Hashtbl.hash a)) (Constant.hash v)
    | And (p, q) -> go (go (comb acc 11) p) q
    | Or (p, q) -> go (go (comb acc 13) p) q
    | Not p -> go (comb acc 17) p
    | True -> comb acc 19
  in
  go 0 p land max_int

let no_apply name _ _ =
  raise
    (Disco_common.Err.Eval_error
       (Fmt.str "no implementation for ADT operation %S" name))

(* Evaluate against a lookup function from attribute name to value; [apply]
   supplies the implementations of ADT operations. *)
let rec eval ?(apply = no_apply) lookup = function
  | Cmp (a, op, v) -> eval_cmp op (lookup a) v
  | Attr_cmp (a, op, b) -> eval_cmp op (lookup a) (lookup b)
  | Apply (fn, a, v) -> apply fn (lookup a) v
  | And (p, q) -> eval ~apply lookup p && eval ~apply lookup q
  | Or (p, q) -> eval ~apply lookup p || eval ~apply lookup q
  | Not p -> not (eval ~apply lookup p)
  | True -> true

(* All attribute names referenced by a predicate. *)
let rec attributes = function
  | Cmp (a, _, _) | Apply (_, a, _) -> [ a ]
  | Attr_cmp (a, _, b) -> [ a; b ]
  | And (p, q) | Or (p, q) -> attributes p @ attributes q
  | Not p -> attributes p
  | True -> []

(* Names of the ADT operations a predicate invokes. *)
let rec adt_operations = function
  | Apply (fn, _, _) -> [ fn ]
  | And (p, q) | Or (p, q) -> adt_operations p @ adt_operations q
  | Not p -> adt_operations p
  | Cmp _ | Attr_cmp _ | True -> []

let has_apply p = adt_operations p <> []

(* Split a conjunction into its atomic conjuncts. *)
let rec conjuncts = function
  | And (p, q) -> conjuncts p @ conjuncts q
  | True -> []
  | p -> [ p ]

let conj = function
  | [] -> True
  | p :: rest -> List.fold_left (fun acc q -> And (acc, q)) p rest
