(* Compilation of cost formulas (paper §2.4: rules are shipped as
   semi-compiled code, so that optimization only evaluates them).

   [resolve] decides once, at registration, what every name and call of a
   formula denotes; [compile] turns the result into closures whose leaves
   the caller supplies. The estimator, the static analyzer and the
   registration checker all read [resolve]'s result, so what a name means
   is decided here and nowhere else. *)

open Disco_common

type head_kind = Koperand | Kattr | Kconst_or_attr | Kpred | Kname

let head_kinds (h : Ast.head) : (string * head_kind) list =
  let arg k = function Ast.Pvar v -> [ (v, k) ] | _ -> [] in
  let pred = function
    | Ast.Ppred_var v -> [ (v, Kpred) ]
    | Ast.Pcmp (l, _, r) -> arg Kattr l @ arg Kconst_or_attr r
  in
  match h with
  | Ast.Hscan c | Ast.Hdedup c -> arg Koperand c
  | Ast.Hselect (c, p) -> arg Koperand c @ pred p
  | Ast.Hproject (c, a) | Ast.Hsort (c, a) | Ast.Haggregate (c, a) ->
    arg Koperand c @ arg Kname a
  | Ast.Hunion (l, r) -> arg Koperand l @ arg Koperand r
  | Ast.Hjoin (l, r, p) -> arg Koperand l @ arg Koperand r @ pred p
  | Ast.Hsubmit (w, c) -> arg Kname w @ arg Koperand c

type stat = Var of Ast.cost_var | Object_size | Indexed | Count_distinct | Min | Max

let stat = function
  | "ObjectSize" -> Some Object_size
  | "Indexed" -> Some Indexed
  | "CountDistinct" -> Some Count_distinct
  | "Min" -> Some Min
  | "Max" -> Some Max
  | s -> Option.map (fun v -> Var v) (Ast.cost_var_of_name s)

type seg = string * head_kind option

type name =
  | Param of int
  | Target of int
  | Cost_var of Ast.cost_var
  | Head of string * head_kind
  | Through of string * head_kind * seg list
  | Dynamic of string
  | Path of seg list

type failure = Arity of int | Recursive | Too_large

type term =
  | Num of float
  | Str of string
  | Ref of name
  | Neg of term
  | Binop of Ast.binop * term * term
  | If of term * term * term
  | Inline of string * term list * term
  | Builtin of string * (Value.t list -> Value.t) * term list
  | Call of string * term list
  | Fail of string * failure * term list

type def = { params : string list; def_ast : Ast.expr }

(* Inlining copies a def's body into every call site, so defs that each call
   the previous one twice would grow a formula exponentially; the bound
   turns that into an evaluation error instead of a registration that
   exhausts memory. *)
let max_inlined = 10_000

(* The one resolution rule. [head] is [] outside a rule, [earlier] the
   targets assigned before the formula, by position; [def_of] gives the
   defs its calls may bind to. *)
let resolve ~head ~earlier ~in_rule ~def_of (e : Ast.expr) : term =
  let inlined = ref 0 in
  let rec index x i = function
    | [] -> None
    | y :: rest -> if String.equal x y then Some i else index x (i + 1) rest
  in
  let rec latest x j =
    if j < 0 then None else if String.equal earlier.(j) x then Some j else latest x (j - 1)
  in
  let name ~params = function
    | [ x ] ->
      (match index x 0 params, latest x (Array.length earlier - 1) with
       | Some i, _ -> Param i
       | None, Some j -> Target j
       | None, None ->
         (match if in_rule then Ast.cost_var_of_name x else None with
          | Some v -> Cost_var v
          | None ->
            (match List.assoc_opt x head with Some k -> Head (x, k) | None -> Dynamic x)))
    | x :: rest ->
      let segs = List.map (fun y -> (y, List.assoc_opt y head)) rest in
      (match List.assoc_opt x head with
       | Some k -> Through (x, k, segs)
       | None -> Path ((x, None) :: segs))
    | [] -> Path []
  in
  let rec go ~params ~chain (e : Ast.expr) =
    let go = go ~params ~chain in
    match e with
    | Ast.Num f -> Num f
    | Ast.Str x -> Str x
    | Ast.Ref path -> Ref (name ~params path)
    | Ast.Neg e -> Neg (go e)
    | Ast.Binop (op, a, b) -> Binop (op, go a, go b)
    | Ast.Call ("if", [ c; t; e ]) -> If (go c, go t, go e)
    | Ast.Call (fn, args) ->
      let args = List.map go args in
      (match def_of fn with
       | Some d when List.compare_lengths d.params args <> 0 ->
         Fail (fn, Arity (List.length d.params), args)
       | Some _ when List.mem fn chain -> Fail (fn, Recursive, args)
       | Some _ when !inlined >= max_inlined -> Fail (fn, Too_large, args)
       | Some d ->
         incr inlined;
         Inline (fn, args, go_body d fn chain)
       | None ->
         (match Builtins.find fn with
          | Some f -> Builtin (fn, f, args)
          | None -> Call (fn, args)))
  and go_body d fn chain = go ~params:d.params ~chain:(fn :: chain) d.def_ast in
  go ~params:[] ~chain:[] e

let rule_body ~def_of (r : Ast.rule) =
  let targets = Array.of_list (List.map (fun (t, _) -> Ast.target_name t) r.Ast.body) in
  let head = head_kinds r.Ast.head in
  Array.of_list
    (List.mapi
       (fun i (_, e) -> resolve ~head ~earlier:(Array.sub targets 0 i) ~in_rule:true ~def_of e)
       r.Ast.body)

let let_body ~def_of e = resolve ~head:[] ~earlier:[||] ~in_rule:false ~def_of e

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Num _ | Str _ | Ref _ -> acc
  | Neg a -> fold f acc a
  | Binop (_, a, b) -> fold f (fold f acc a) b
  | If (a, b, c) -> fold f (fold f (fold f acc a) b) c
  | Inline (_, args, body) -> fold f (List.fold_left (fold f) acc args) body
  | Builtin (_, _, args) | Call (_, args) | Fail (_, _, args) ->
    List.fold_left (fold f) acc args

type ('a, 'b) t = 'a -> 'b -> Value.t array -> Value.t

type ('a, 'b) leaves = {
  name : name -> ('a, 'b) t;
  call : string -> ('a, 'b) t list -> ('a, 'b) t;
}

let failure_message fn why nargs =
  match why with
  | Arity n -> Fmt.str "function expects %d arguments, got %d" n nargs
  | Recursive -> Fmt.str "def %s calls itself" fn
  | Too_large -> Fmt.str "def %s: the formula inlines more than %d def calls" fn max_inlined

let compile (leaves : ('a, 'b) leaves) (t : term) : ('a, 'b) t =
  let rec go = function
    | Num f ->
      let v = Value.Vnum f in
      fun _ _ _ -> v
    | Str s ->
      let v = Value.Vconst (Constant.String s) in
      fun _ _ _ -> v
    | Ref (Param i) -> fun _ _ frame -> frame.(i)
    | Ref n -> leaves.name n
    | Neg e ->
      let c = go e in
      fun a b f -> Value.Vnum (-.Value.to_num (c a b f))
    | Binop (op, x, y) ->
      let cx = go x and cy = go y in
      let op =
        match op with
        | Ast.Add -> ( +. )
        | Ast.Sub -> ( -. )
        | Ast.Mul -> ( *. )
        | Ast.Div ->
          fun x y ->
            if y = 0. then raise (Err.Eval_error "division by zero in cost formula")
            else x /. y
      in
      fun a b f -> Value.Vnum (op (Value.to_num (cx a b f)) (Value.to_num (cy a b f)))
    | If (c, t, e) ->
      let cc = go c and ct = go t and ce = go e in
      fun a b f -> if Value.to_num (cc a b f) <> 0. then ct a b f else ce a b f
    | Inline (_, args, body) ->
      let args = Array.of_list (List.map go args) and body = go body in
      fun a b f -> body a b (Array.map (fun c -> c a b f) args)
    | Builtin (_, fn, args) ->
      let args = List.map go args in
      fun a b f -> fn (List.map (fun c -> c a b f) args)
    | Call (fn, args) -> leaves.call fn (List.map go args)
    | Fail (fn, why, args) ->
      let msg = failure_message fn why (List.length args) and args = List.map go args in
      fun a b f ->
        List.iter (fun c -> ignore (c a b f)) args;
        raise (Err.Eval_error msg)
  in
  go t
