(* Abstract interpretation of cost formulas over the interval domain.

   The interpreter runs over the resolved formula the estimator's closures
   are compiled from ({!Disco_costlang.Compile.rule_body}): a reference yields
   its abstract value through the caller's environment, a def call is its
   inlined body over its arguments' values, builtins get interval transfer
   functions, and context functions are abstracted by their documented
   ranges. Where the concrete evaluator raises — a zero divisor, a name
   coerced to a number — the interpreter raises an alarm and continues with
   a sound over-approximation, so one pass surfaces every potential failure
   in a formula. *)

open Disco_costlang

(* Abstract value of an expression. Mirrors {!Value.t}: [Name]/[Pred] raise
   on numeric coercion concretely, [Opaque] stands for an unknown
   representation (e.g. a head variable that may bind an attribute or a
   constant) whose coercion we cannot judge. *)
type aval =
  | Num of Interval.t
  | Name of string   (* attribute / collection / source name *)
  | Pred of string   (* bound predicate variable *)
  | Opaque

(* A potential runtime failure or range violation found while evaluating. *)
type alarm =
  | Div_by_zero of { definite : bool }
  | Numeric_name of string  (* name/predicate used where a number is required *)
  | Unknown_call of string

let interval_of = function
  | Num i -> Some i
  | Name _ | Pred _ | Opaque -> None

let eval (resolve : Compile.name -> aval) (t : Compile.term) : aval * alarm list =
  let alarms = ref [] in
  let emit i = if not (List.mem i !alarms) then alarms := i :: !alarms in
  (* coerce to a number the way [Value.to_num] does: names and predicates
     raise (an alarm), opaque values are given the benefit of
     the doubt *)
  let num = function
    | Num i -> i
    | Name n -> emit (Numeric_name n); Interval.top
    | Pred p -> emit (Numeric_name p); Interval.top
    | Opaque -> Interval.top
  in
  (* [frame]: the arguments of the def being inlined *)
  let rec go frame (t : Compile.term) : aval =
    match t with
    | Compile.Num f -> Num (Interval.point f)
    | Compile.Str s -> Name s  (* string literal: argument position only *)
    | Compile.Ref (Compile.Param i) -> frame.(i)
    | Compile.Ref n -> resolve n
    | Compile.Neg e -> Num (Interval.neg (num (go frame e)))
    | Compile.Binop (op, a, b) ->
      let ia = num (go frame a) in
      let ib = num (go frame b) in
      (match op with
       | Ast.Add -> Num (Interval.add ia ib)
       | Ast.Sub -> Num (Interval.sub ia ib)
       | Ast.Mul -> Num (Interval.mul ia ib)
       | Ast.Div ->
         let r, st = Interval.div ia ib in
         (match st with
          | Interval.Div_zero -> emit (Div_by_zero { definite = true })
          | Interval.Div_maybe_zero -> emit (Div_by_zero { definite = false })
          | Interval.Div_ok -> ());
         Num r)
    | Compile.If (c, t, e) ->
      let ic = num (go frame c) in
      let at = go frame t and ae = go frame e in
      (match interval_of at, interval_of ae with
       | Some it, Some ie -> Num (Interval.ite ic it ie)
       | _ -> Opaque)
    | Compile.Inline (_, args, body) -> go (Array.of_list (List.map (go frame) args)) body
    | Compile.Fail (_, _, args) ->
      (* a wrong arity or a recursive def raises concretely, after its
         arguments *)
      List.iter (fun a -> ignore (go frame a)) args;
      Opaque
    | Compile.Builtin (fn, _, args) | Compile.Call (fn, args) -> call frame fn args
  and call frame fn args =
    let nums () = List.map (fun a -> num (go frame a)) args in
    let n1 f = match nums () with [ a ] -> Num (f a) | _ -> Opaque in
    let fold f init =
      match nums () with
      | [] -> Opaque
      | vs -> Num (List.fold_left f init vs)
    in
    match fn with
    | "exp" -> n1 Interval.exp_
    | "ln" -> n1 Interval.ln_
    | "log2" -> n1 Interval.log2_
    | "sqrt" -> n1 Interval.sqrt_
    | "ceil" -> n1 Interval.ceil_
    | "floor" -> n1 Interval.floor_
    | "abs" -> n1 Interval.abs_
    | "pow" ->
      (match nums () with [ a; b ] -> Num (Interval.pow_ a b) | _ -> Opaque)
    | "min" -> fold Interval.min_ (Interval.point infinity)
    | "max" -> fold Interval.max_ (Interval.point neg_infinity)
    | "if" -> Opaque (* a wrong arity raises concretely *)
    | "yao" ->
      (* exact Yao'77 page-fetch fraction: in [0, 1] for every input
         (degenerate inputs clamp); NaN inputs propagate *)
      let anynan = List.exists (fun i -> i.Interval.nan) (nums ()) in
      Num (Interval.with_nan anynan Interval.unit)
    | "yaoapprox" ->
      (* 1 - exp(-selected / pages): in [0, 1) only when the selected
         count is nonnegative. A negative count yields 1 - exp(+x),
         unboundedly negative and — when exp overflows — a true -inf
         whose products can be NaN, so it also taints. *)
      (match nums () with
       | [ m; k ] ->
         let anynan = m.Interval.nan || k.Interval.nan in
         let range =
           if k.Interval.lo >= 0. then Interval.unit
           else Interval.v ~nan:true neg_infinity 1.
         in
         Num (Interval.with_nan anynan range)
       | _ -> Opaque)
    | "sel" | "selectivity" | "indexed" | "rindexed" ->
      List.iter (fun a -> ignore (go frame a)) args;
      Num Interval.unit
    | "adtcost" | "adjust" | "nnames" ->
      List.iter (fun a -> ignore (go frame a)) args;
      Num Interval.nonneg
    | "groupcard" ->
      List.iter (fun a -> ignore (go frame a)) args;
      Num Interval.ge1
    | _ when List.mem fn Builtins.context_function_names ->
      (* a context function without a dedicated transfer function:
         conservatively a nonnegative statistic *)
      List.iter (fun a -> ignore (go frame a)) args;
      Num Interval.nonneg
    | _ ->
      List.iter (fun a -> ignore (go frame a)) args;
      emit (Unknown_call fn);
      Opaque
  in
  let v = go [||] t in
  (v, List.rev !alarms)
