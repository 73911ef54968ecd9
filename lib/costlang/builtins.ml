(* Pure builtin functions available in every cost formula. Functions that
   need mediator context (catalog statistics, bound predicates) — such as
   [sel] — are provided by the cost-model registry, not here. *)

open Disco_common

let yao_exact ~objects:n ~pages:m ~selected:k =
  (* Yao'77: expected fraction of pages touched when selecting k of n records
     spread uniformly over m pages. 1 - prod_{i=1..k} (n - n/m - i + 1) / (n - i + 1) *)
  if m <= 0. || n <= 0. then 0.
  else if k <= 0. then 0.
  else if k >= n then 1.
  else begin
    let per_page = n /. m in
    let k = Float.min k n in
    let steps = int_of_float (Float.min k 100_000.) in
    let ratio = ref 1.0 in
    (for i = 1 to steps do
       let i = float_of_int i in
       let num = n -. per_page -. i +. 1. and den = n -. i +. 1. in
       if num <= 0. then ratio := 0. else ratio := !ratio *. (num /. den)
     done);
    1. -. !ratio
  end

(* The exponential approximation used in the paper's Fig 13 rule:
   1 - exp(-k / m) where k objects are selected from a collection stored on m
   pages. *)
let yao_approx ~pages:m ~selected:k =
  if m <= 0. then 0. else 1. -. exp (-.k /. m)

(* Canonical name lists. [names] must stay in sync with [find] below (a test
   resolves every entry); [context_function_names] is the single source of
   truth for the functions the estimator provides at evaluation time — both
   [Check] and the static analyzer consume it. *)
let names =
  [ "exp"; "ln"; "log2"; "sqrt"; "ceil"; "floor"; "abs"; "pow"; "min"; "max";
    "if"; "yao"; "yaoapprox" ]

let context_function_names =
  [ "sel"; "selectivity"; "indexed"; "rindexed"; "adtcost"; "adjust"; "nnames";
    "groupcard" ]

let arity_error name n =
  raise (Err.Eval_error (Fmt.str "builtin %s: wrong number of arguments (%d)" name n))

(* Look up a pure builtin; returns [None] for unknown names so the caller can
   try wrapper-defined functions. *)
let find name : (Value.t list -> Value.t) option =
  let f1 name fn =
    Some
      (function
        | [ a ] -> Value.num (fn (Value.to_num a))
        | args -> arity_error name (List.length args))
  in
  let f2 name fn =
    Some
      (function
        | [ a; b ] -> Value.num (fn (Value.to_num a) (Value.to_num b))
        | args -> arity_error name (List.length args))
  in
  match name with
  | "exp" -> f1 name exp
  | "ln" -> f1 name log
  | "log2" -> f1 name (fun x -> log x /. log 2.)
  | "sqrt" -> f1 name sqrt
  | "ceil" -> f1 name ceil
  | "floor" -> f1 name floor
  | "abs" -> f1 name abs_float
  | "pow" -> f2 name Float.pow
  | "min" ->
    Some
      (function
        | [] -> arity_error name 0
        | args -> Value.num (List.fold_left (fun acc v -> Float.min acc (Value.to_num v)) infinity args))
  | "max" ->
    Some
      (function
        | [] -> arity_error name 0
        | args ->
          Value.num
            (List.fold_left (fun acc v -> Float.max acc (Value.to_num v)) neg_infinity args))
  | "if" ->
    (* three arguments compile to a conditional ({!Compile.compile}): a
       call that gets here has the wrong arity *)
    Some (fun args -> arity_error name (List.length args))
  | "yao" ->
    (* yao(objects, pages, selected): exact Yao'77 page-fetch fraction *)
    Some
      (function
        | [ n; m; k ] ->
          Value.num
            (yao_exact ~objects:(Value.to_num n) ~pages:(Value.to_num m)
               ~selected:(Value.to_num k))
        | args -> arity_error name (List.length args))
  | "yaoapprox" ->
    Some
      (function
        | [ m; k ] ->
          Value.num (yao_approx ~pages:(Value.to_num m) ~selected:(Value.to_num k))
        | args -> arity_error name (List.length args))
  | _ -> None
