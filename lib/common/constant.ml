(* Polymorphic constant values, the [Constant] object of the paper's
   cardinality interface (Fig 4). Used for attribute values, predicate
   constants, and Min/Max statistics. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | String s -> Fmt.pf ppf "%S" s

(* Byte-identical to [Fmt.str "%a" pp], without a [Format] buffer: the
   dedup, join and group keys render every value through here. [%g] and [%S] are the conversions [pp] prints with. *)
let to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> "\"" ^ String.escaped s ^ "\""

let equal a b =
  match a, b with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | String a, String b -> String.equal a b
  | _ -> false

(* Hash consistent with [equal]: numeric constants hash through their float
   value so that [Int 1] and [Float 1.] (equal under coercion) collide. *)
let hash = function
  | Null -> 17
  | Bool b -> if b then 19 else 23
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

(* Rank used to obtain a total order across constructors. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> Float.compare (float_of_int a) b
  | Float a, Int b -> Float.compare a (float_of_int b)
  | String a, String b -> String.compare a b
  | _ -> Int.compare (rank a) (rank b)

(* Numeric view: booleans count as 0/1, strings are not numeric. *)
let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool true -> Some 1.
  | Bool false -> Some 0.
  | Null | String _ -> None

(* Position of [v] within [min, max] as a fraction in [0, 1]; used for
   range-predicate selectivity under the uniform-distribution assumption.
   Strings interpolate on their first two characters, which is enough to
   discriminate alphabetic ranges such as "Adiba".."Valduriez". *)
let fraction ~min ~max v =
  let clamp x = if x < 0. then 0. else if x > 1. then 1. else x in
  let str_key s =
    let byte i = if i < String.length s then float_of_int (Char.code s.[i]) else 0. in
    (byte 0 *. 256.) +. byte 1
  in
  match to_float_opt min, to_float_opt max, to_float_opt v with
  | Some lo, Some hi, Some x ->
    if hi <= lo then Some 0.5 else Some (clamp ((x -. lo) /. (hi -. lo)))
  | _ ->
    (match min, max, v with
     | String lo, String hi, String x ->
       let lo = str_key lo and hi = str_key hi and x = str_key x in
       if hi <= lo then Some 0.5 else Some (clamp ((x -. lo) /. (hi -. lo)))
     | _ -> None)

(* Approximate byte width of a constant when serialized; used to charge
   communication costs. *)
let byte_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | String s -> String.length s
