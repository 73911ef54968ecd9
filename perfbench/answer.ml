(* The answer oracle. A query's expected answer is its row count and a
   digest of its rows as a multiset, taken on a reference path; an ORDER BY
   query must in addition come back sorted on its keys. Rows travel both as
   tuples (in-process) and as JSON objects (served); both digest through
   the same canonical text. *)

open Disco_common
open Disco_exec
open Disco_server

type expected = {
  count : int;
  digest : string;
  order_by : (string * Disco_algebra.Plan.order) list;
}

(* JSON carries an integral float as an integer, so floats print as
   integers when they are one. *)
let float_text f =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else Printf.sprintf "%.17g" f

let constant_text = function
  | Constant.Null -> "null"
  | Constant.Bool b -> string_of_bool b
  | Constant.Int i -> string_of_int i
  | Constant.Float f -> float_text f
  | Constant.String s -> s

let json_text = function
  | Json.Null -> Some "null"
  | Json.Bool b -> Some (string_of_bool b)
  | Json.Int i -> Some (string_of_int i)
  | Json.Float f -> Some (float_text f)
  | Json.String s -> Some s
  | Json.List _ | Json.Obj _ -> None

let row_text fields =
  let b = Buffer.create 64 in
  List.iter
    (fun (attr, v) ->
      Buffer.add_string b attr;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b '\x00')
    fields;
  Buffer.contents b

let tuple_text (t : Tuple.t) =
  row_text
    (Array.to_list (Array.map2 (fun a v -> (a, constant_text v)) t.Tuple.attrs t.Tuple.values))

let digest_texts texts =
  let a = Array.of_list texts in
  Array.sort String.compare a;
  Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list a)))

let digest rows = digest_texts (List.map tuple_text rows)

let expect sql rows =
  { count = List.length rows;
    digest = digest rows;
    order_by = (Disco_sql.Sql.parse sql).Disco_sql.Sql.order_by }

let rec sorted_on keys = function
  | a :: (b :: _ as rest) ->
    let rec cmp = function
      | [] -> 0
      | (k, order) :: ks ->
        (match Constant.compare (Tuple.get a k) (Tuple.get b k) with
         | 0 -> cmp ks
         | c -> if order = Disco_algebra.Plan.Asc then c else -c)
    in
    cmp keys <= 0 && sorted_on keys rest
  | [ _ ] | [] -> true

let ordered e rows = try sorted_on e.order_by rows with Err.Eval_error _ -> false

let matches e rows =
  List.length rows = e.count && String.equal (digest rows) e.digest && ordered e rows

let constant_of_json = function
  | Json.Int i -> Constant.Int i
  | Json.Float f -> Constant.Float f
  | Json.String s -> Constant.String s
  | Json.Bool b -> Constant.Bool b
  | Json.Null | Json.List _ | Json.Obj _ -> Constant.Null

(* A served answer: a list of JSON objects, one per row. *)
let matches_json e rows =
  let fields = function
    | Json.Obj fs ->
      let texts = List.map (fun (a, v) -> (a, json_text v)) fs in
      if List.exists (fun (_, t) -> t = None) texts then None
      else Some (List.map (fun (a, t) -> (a, Option.get t)) texts)
    | _ -> None
  in
  let rows_fields = List.map fields rows in
  List.length rows = e.count
  && (not (List.mem None rows_fields))
  && String.equal (digest_texts (List.map (fun f -> row_text (Option.get f)) rows_fields)) e.digest
  && (e.order_by = []
     || ordered e
          (List.map
             (function
               | Json.Obj fs ->
                 Tuple.make
                   (Array.of_list (List.map fst fs))
                   (Array.of_list (List.map (fun (_, v) -> constant_of_json v) fs))
               | _ -> Tuple.make [||] [||])
             rows))
