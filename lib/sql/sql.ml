(* The client query language: a small object/relational SQL subset (paper
   §2.2: "the query in Step 3 is declarative, written in simple
   object/relational SQL language").

     SELECT [DISTINCT] item, ...
     FROM [source.]Collection [AS] alias, ...
     [WHERE cond AND cond ...]
     [GROUP BY attr, ...]
     [ORDER BY attr [DESC], ...]
     [LIMIT n]

   Items are attributes ([alias.attr] or bare [attr]), [*], or aggregates
   ([sum(a.salary) AS total]). Conditions compare an attribute with a
   constant or with another attribute. Bare attribute names are resolved
   against the registered schemas by the mediator. *)

open Disco_common
open Disco_algebra
open Disco_costlang

type relation = {
  rel_source : string option;  (* None: resolved from the catalog *)
  rel_collection : string;
  rel_alias : string;
}

type item =
  | Col of string                            (* possibly qualified attribute *)
  | Agg of Plan.agg_fun * string * string    (* fn, input attr ("" for count-star), output name *)

type t = {
  distinct : bool;
  star : bool;
  items : item list;  (* empty when [star] *)
  relations : relation list;
  where : Pred.t;
  group_by : string list;
  order_by : (string * Plan.order) list;
  limit : int option;
}

(* --- Parsing --------------------------------------------------------------- *)

type cursor = { toks : Lexer.spanned array; mutable i : int; what : string }

let peek c = c.toks.(c.i).Lexer.tok
let peek2 c = if c.i + 1 < Array.length c.toks then c.toks.(c.i + 1).Lexer.tok else Lexer.EOF
let advance c = if c.i < Array.length c.toks - 1 then c.i <- c.i + 1

let error_at c msg =
  let s = c.toks.(c.i) in
  Err.parse_error ~what:c.what ~line:s.Lexer.line ~col:s.Lexer.col msg

let lower = String.lowercase_ascii

(* Keyword test, case-insensitive. *)
let is_kw c kw =
  match peek c with Lexer.IDENT s -> String.equal (lower s) kw | _ -> false

let eat_kw c kw =
  if is_kw c kw then advance c
  else error_at c (Fmt.str "expected keyword %S" (String.uppercase_ascii kw))

let keywords =
  [ "select"; "distinct"; "from"; "where"; "group"; "order"; "by"; "and"; "or";
    "not"; "as"; "asc"; "desc"; "limit" ]

let ident c =
  match peek c with
  | Lexer.IDENT s when not (List.mem (lower s) keywords) ->
    advance c;
    s
  | t -> error_at c (Fmt.str "expected identifier, found %a" Lexer.pp_token t)

let eat c tok =
  if peek c = tok then advance c
  else error_at c (Fmt.str "expected %a, found %a" Lexer.pp_token tok Lexer.pp_token (peek c))

(* [alias.attr] or bare [attr]. *)
let attr_ref c =
  let a = ident c in
  if peek c = Lexer.DOT then begin
    advance c;
    a ^ "." ^ ident c
  end
  else a

let constant c : Constant.t =
  match peek c with
  | Lexer.NUMBER f ->
    advance c;
    if Float.is_integer f then Constant.Int (int_of_float f) else Constant.Float f
  | Lexer.MINUS ->
    advance c;
    (match peek c with
     | Lexer.NUMBER f ->
       advance c;
       if Float.is_integer f then Constant.Int (-(int_of_float f))
       else Constant.Float (-.f)
     | t -> error_at c (Fmt.str "expected number, found %a" Lexer.pp_token t))
  | Lexer.STRING s ->
    advance c;
    Constant.String s
  | Lexer.IDENT s when lower s = "true" ->
    advance c;
    Constant.Bool true
  | Lexer.IDENT s when lower s = "false" ->
    advance c;
    Constant.Bool false
  | Lexer.IDENT s when lower s = "null" ->
    advance c;
    Constant.Null
  | t -> error_at c (Fmt.str "expected constant, found %a" Lexer.pp_token t)

let cmp_op c : Pred.cmp =
  match peek c with
  | Lexer.EQ -> advance c; Pred.Eq
  | Lexer.NE -> advance c; Pred.Ne
  | Lexer.LT -> advance c; Pred.Lt
  | Lexer.LE -> advance c; Pred.Le
  | Lexer.GT -> advance c; Pred.Gt
  | Lexer.GE -> advance c; Pred.Ge
  | t -> error_at c (Fmt.str "expected comparison operator, found %a" Lexer.pp_token t)

(* cond := attr op (const | attr) | fn '(' attr ',' const ')' | NOT cond
         | '(' disj ')' *)
let rec condition c : Pred.t =
  if is_kw c "not" then begin
    advance c;
    Pred.Not (condition c)
  end
  else if peek c = Lexer.LPAREN then begin
    advance c;
    let p = disjunction c in
    eat c Lexer.RPAREN;
    p
  end
  else if
    (match peek c, peek2 c with
     | Lexer.IDENT s, Lexer.LPAREN -> not (List.mem (lower s) keywords)
     | _ -> false)
  then begin
    (* ADT operation: fn(attr, constant) — a boolean predicate implemented
       by the wrapper (paper §7) *)
    let fn = ident c in
    eat c Lexer.LPAREN;
    let attr = attr_ref c in
    eat c Lexer.COMMA;
    let v = constant c in
    eat c Lexer.RPAREN;
    Pred.Apply (fn, attr, v)
  end
  else begin
    let a = attr_ref c in
    let op = cmp_op c in
    match peek c with
    | Lexer.IDENT s when List.mem (lower s) [ "true"; "false"; "null" ] ->
      Pred.Cmp (a, op, constant c)
    | Lexer.IDENT s when not (List.mem (lower s) keywords) ->
      Pred.Attr_cmp (a, op, attr_ref c)
    | _ -> Pred.Cmp (a, op, constant c)
  end

and conjunction c : Pred.t =
  let p = condition c in
  if is_kw c "and" then begin
    advance c;
    Pred.And (p, conjunction c)
  end
  else p

and disjunction c : Pred.t =
  let p = conjunction c in
  if is_kw c "or" then begin
    advance c;
    Pred.Or (p, disjunction c)
  end
  else p

let agg_fun_of_name name : Plan.agg_fun option =
  match lower name with
  | "count" -> Some Plan.Count
  | "sum" -> Some Plan.Sum
  | "avg" -> Some Plan.Avg
  | "min" -> Some Plan.Min
  | "max" -> Some Plan.Max
  | _ -> None

let select_item c : item =
  match peek c, peek2 c with
  | Lexer.IDENT name, Lexer.LPAREN when agg_fun_of_name name <> None ->
    let fn = Option.get (agg_fun_of_name name) in
    advance c;
    advance c;
    let input =
      if peek c = Lexer.STAR then begin
        advance c;
        ""
      end
      else attr_ref c
    in
    eat c Lexer.RPAREN;
    let default_name =
      lower (Fmt.str "%a_%s" Plan.pp_agg_fun fn
               (match Plan.split_attr input with
                | Some (_, a) -> a
                | None -> if input = "" then "all" else input))
    in
    if is_kw c "as" then begin
      advance c;
      Agg (fn, input, ident c)
    end
    else Agg (fn, input, default_name)
  | _ -> Col (attr_ref c)

let relation c : relation =
  let first = ident c in
  let rel_source, rel_collection =
    if peek c = Lexer.DOT then begin
      advance c;
      (Some first, ident c)
    end
    else (None, first)
  in
  let rel_alias =
    if is_kw c "as" then begin
      advance c;
      ident c
    end
    else
      match peek c with
      | Lexer.IDENT s when not (List.mem (lower s) keywords) ->
        advance c;
        s
      | _ -> rel_collection
  in
  { rel_source; rel_collection; rel_alias }

let comma_list c f =
  let rec go acc =
    let x = f c in
    if peek c = Lexer.COMMA then begin
      advance c;
      go (x :: acc)
    end
    else List.rev (x :: acc)
  in
  go []

(* The value of the LIMIT literal under the cursor: a plain decimal integer
   in [0, max_int], anything else is a parse error. The lexer reads every
   number as a float, which rounds long literals, overflows to infinity and
   keeps fractions, so the literal's own text decides. *)
let limit_literal c text =
  let s = c.toks.(c.i) in
  let rec line_start off line =
    if line = 1 then off
    else line_start (String.index_from text off '\n' + 1) (line - 1)
  in
  let start = line_start 0 s.Lexer.line + s.Lexer.col - 1 in
  let stop = ref start in
  while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
    incr stop
  done;
  let plain =
    !stop = String.length text || not (String.contains ".eE" text.[!stop])
  in
  match
    if plain then int_of_string_opt (String.sub text start (!stop - start))
    else None
  with
  | Some n -> n
  | None ->
    error_at c
      (Fmt.str "LIMIT takes an integer between 0 and %d, found %a" max_int
         Lexer.pp_token (peek c))

let parse ?(what = "query") text : t =
  let toks = Array.of_list (Lexer.tokenize ~what text) in
  let c = { toks; i = 0; what } in
  eat_kw c "select";
  let distinct =
    if is_kw c "distinct" then begin
      advance c;
      true
    end
    else false
  in
  let star, items =
    if peek c = Lexer.STAR then begin
      advance c;
      (true, [])
    end
    else (false, comma_list c select_item)
  in
  eat_kw c "from";
  let relations = comma_list c relation in
  let where =
    if is_kw c "where" then begin
      advance c;
      disjunction c
    end
    else Pred.True
  in
  let group_by =
    if is_kw c "group" then begin
      advance c;
      eat_kw c "by";
      comma_list c attr_ref
    end
    else []
  in
  let order_by =
    if is_kw c "order" then begin
      advance c;
      eat_kw c "by";
      comma_list c (fun c ->
          let a = attr_ref c in
          if is_kw c "desc" then begin
            advance c;
            (a, Plan.Desc)
          end
          else begin
            if is_kw c "asc" then advance c;
            (a, Plan.Asc)
          end)
    end
    else []
  in
  let limit =
    if is_kw c "limit" then begin
      advance c;
      match peek c with
      | Lexer.NUMBER _ ->
        let n = limit_literal c text in
        advance c;
        Some n
      | t -> error_at c (Fmt.str "expected number after LIMIT, found %a" Lexer.pp_token t)
    end
    else None
  in
  (match peek c with
   | Lexer.EOF | Lexer.SEMI -> ()
   | t -> error_at c (Fmt.str "unexpected %a after query" Lexer.pp_token t));
  { distinct; star; items; relations; where; group_by; order_by; limit }

(* Aliases used in the query, in FROM order. *)
let aliases t = List.map (fun r -> r.rel_alias) t.relations
