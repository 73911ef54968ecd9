(* Recursive-descent parser for the cost communication language. The concrete
   grammar follows Fig 9 of the paper, extended with the full operator set of
   the mediator algebra, [let]/[def] declarations, and the IDL-subset
   interface syntax of Figs 3-5. *)

open Disco_common
open Disco_algebra
open Disco_catalog

type cursor = {
  what : string;
  toks : Lexer.spanned array;
  mutable i : int;
}

let peek c = c.toks.(c.i).tok

let error_at c msg =
  let s = c.toks.(c.i) in
  Err.parse_error ~what:c.what ~line:s.Lexer.line ~col:s.Lexer.col msg

let advance c = if c.i < Array.length c.toks - 1 then c.i <- c.i + 1

let eat c tok =
  if peek c = tok then advance c
  else error_at c (Fmt.str "expected %a, found %a" Lexer.pp_token tok Lexer.pp_token (peek c))

let ident c =
  match peek c with
  | IDENT s ->
    advance c;
    s
  | t -> error_at c (Fmt.str "expected identifier, found %a" Lexer.pp_token t)

let keyword c kw =
  match peek c with
  | IDENT s when String.equal s kw -> advance c
  | t -> error_at c (Fmt.str "expected keyword %S, found %a" kw Lexer.pp_token t)

let number c =
  match peek c with
  | NUMBER f ->
    advance c;
    f
  | MINUS ->
    advance c;
    (match peek c with
     | NUMBER f ->
       advance c;
       -.f
     | t -> error_at c (Fmt.str "expected number, found %a" Lexer.pp_token t))
  | t -> error_at c (Fmt.str "expected number, found %a" Lexer.pp_token t)

(* A constant literal: number, string, true or false. *)
let constant c : Constant.t =
  match peek c with
  | NUMBER f ->
    advance c;
    if Float.is_integer f then Constant.Int (int_of_float f) else Constant.Float f
  | MINUS ->
    let f = number c in
    if Float.is_integer f then Constant.Int (int_of_float f) else Constant.Float f
  | STRING s ->
    advance c;
    Constant.String s
  | IDENT "true" ->
    advance c;
    Constant.Bool true
  | IDENT "false" ->
    advance c;
    Constant.Bool false
  | IDENT "null" ->
    advance c;
    Constant.Null
  | t -> error_at c (Fmt.str "expected constant, found %a" Lexer.pp_token t)

(* --- Expressions ------------------------------------------------------- *)

let rec expr c : Ast.expr =
  let lhs = term c in
  let rec loop lhs =
    match peek c with
    | PLUS ->
      advance c;
      loop (Ast.Binop (Ast.Add, lhs, term c))
    | MINUS ->
      advance c;
      loop (Ast.Binop (Ast.Sub, lhs, term c))
    | _ -> lhs
  in
  loop lhs

and term c : Ast.expr =
  let lhs = factor c in
  let rec loop lhs =
    match peek c with
    | STAR ->
      advance c;
      loop (Ast.Binop (Ast.Mul, lhs, factor c))
    | SLASH ->
      advance c;
      loop (Ast.Binop (Ast.Div, lhs, factor c))
    | _ -> lhs
  in
  loop lhs

and factor c : Ast.expr =
  match peek c with
  | NUMBER f ->
    advance c;
    Ast.Num f
  | STRING s ->
    advance c;
    Ast.Str s
  | MINUS ->
    advance c;
    Ast.Neg (factor c)
  | LPAREN ->
    advance c;
    let e = expr c in
    eat c RPAREN;
    e
  | IDENT _ ->
    let name = ident c in
    (match peek c with
     | LPAREN ->
       advance c;
       let args =
         if peek c = RPAREN then []
         else
           let rec go acc =
             let e = expr c in
             match peek c with
             | COMMA ->
               advance c;
               go (e :: acc)
             | _ -> List.rev (e :: acc)
           in
           go []
       in
       eat c RPAREN;
       Ast.Call (name, args)
     | DOT ->
       let rec path acc =
         match peek c with
         | DOT ->
           advance c;
           path (ident c :: acc)
         | _ -> List.rev acc
       in
       Ast.Ref (path [ name ])
     | _ -> Ast.Ref [ name ])
  | t -> error_at c (Fmt.str "expected expression, found %a" Lexer.pp_token t)

(* --- Rule heads -------------------------------------------------------- *)

(* An argument in a head: identifier (variable or literal name, possibly
   dotted as in x1.id), number, or string. *)
let head_arg c : Ast.arg_pat =
  match peek c with
  | IDENT ("true" | "false" | "null") | NUMBER _ | STRING _ | MINUS -> Ast.Pconst (constant c)
  | IDENT _ ->
    let name = ident c in
    if peek c = DOT then begin
      advance c;
      let rest = ident c in
      Ast.Pname (name ^ "." ^ rest)
    end
    else Ast.arg_pat_of_ident name
  | t -> error_at c (Fmt.str "expected head argument, found %a" Lexer.pp_token t)

let cmp_op c : Pred.cmp option =
  match peek c with
  | EQ ->
    advance c;
    Some Pred.Eq
  | NE ->
    advance c;
    Some Pred.Ne
  | LT ->
    advance c;
    Some Pred.Lt
  | LE ->
    advance c;
    Some Pred.Le
  | GT ->
    advance c;
    Some Pred.Gt
  | GE ->
    advance c;
    Some Pred.Ge
  | _ -> None

(* A predicate pattern: either a lone variable [P] or [arg op arg]. *)
let pred_pat c : Ast.pred_pat =
  let lhs = head_arg c in
  match cmp_op c with
  | Some op -> Ast.Pcmp (lhs, op, head_arg c)
  | None ->
    (match lhs with
     | Ast.Pvar v -> Ast.Ppred_var v
     | Ast.Pname n ->
       error_at c
         (Fmt.str
            "lone predicate pattern %S is not a variable (variables are a single \
             capital letter, optionally followed by digits)"
            n)
     | Ast.Pconst _ -> error_at c "a constant is not a valid predicate pattern")

let head c : Ast.head =
  let op = ident c in
  eat c LPAREN;
  let comma () = eat c COMMA in
  let h =
    match op with
    | "scan" -> Ast.Hscan (head_arg c)
    | "select" ->
      let coll = head_arg c in
      comma ();
      Ast.Hselect (coll, pred_pat c)
    | "project" ->
      let coll = head_arg c in
      comma ();
      Ast.Hproject (coll, head_arg c)
    | "sort" ->
      let coll = head_arg c in
      comma ();
      Ast.Hsort (coll, head_arg c)
    | "join" ->
      let l = head_arg c in
      comma ();
      let r = head_arg c in
      comma ();
      Ast.Hjoin (l, r, pred_pat c)
    | "union" ->
      let l = head_arg c in
      comma ();
      Ast.Hunion (l, head_arg c)
    | "dedup" -> Ast.Hdedup (head_arg c)
    | "aggregate" ->
      let coll = head_arg c in
      comma ();
      Ast.Haggregate (coll, head_arg c)
    | "submit" ->
      let w = head_arg c in
      comma ();
      Ast.Hsubmit (w, head_arg c)
    | other -> error_at c (Fmt.str "unknown operator %S in rule head" other)
  in
  eat c RPAREN;
  h

(* --- Rules, interfaces, sources ---------------------------------------- *)

let pos_here c : Ast.pos =
  let s = c.toks.(c.i) in
  { Ast.line = s.Lexer.line; col = s.Lexer.col }

let rule c : Ast.rule =
  let rpos = pos_here c in
  keyword c "rule";
  let h = head c in
  eat c LBRACE;
  let rec assigns acc pos_acc =
    match peek c with
    | RBRACE ->
      advance c;
      (List.rev acc, List.rev pos_acc)
    | IDENT name ->
      let target = Ast.target_of_name name in
      let tpos = pos_here c in
      advance c;
      eat c EQ;
      let e = expr c in
      eat c SEMI;
      assigns ((target, e) :: acc) ((name, tpos) :: pos_acc)
    | t -> error_at c (Fmt.str "expected result assignment or '}', found %a" Lexer.pp_token t)
  in
  let body, body_pos = assigns [] [] in
  { Ast.head = h; body; rule_pos = Some rpos; body_pos }

let schema_ty c =
  match ident c with
  | "long" | "short" | "int" -> Schema.Tint
  | "double" | "float" -> Schema.Tfloat
  | "string" -> Schema.Tstring
  | "boolean" | "bool" -> Schema.Tbool
  | other -> error_at c (Fmt.str "unknown attribute type %S" other)

let bool_lit c =
  match peek c with
  | IDENT "true" ->
    advance c;
    true
  | IDENT "false" ->
    advance c;
    false
  | t -> error_at c (Fmt.str "expected true or false, found %a" Lexer.pp_token t)

let member c : Ast.member =
  match peek c with
  | IDENT "attribute" ->
    advance c;
    let ty = schema_ty c in
    let name = ident c in
    eat c SEMI;
    Ast.Attr_decl (ty, name)
  | IDENT "cardinality" ->
    advance c;
    (match ident c with
     | "extent" ->
       eat c LPAREN;
       let count = number c in
       eat c COMMA;
       let total = number c in
       eat c COMMA;
       let objsize = number c in
       eat c RPAREN;
       eat c SEMI;
       Ast.Extent_decl { count; total; objsize }
     | "attribute" ->
       eat c LPAREN;
       let attr = ident c in
       eat c COMMA;
       let indexed = bool_lit c in
       eat c COMMA;
       let distinct = number c in
       eat c COMMA;
       let min = constant c in
       eat c COMMA;
       let max = constant c in
       eat c RPAREN;
       eat c SEMI;
       Ast.Attr_stats { attr; indexed; distinct; min; max }
     | other ->
       error_at c (Fmt.str "expected 'extent' or 'attribute' after cardinality, got %S" other))
  | IDENT "rule" -> Ast.Iface_rule (rule c)
  | t -> error_at c (Fmt.str "expected interface member, found %a" Lexer.pp_token t)

let interface c : Ast.interface_decl =
  keyword c "interface";
  let name = ident c in
  let parent =
    if peek c = COLON then begin
      advance c;
      Some (ident c)
    end
    else None
  in
  eat c LBRACE;
  let rec members acc =
    if peek c = RBRACE then begin
      advance c;
      List.rev acc
    end
    else members (member c :: acc)
  in
  { Ast.iface_name = name; iface_parent = parent; members = members [] }

let item c : Ast.item =
  match peek c with
  | IDENT "capabilities" ->
    advance c;
    let rec ops acc =
      let op = ident c in
      if peek c = COMMA then begin
        advance c;
        ops (op :: acc)
      end
      else List.rev (op :: acc)
    in
    let caps = ops [] in
    eat c SEMI;
    Ast.Capabilities caps
  | IDENT "let" ->
    advance c;
    let name = ident c in
    eat c EQ;
    let e = expr c in
    eat c SEMI;
    Ast.Let (name, e)
  | IDENT "def" ->
    advance c;
    let name = ident c in
    eat c LPAREN;
    let rec params acc =
      match peek c with
      | RPAREN ->
        advance c;
        List.rev acc
      | COMMA ->
        advance c;
        params acc
      | IDENT _ -> params (ident c :: acc)
      | t -> error_at c (Fmt.str "expected parameter name, found %a" Lexer.pp_token t)
    in
    let ps = params [] in
    eat c EQ;
    let e = expr c in
    eat c SEMI;
    Ast.Def (name, ps, e)
  | IDENT "interface" -> Ast.Interface (interface c)
  | IDENT "rule" -> Ast.Toplevel_rule (rule c)
  | t -> error_at c (Fmt.str "expected let, def, interface or rule, found %a" Lexer.pp_token t)

(* Items up to the token [stop] (left unconsumed), with the positions of
   their lets and defs. *)
let items c ~stop =
  let rec go acc pos =
    if peek c = stop then (List.rev acc, List.rev pos)
    else
      let p = pos_here c in
      match item c with
      | Ast.Let (n, _) as it -> go (it :: acc) (("let " ^ n, p) :: pos)
      | Ast.Def (n, _, _) as it -> go (it :: acc) (("def " ^ n, p) :: pos)
      | it -> go (it :: acc) pos
  in
  go [] []

let source c : Ast.source_decl =
  keyword c "source";
  let name = ident c in
  eat c LBRACE;
  let items, item_pos = items c ~stop:RBRACE in
  advance c;
  { Ast.source_name = name; items; item_pos }

let cursor_of ~what text =
  { what; toks = Array.of_list (Lexer.tokenize ~what text); i = 0 }

(* Entry points. *)

let parse_source ~what text : Ast.source_decl =
  let c = cursor_of ~what text in
  let s = source c in
  eat c EOF;
  s

(* A sequence of items without the [source name { }] wrapper; the caller
   supplies the source name. *)
let parse_items ~what text = items (cursor_of ~what text) ~stop:EOF

let parse_rule ~what text : Ast.rule =
  let c = cursor_of ~what text in
  let r = rule c in
  eat c EOF;
  r

let parse_expr ~what text : Ast.expr =
  let c = cursor_of ~what text in
  let e = expr c in
  eat c EOF;
  e
