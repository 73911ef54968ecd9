(* A minimal JSON value type with a printer and a recursive-descent parser,
   for the server's line-delimited protocol. No external dependency: the
   container ships no JSON library, and the protocol needs only standard
   JSON — objects, arrays, strings (with escapes), numbers, booleans, null.

   Numbers: integers parse to [Int], everything else to [Float]. Floats
   print with "%.17g" so a value round-trips bit-identically through the
   wire — the serve-loop differential tests compare server rows against
   locally serialized rows with this very printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"  (* JSON has no NaN/infinity *)
  | String s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------------- *)

exception Parse_error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else error (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf code =
    let add c = Buffer.add_char buf (Char.chr c) in
    if code < 0x80 then add code
    else if code < 0x800 then begin
      add (0xC0 lor (code lsr 6));
      add (0x80 lor (code land 0x3F))
    end
    else if code < 0x10000 then begin
      add (0xE0 lor (code lsr 12));
      add (0x80 lor ((code lsr 6) land 0x3F));
      add (0x80 lor (code land 0x3F))
    end
    else begin
      add (0xF0 lor (code lsr 18));
      add (0x80 lor ((code lsr 12) land 0x3F));
      add (0x80 lor ((code lsr 6) land 0x3F));
      add (0x80 lor (code land 0x3F))
    end
  in
  (* Exactly four hex digits ([int_of_string] would take '_' too). *)
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let code = ref 0 in
    for k = 0 to 3 do
      let d =
        match s.[!pos + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> error "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* A \u escape's code point, [pos] just past the 'u': a high surrogate
     must be followed by an escaped low one, and the pair is one astral
     code point (JSON writes U+10000 and above that way). *)
  let escaped_code () =
    let code = hex4 () in
    if code >= 0xD800 && code <= 0xDBFF then
      if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then begin
        pos := !pos + 2;
        let low = hex4 () in
        if low >= 0xDC00 && low <= 0xDFFF then
          0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
        else error "unpaired surrogate in \\u escape"
      end
      else error "unpaired surrogate in \\u escape"
    else if code >= 0xDC00 && code <= 0xDFFF then error "unpaired surrogate in \\u escape"
    else code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               utf8_of_code buf (escaped_code ())
             | c -> error (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false)
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt text with
       | Some f -> Float f
       | None -> error (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields ((k, v) :: acc)
          | Some '}' -> advance (); List.rev ((k, v) :: acc)
          | _ -> error "expected , or } in object"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec elts acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elts (v :: acc)
          | Some ']' -> advance (); List.rev (v :: acc)
          | _ -> error "expected , or ] in array"
        in
        List (elts [])
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then error "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --------------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let string_member key j =
  match member key j with Some (String s) -> Some s | _ -> None

let float_member key j =
  match member key j with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let int_member key j = match member key j with Some (Int i) -> Some i | _ -> None
