(* Shared helpers for the benchmark harness: table rendering and summary
   statistics. *)

let hr () = print_endline (String.make 78 '-')

let section title =
  print_newline ();
  hr ();
  Fmt.pr "== %s@." title;
  hr ()

(* Render a table: [header] row then [rows], columns padded to content. *)
let table (header : string list) (rows : string list list) =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let render row =
    let cells =
      List.mapi (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ') row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  render header;
  print_endline
    ("  " ^ String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter render rows

let f1 x = Fmt.str "%.1f" x
let f2 x = Fmt.str "%.2f" x
let pct x = Fmt.str "%.1f%%" (100. *. x)

let rel_err ~est ~real = Float.abs (est -. real) /. Float.max real 1e-9

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max (List.length xs) 1)

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log (Float.max x 1e-12)) 0. xs
       /. float_of_int (max (List.length xs) 1))

let maximum xs = List.fold_left Float.max neg_infinity xs

(* Emit the one-line machine-readable record every bench ends with, and
   optionally persist it (--json=PATH). [fields] are pre-rendered
   `"key":value` JSON members. *)
let bench_json ?json_path ~bench fields =
  let json =
    Fmt.str {|{"bench":%S,%s}|} bench (String.concat "," fields)
  in
  Fmt.pr "  BENCH JSON %s@." json;
  match json_path with
  | Some path ->
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc
  | None -> ()
