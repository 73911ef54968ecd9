(* The repository benchmark (README.md in this directory).

     dune exec perfbench/main.exe -- --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last stdout line is the JSON result
     dune exec perfbench/main.exe -- [--seed N] [--seconds S] [--out PATH] [--trace-out PATH]
         every workload, untraced then traced, one process per run
     dune exec perfbench/main.exe -- --smoke
         one round of every workload at small sizes, checked against
         BENCHMARK.json
     dune exec perfbench/main.exe -- compare BASE.jsonl NEW.jsonl
         judge NEW against BASE under BENCHMARK.json's bounds *)

open Disco_server

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out PATH] \
     [--trace-out PATH] [--smoke]\n\
    \       main.exe compare BASE.jsonl NEW.jsonl";
  exit 2

(* Settings that would make the numbers measure something other than the
   shipped defaults. *)
let forbidden_env =
  [ "DISCO_DOMAINS"; "DISCO_ENGINE"; "DISCO_BATCH"; "DISCO_ENUM"; "DISCO_OO7_SCALE" ]

let benchmark_json () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | text -> Json.parse_exn text
  | exception Sys_error e -> failwith ("cannot read BENCHMARK.json: " ^ e)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    n
  | exception Unix.Unix_error _ -> None

let json_metric ?(note = false) (m : Perf.metric) =
  ( m.Perf.name,
    Json.Obj
      ([ ("value", Json.Float m.Perf.value); ("unit", Json.String m.Perf.unit_) ]
      @ if note then [ ("note", Json.String m.Perf.note) ] else []) )

let report ~workload ~seed ~seconds ~trace ~smoke ~out (o : Perf.outcome) =
  List.iter
    (fun (m : Perf.metric) ->
      Printf.printf "  %-32s %14.6g %-12s %s\n" m.Perf.name m.Perf.value m.Perf.unit_ m.Perf.note)
    o.Perf.metrics;
  let correct = o.Perf.failed = 0 in
  Printf.printf "  %s: %d attempted, %d failed\n" (if correct then "correct" else "INCORRECT")
    o.Perf.attempted o.Perf.failed;
  let kernel_min = List.fold_left Float.min infinity o.Perf.kernels in
  let host =
    Json.Obj
      [ ("nproc", match nproc () with Some n -> Json.Int n | None -> Json.Null);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("seed", Json.Int seed);
        ("kernel_min_ms", Json.Float kernel_min);
        ("kernel_median_ms", Json.Float (Stats.median o.Perf.kernels)) ]
  in
  Option.iter
    (fun path ->
      let record =
        Json.Obj
          [ ("workload", Json.String workload);
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("trace", Json.Int (if trace then 1 else 0));
            ("smoke", Json.Bool smoke);
            ("correct", Json.Bool correct);
            ("attempted", Json.Int o.Perf.attempted);
            ("failed", Json.Int o.Perf.failed);
            ("host", host);
            ("metrics", Json.Obj (List.map (json_metric ~note:true) o.Perf.metrics)) ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    out;
  (* failed_share travels as [failed] / [attempted] on the result line *)
  let metrics = List.filter (fun (m : Perf.metric) -> m.Perf.name <> "failed_share") o.Perf.metrics in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.Perf.attempted);
            ("failed", Json.Int o.Perf.failed);
            ("metrics", Json.Obj (List.map json_metric metrics)) ]));
  if not correct then exit 1

(* Run the workloads, one child process per (workload, trace) run, echoing
   their output. With [smoke], every metric BENCHMARK.json names must come
   back finite. *)
let orchestrate ~workloads ~traces ~args ~smoke ~trace_out =
  let benchmark = if smoke then Some (benchmark_json ()) else None in
  let names key =
    match Option.bind benchmark (Json.member key) with
    | Some (Json.List ms) -> List.filter_map (Json.string_member "name") ms
    | _ -> []
  in
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun t ->
          let trace_out =
            match trace_out with
            | Some p when t = 1 -> [ "--trace-out"; Printf.sprintf "%s.%s" p w ]
            | _ -> []
          in
          let argv =
            [ Sys.executable_name; "--workload"; w; "--trace"; string_of_int t ] @ args @ trace_out
          in
          flush stdout;
          let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
          let last = ref "" in
          (try
             while true do
               let line = input_line ic in
               print_endline line;
               last := line
             done
           with End_of_file -> ());
          (match Unix.close_process_in ic with
           | Unix.WEXITED 0 -> ()
           | _ ->
             ok := false;
             Printf.printf "perfbench: %s (trace %d) failed\n" w t);
          if smoke then begin
            let result = try Json.parse_exn !last with Json.Parse_error _ -> Json.Null in
            let missing =
              List.filter
                (fun name ->
                  match Option.bind (Json.member "metrics" result) (Json.member name) with
                  | Some m ->
                    (match Json.float_member "value" m with
                     | Some v -> not (Float.is_finite v)
                     | None -> true)
                  | None -> true)
                (names (if t = 0 then "end_to_end" else "per_layer"))
            in
            if missing <> [] || Json.member "correct" result <> Some (Json.Bool true) then begin
              ok := false;
              Printf.printf "perfbench: %s (trace %d): incorrect, or missing or non-finite: %s\n"
                w t (String.concat ", " missing)
            end
          end)
        traces)
    workloads;
  if not !ok then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; base; change ] -> Compare.run ~benchmark:(benchmark_json ()) base change
  | "compare" :: _ -> usage ()
  | args ->
    (match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
     | [] -> ()
     | set ->
       Printf.eprintf "perfbench: unset %s: the benchmark measures the shipped defaults\n"
         (String.concat ", " set);
       exit 2);
    let workload = ref None and seed = ref 1 and seconds = ref None and trace = ref None in
    let out = ref None and trace_out = ref None and smoke = ref false in
    let rec parse = function
      | [] -> ()
      | "--smoke" :: rest ->
        smoke := true;
        parse rest
      | flag :: v :: rest ->
        (match flag with
         | "--workload" -> workload := Some v
         | "--seed" -> seed := int_of_string v
         | "--seconds" -> seconds := Some (float_of_string v)
         | "--trace" ->
           trace :=
             Some (match v with "0" -> false | "1" -> true | _ -> usage ())
         | "--out" -> out := Some v
         | "--trace-out" -> trace_out := Some v
         | _ -> usage ());
        parse rest
      | [ _ ] -> usage ()
    in
    (try parse args with Failure _ -> usage ());
    let seconds =
      match !seconds with
      | Some s -> s
      | None when !smoke -> 0.
      | None ->
        (match Json.float_member "run_seconds" (benchmark_json ()) with
         | Some s -> s
         | None -> failwith "BENCHMARK.json: no run_seconds")
    in
    (match !workload with
     | Some name ->
       let w =
         match Workload.make name ~seed:!seed ~smoke:!smoke with
         | Some w -> w
         | None ->
           Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" name
             (String.concat ", " Workload.names);
           exit 2
       in
       let trace = Option.value ~default:false !trace in
       Printf.printf "perfbench %s seed=%d seconds=%g trace=%d%s\n%!" name !seed seconds
         (if trace then 1 else 0)
         (if !smoke then " smoke" else "");
       let o = Perf.run w ~seed:!seed ~seconds ~trace ~trace_out:!trace_out in
       report ~workload:name ~seed:!seed ~seconds ~trace ~smoke:!smoke ~out:!out o
     | None ->
       let args =
         [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" seconds ]
         @ (if !smoke then [ "--smoke" ] else [])
         @ match !out with Some p -> [ "--out"; p ] | None -> []
       in
       let traces = match !trace with Some t -> [ (if t then 1 else 0) ] | None -> [ 0; 1 ] in
       orchestrate ~workloads:Workload.names ~traces ~args ~smoke:!smoke
         ~trace_out:!trace_out)
