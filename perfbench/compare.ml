(* `compare BASE NEW`: judge a change against its parent from two result
   files (the JSON lines `--out` appends, several runs per workload on each
   side), under the bounds BENCHMARK.json fixes. One row per (workload,
   end-to-end metric):

   - unresolved: the parent's run-to-run spread (interquartile range over
     median) is wider than the bound, and the change does not beat the
     parent on every run;
   - worse / better: the medians differ by more than the bound;
   - unchanged: otherwise.

   failed_share has no relative bound: any rise is worse. Exits 1 when a
   row is worse. *)

open Disco_server

type bound = { metric : string; better_lower : bool; bound : float }

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let bounds benchmark =
  match Json.member "end_to_end" benchmark with
  | Some (Json.List ms) ->
    List.filter_map
      (fun m ->
        match
          (Json.string_member "name" m, Json.string_member "better" m, Json.float_member "bound" m)
        with
        | Some metric, Some better, Some bound ->
          Some { metric; better_lower = better = "lower"; bound }
        | _ -> None)
      ms
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

(* (workload, metric) -> values, over the untraced runs of a results file. *)
let samples path =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let r = Json.parse_exn line in
      match (Json.string_member "workload" r, Json.int_member "trace" r, Json.member "metrics" r) with
      | Some w, Some 0, Some (Json.Obj ms) ->
        List.iter
          (fun (name, m) ->
            match Json.float_member "value" m with
            | Some v ->
              let k = (w, name) in
              Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
            | None -> ())
          ms
      | _ -> ())
    (read_lines path);
  tbl

let verdict b ~base ~change =
  let _, bm, _ = Stats.quartiles base and _, cm, _ = Stats.quartiles change in
  let worse_by x y = if b.better_lower then (y -. x) /. x else (x -. y) /. x in
  let spread =
    let q1, m, q3 = Stats.quartiles base in
    if List.length base < 2 then 0. else (q3 -. q1) /. Float.abs m
  in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> worse_by p c < 0.) base) change
  in
  if b.metric = "failed_share" then
    if cm > bm then "worse" else if cm < bm then "better" else "unchanged"
  else if spread > b.bound then if all_better then "better" else "unresolved"
  else
    let d = worse_by bm cm in
    if d > b.bound then "worse" else if d < -.b.bound then "better" else "unchanged"

let run ~benchmark base_path change_path =
  let bounds =
    bounds benchmark @ [ { metric = "failed_share"; better_lower = true; bound = 0. } ]
  in
  let base = samples base_path and change = samples change_path in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) base [])
  in
  let fmt xs =
    let q1, m, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3
  in
  let worse = ref 0 in
  Printf.printf "%-16s %-20s %-30s %-30s %s\n" "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          match (Hashtbl.find_opt base (w, b.metric), Hashtbl.find_opt change (w, b.metric)) with
          | Some p, Some c ->
            let v = verdict b ~base:p ~change:c in
            if v = "worse" then incr worse;
            Printf.printf "%-16s %-20s %-30s %-30s %s (bound %g, runs %d/%d)\n" w b.metric
              (fmt p) (fmt c) v b.bound (List.length p) (List.length c)
          | _ ->
            incr worse;
            Printf.printf "%-16s %-20s missing on one side\n" w b.metric)
        bounds)
    workloads;
  if !worse > 0 then exit 1
