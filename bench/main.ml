(* The benchmark harness: regenerates every figure and table of the
   reproduction (see DESIGN.md §4 for the experiment index).

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig12 t2  # a subset
     dune exec bench/main.exe -- --small   # reduced data sizes (CI-friendly)

   Experiments:
     fig12  — paper Figure 12: OO7 index scan, Experiment/Calibration/Yao
     t1     — estimation accuracy per operator, generic vs blended
     t2     — plan quality: executed time of chosen plans vs oracle
     t3     — estimation overhead vs number of registered rules
     t4     — historical-cost extensions (exact caching, adjustment)
     t5     — branch-and-bound early abort during plan selection
     t6     — scope-hierarchy ablation
     t7     — ADT operation costs: push vs defer an expensive predicate
     t8     — OO7 query workload accuracy (measured vs calibrated vs rules)
     cache  — two-level estimation cache: speedup + differential assertions
     micro  — Bechamel micro-benchmarks of the mediator kernels
     formula — cost-formula throughput, bytecode VM vs closure backend
               (--json=PATH writes the BENCH JSON record to a file)
     faults — fault injection: zero-fault differential, determinism,
              availability vs latency sweep (--json=PATH as above)
     parallel — domain-parallel plan search and scatter-gather execution:
              speedup curve over 1..N domains with bit-identity checks
              (--json=PATH as above)
     serve  — the federation server under closed-loop multi-client load:
              QPS and latency percentiles per domain count, with exact
              client/server accounting and a warm-restart check
              (--json=PATH as above)
     verify — whole-plan verification overhead on the warm plan-cache
              query path, gated at 5% (--json=PATH as above)
     joins  — scalable join enumeration: DPccp vs subset-DP vs greedy over
              chain/star/clique/random graphs at 5..50 sources, with
              bit-identity checks and the enumeration-work and 50-source
              latency gates (--json=PATH as above) *)

let all =
  [ "fig12"; "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7"; "t8"; "cache"; "micro";
    "formula"; "faults"; "parallel"; "serve"; "verify"; "joins" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let small = List.mem "--small" args in
  let json_path =
    List.find_map
      (fun a ->
        if String.length a > 7 && String.sub a 0 7 = "--json=" then
          Some (String.sub a 7 (String.length a - 7))
        else None)
      args
  in
  let wanted =
    List.filter
      (fun a -> a <> "--small" && not (String.length a >= 7 && String.sub a 0 7 = "--json="))
      args
  in
  let wanted = if wanted = [] then all else wanted in
  let fig12_config =
    if small then
      Some { Disco_oo7.Oo7.paper_config with Disco_oo7.Oo7.atomic_parts = 7_000 }
    else None
  in
  List.iter
    (fun name ->
      match name with
      | "fig12" -> Fig12.print ?config:fig12_config ()
      | "t1" -> Accuracy.print ()
      | "t2" -> Planquality.print ?json_path ~smoke:small ()
      | "t3" -> Overhead.print ()
      | "t4" -> History_bench.print ()
      | "t5" -> Prune.print ()
      | "t6" -> Scopes.print ()
      | "t7" -> Adtbench.print ()
      | "t8" -> Oo7queries.print ?config:fig12_config ()
      | "cache" -> Cachebench.print ~smoke:small ()
      | "micro" -> Micro.print ()
      | "formula" -> Micro.print_formula ~smoke:small ?json_path ()
      | "faults" -> Faults.print ~smoke:small ?json_path ()
      | "parallel" -> Parallel.print ~smoke:small ?json_path ()
      | "serve" -> Serve_bench.print ~smoke:small ?json_path ()
      | "verify" -> Verify_bench.print ~smoke:small ?json_path ()
      | "joins" -> Joins.print ~smoke:small ?json_path ()
      | other ->
        Fmt.epr "unknown experiment %S (known: %s)@." other (String.concat ", " all);
        exit 1)
    wanted
