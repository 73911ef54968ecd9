(* joins — scalable join enumeration over synthetic wide federations
   (DESIGN.md §15).

   Chain / star / clique / random join graphs at 5..50 sources, optimized
   by each engine where it is feasible:

   - [dpccp]  — connected-subgraph / complement enumeration: work
                proportional to the number of csg–cmp pairs the graph
                actually has (cubic on chains). The exact engine
                [Optimizer.optimize] runs up to the threshold.
   - [greedy] — GOO with bounded DPccp window improvement; the engine
                [Optimizer.optimize] hands over to above the threshold.
   - [oracle] — at 5 sources only: [choose ~prune:false] over every plan
                [enumerate] produces.

   Assertions and gates:
   - at 5 sources, on every shape, DPccp's cost equals the exhaustive
     oracle's to the bit;
   - at chain-12, DPccp generates exactly (n^3 - n)/6 = 286 csg–cmp pairs,
     and at least 10x fewer than the (3^n - 2^(n+1) + 1)/2 = 261,625 splits
     a DP over every alias subset examines (the enumeration-work gate: cost
     evaluations are the same either way, the enumeration around them is
     what DPccp collapses);
   - every sparse 50-source shape (chain/star/random) optimizes by greedy in
     under 100 ms; clique-50 in under 500 ms — its query carries n(n-1)/2 =
     1225 join predicates, so every one of its ~n^2/2 pair rankings is an
     estimation over wide predicate conjunctions: the extra factor is the
     cost model's predicate scaling, not enumeration (exact DP on a mere
     clique-10 already takes seconds). Every 50-source decorated plan passes
     whole-plan verification with zero errors;
   - chain-50 runs end to end through [Mediator.run_query]. *)

open Disco_wrapper
open Disco_mediator

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let fed ~n ~rows =
  let med = Mediator.create () in
  List.iter (Mediator.register med) (Demo.synthetic ~rows ~n ());
  med

let spec_of med sql = (Mediator.resolve med (Disco_sql.Sql.parse sql)).Mediator.spec

(* Feasibility caps per graph shape: the width up to which DPccp stays
   tractable (~3^n pairs on cliques and stars, cubic on chains). *)
let ccp_cap = function
  | Demo.Chain -> Optimizer.max_graph_width
  | Demo.Star -> 12
  | Demo.Clique -> 11
  | Demo.Random_edges _ -> 12

type run = {
  cost : float;
  ms : float;
  considered : int;
  pairs : int;
  entries : int;
}

let optimize_with (engine : Optimizer.engine) med spec =
  let stats = Optimizer.new_stats () in
  let (_, cost), ms =
    time (fun () -> engine ~stats (Mediator.registry med) spec)
  in
  { cost; ms;
    considered = stats.Optimizer.plans_considered;
    pairs = stats.Optimizer.csg_cmp_pairs;
    entries = stats.Optimizer.dp_entries }

(* The exhaustive oracle: the cheapest of every plan [enumerate] produces. *)
let oracle med spec =
  let stats = Optimizer.new_stats () in
  let best, ms =
    time (fun () ->
        Optimizer.choose ~prune:false (Mediator.registry med) ~stats
          (Optimizer.enumerate spec))
  in
  { cost = snd (Option.get best); ms;
    considered = stats.Optimizer.plans_considered; pairs = 0; entries = 0 }

let shapes n =
  [ ("chain", Demo.Chain);
    ("star", Demo.Star);
    ("clique", Demo.Clique);
    ("random", Demo.Random_edges (max 1 (n / 2))) ]

let print ?(smoke = false) ?json_path () =
  Fmt.pr "== joins: scalable join enumeration (chain/star/clique/random) ==@.";
  let rows = if smoke then 40 else 200 in
  let sizes = [ 5; 10; 15; 20; 35; 50 ] in
  let table_rows = ref [] in
  let add_row cells = table_rows := cells :: !table_rows in
  let identical = ref 0 in
  let greedy50 = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let med = fed ~n ~rows in
      List.iter
        (fun (shape_name, shape) ->
          let where = Fmt.str "%s-%d" shape_name n in
          let spec = spec_of med (Demo.synthetic_sql ~shape ~n ()) in
          let add_run name r =
            add_row
              [ where; name; Fmt.str "%.2f" r.ms; string_of_int r.considered;
                string_of_int r.pairs; string_of_int r.entries;
                Fmt.str "%.0f" r.cost ];
            r
          in
          let ccp =
            if n <= ccp_cap shape then
              Some (add_run "dpccp" (optimize_with Optimizer.dpccp med spec))
            else None
          in
          (match ccp with
           | Some b when n = 5 ->
             let o = add_run "oracle" (oracle med spec) in
             if Int64.bits_of_float o.cost <> Int64.bits_of_float b.cost then
               Fmt.failwith "joins: %s: dpccp cost %h, exhaustive oracle %h"
                 where b.cost o.cost;
             incr identical
           | _ -> ());
          let greedy = add_run "greedy" (optimize_with Optimizer.greedy med spec) in
          (match ccp with
           | Some b when b.cost > 0. ->
             add_row
               [ where; "ratio"; ""; ""; "";
                 "greedy/exact"; Fmt.str "%.3f" (greedy.cost /. b.cost) ]
           | _ -> ());
          if n = 50 then Hashtbl.replace greedy50 shape_name greedy.ms)
        (shapes n))
    sizes;
  Util.table
    [ "graph"; "engine"; "ms"; "considered"; "csg-cmp"; "dp-entries"; "cost" ]
    (List.rev !table_rows);
  Fmt.pr "  %d dpccp = exhaustive oracle checks passed@." !identical;
  if !identical <> 4 then
    Fmt.failwith "joins: %d oracle checks ran, expected one per 5-source shape"
      !identical;

  (* --- gate: enumeration work at chain-12 ---------------------------------
     A DP over every alias subset examines each of the 2^(k-1) - 1 splits of
     each k-subset, (3^n - 2^(n+1) + 1)/2 in all; DPccp generates only the
     connected pairs, (n^3 - n)/6 on a chain. *)
  let n12 = 12 in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let dp12_pairs = (pow 3 n12 - pow 2 (n12 + 1) + 1) / 2 in
  let med12 = fed ~n:n12 ~rows in
  let spec12 = spec_of med12 (Demo.synthetic_sql ~shape:Demo.Chain ~n:n12 ()) in
  let ccp12 = optimize_with Optimizer.dpccp med12 spec12 in
  if ccp12.pairs <> ((n12 * n12 * n12) - n12) / 6 then
    Fmt.failwith "joins: chain-12 dpccp generated %d pairs, expected (n^3 - n)/6 = %d"
      ccp12.pairs (((n12 * n12 * n12) - n12) / 6);
  let ratio = float_of_int dp12_pairs /. float_of_int (max ccp12.pairs 1) in
  Fmt.pr "  chain-12 enumeration work: subset DP %d splits, dpccp %d pairs (%.1fx)@."
    dp12_pairs ccp12.pairs ratio;
  if ratio < 10. then
    Fmt.failwith
      "joins: chain-12 enumeration-work ratio %.1fx below the 10x gate" ratio;

  (* --- gate: 50-source greedy latency, plans verify clean ----------------
     Sparse shapes gate at 100 ms. The clique's 1225-predicate query makes
     each pair ranking an estimation over wide conjunctions — a cost-model
     scaling any enumerator pays — so it gates at 500 ms. *)
  List.iter
    (fun (shape_name, _) ->
      let ms = try Hashtbl.find greedy50 shape_name with Not_found -> nan in
      let budget = if shape_name = "clique" then 500. else 100. in
      Fmt.pr "  %s-50 greedy optimize: %.2f ms (gate %.0f ms)@." shape_name ms
        budget;
      if not (ms <= budget) then
        Fmt.failwith "joins: %s-50 greedy took %.1f ms (gate: %.0f ms)"
          shape_name ms budget)
    (shapes 50);
  let med50 = fed ~n:50 ~rows in
  List.iter
    (fun (shape_name, shape) ->
      let sql = Demo.synthetic_sql ~shape ~n:50 () in
      let plan, _cost = Mediator.plan_query med50 sql in
      let errs =
        Disco_analysis.Finding.errors (Mediator.verify_plan med50 plan)
      in
      if errs <> [] then
        Fmt.failwith "joins: %s-50 plan has %d verification error(s)"
          shape_name (List.length errs))
    (shapes 50);
  Fmt.pr "  50-source plans verify clean (all shapes)@.";

  (* --- chain-50 end to end ----------------------------------------------- *)
  let e2e_med = fed ~n:50 ~rows:(if smoke then 20 else 60) in
  let answer, e2e_ms =
    time (fun () ->
        Mediator.run_query e2e_med (Demo.synthetic_sql ~shape:Demo.Chain ~n:50 ()))
  in
  Fmt.pr "  chain-50 end to end: %d rows in %.1f ms (%d replans)@."
    (List.length answer.Mediator.rows) e2e_ms answer.Mediator.replans;

  let os = Mediator.optimizer_stats e2e_med in
  Util.bench_json ?json_path ~bench:"joins"
    [ Fmt.str {|"rows_per_relation":%d|} rows;
      Fmt.str {|"identity_checks":%d|} !identical;
      Fmt.str {|"chain12_dp_pairs":%d|} dp12_pairs;
      Fmt.str {|"chain12_dpccp_pairs":%d|} ccp12.pairs;
      Fmt.str {|"chain12_pair_ratio":%.2f|} ratio;
      Fmt.str {|"greedy50_chain_ms":%.3f|}
        (try Hashtbl.find greedy50 "chain" with Not_found -> nan);
      Fmt.str {|"greedy50_star_ms":%.3f|}
        (try Hashtbl.find greedy50 "star" with Not_found -> nan);
      Fmt.str {|"greedy50_clique_ms":%.3f|}
        (try Hashtbl.find greedy50 "clique" with Not_found -> nan);
      Fmt.str {|"greedy50_random_ms":%.3f|}
        (try Hashtbl.find greedy50 "random" with Not_found -> nan);
      Fmt.str {|"chain50_e2e_ms":%.1f|} e2e_ms;
      Fmt.str {|"chain50_e2e_rows":%d|} (List.length answer.Mediator.rows);
      Fmt.str {|"e2e_csg_cmp_pairs":%d|} os.Optimizer.csg_cmp_pairs;
      Fmt.str {|"e2e_dp_entries":%d|} os.Optimizer.dp_entries ]
