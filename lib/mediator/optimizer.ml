(* The mediator query optimizer (paper §2.2): enumerates access plans —
   join orders (bushy, via dynamic programming over connected subsets) and
   operator placement (wrapper-side subtrees under [submit] vs mediator-side
   composition) — and selects the plan with the lowest estimated TotalTime
   under the blended cost model.

   [enumerate] exhaustively generates complete plans (used by the validation
   benches, in particular the branch-and-bound ablation of §4.3.2);
   [optimize] is the DP used during normal query processing. It has three
   engines behind one interface (see DESIGN.md §15):

   - [Dp]: the original subset-size DP — every alias subset of every size,
     every 2^(k-1) split of each subset. Exponential in federation width.
   - [Dpccp]: connected-subgraph / connected-complement enumeration over the
     join graph (Moerkotte & Neumann's DPccp). It generates exactly the
     (left, right) pairs whose sides are both connected and joined by at
     least one predicate — the only splits the subset DP ever costs — so the
     chosen plan, its cost, the DP entries and [plans_considered] are
     bit-identical to [Dp]; only the enumeration work collapses.
   - [Greedy]: GOO-style cheapest-connected-pair merging followed by bounded
     iterative improvement (subtree re-optimization with DPccp on windows of
     at most the leaf threshold). Polynomial; used above the threshold where
     exact enumeration is hopeless.

   [Auto] (the default) runs [Dpccp] up to [default_enum_threshold]
   relations and [Greedy] beyond it. *)

open Disco_common
open Disco_algebra
open Disco_core

(* One base relation of the query, with the selection pushed onto it and the
   attributes the rest of the query needs from it. The capability flags come
   from the wrapper's registration (paper §2.1): when a source cannot execute
   an operator, the mediator compensates on its side. *)
type base = {
  ref_ : Plan.collection_ref;
  pred : Pred.t;                  (* local selection; True if none *)
  project : string list option;   (* None: keep all attributes *)
  can_select : bool;
  can_project : bool;
}

type spec = {
  bases : base list;
  (* join predicates, each connecting two aliases *)
  joins : (string * string * Pred.t) list;
  (* whether a source can execute joins (capability, paper §2.1) *)
  can_join : string -> bool;
}

module Aliases = Set.Make (String)

(* Plan for one base relation, as executed inside its wrapper — only the
   operators the wrapper is capable of. *)
let base_plan (b : base) : Plan.t =
  let scan = Plan.Scan b.ref_ in
  let selected =
    if b.can_select && not (Pred.equal b.pred Pred.True) then
      Plan.Select (scan, b.pred)
    else scan
  in
  match b.project with
  | Some attrs when b.can_project -> Plan.Project (selected, attrs)
  | _ -> selected

(* The part of the base selection the wrapper cannot execute: applied by the
   mediator, above the submit. *)
let base_residual (b : base) : Pred.t = if b.can_select then Pred.True else b.pred

(* A single base relation as a complete mediator-side plan: submit the
   wrapper-capable part, apply the residual above. *)
let submit_base (b : base) : Plan.t =
  let p = Plan.Submit (b.ref_.Plan.source, base_plan b) in
  let residual = base_residual b in
  if Pred.equal residual Pred.True then p else Plan.Select (p, residual)

(* Per-alias index of the join predicates touching each alias, built once
   per enumeration/optimization. [connecting] visits only the joins adjacent
   to the smaller side of a split instead of scanning the full [spec.joins]
   list for every split of every subset. Entries carry their position in
   [spec.joins] so the connecting conjunction keeps declaration order,
   exactly as the direct scan produced it. *)
type adjacency = (string, (int * string * string * Pred.t) list) Hashtbl.t

let adjacency_of (spec : spec) : adjacency =
  let adj : adjacency = Hashtbl.create 16 in
  let add alias e =
    Hashtbl.replace adj alias
      (e :: Option.value ~default:[] (Hashtbl.find_opt adj alias))
  in
  List.iteri
    (fun i (a, b, p) ->
      let e = (i, a, b, p) in
      add a e;
      add b e)
    spec.joins;
  adj

(* Join predicates crossing between the disjoint alias sets [s1] and [s2],
   in [spec.joins] order. Each crossing join is adjacent to exactly one
   alias of the side we iterate (its endpoints lie in different sets), so no
   deduplication is needed. *)
let connecting (adj : adjacency) s1 s2 =
  let smaller, other =
    if Aliases.cardinal s1 <= Aliases.cardinal s2 then (s1, s2) else (s2, s1)
  in
  let hits = ref [] in
  Aliases.iter
    (fun alias ->
      List.iter
        (fun (i, a, b, p) ->
          let o = if String.equal a alias then b else a in
          if Aliases.mem o other then hits := (i, p) :: !hits)
        (Option.value ~default:[] (Hashtbl.find_opt adj alias)))
    smaller;
  List.map snd
    (List.sort (fun (i, _) (j, _) -> Int.compare i j) !hits)

(* Connected components of the join graph restricted to [aliases], in
   first-appearance order (each component BFS-discovered from its first
   alias). Used for the up-front disconnected-graph diagnostics. *)
let join_components (adj : adjacency) (aliases : string list) : string list list =
  let member = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace member a ()) aliases;
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun a ->
      if Hashtbl.mem seen a then None
      else begin
        let comp = ref [] in
        let q = Queue.create () in
        Queue.push a q;
        Hashtbl.replace seen a ();
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          comp := x :: !comp;
          List.iter
            (fun (_, u, v, _) ->
              let o = if String.equal u x then v else u in
              if Hashtbl.mem member o && not (Hashtbl.mem seen o) then begin
                Hashtbl.replace seen o ();
                Queue.push o q
              end)
            (Option.value ~default:[] (Hashtbl.find_opt adj x))
        done;
        Some (List.rev !comp)
      end)
    aliases

(* A candidate subplan during enumeration: either still inside one wrapper
   (unwrapped), or already a mediator-side plan whose leaves are submits. *)
type site = At_source of string | At_mediator

type candidate = {
  plan : Plan.t;
  site : site;
  aliases : Aliases.t;
  (* selection a capability-limited wrapper could not execute; applied by the
     mediator right above the submit *)
  residual : Pred.t;
}

let wrap (c : candidate) : candidate =
  match c.site with
  | At_mediator -> c
  | At_source s ->
    let p = Plan.Submit (s, c.plan) in
    let p =
      if Pred.equal c.residual Pred.True then p else Plan.Select (p, c.residual)
    in
    { plan = p; site = At_mediator; aliases = c.aliases; residual = Pred.True }

(* Combine two disjoint candidates with a join, in both orientations (join
   costs are asymmetric: the inner input may be probed via an index).
   Wrapper-side joins are only possible when both sides live in the same
   source. *)
let combine spec (adj : adjacency) (l : candidate) (r : candidate) :
    candidate list =
  let preds = connecting adj l.aliases r.aliases in
  if preds = [] then []
  else
    let pred = Pred.conj preds in
    let aliases = Aliases.union l.aliases r.aliases in
    let mediator_side =
      let l' = wrap l and r' = wrap r in
      [ { plan = Plan.Join (l'.plan, r'.plan, pred);
          site = At_mediator;
          aliases;
          residual = Pred.True };
        { plan = Plan.Join (r'.plan, l'.plan, pred);
          site = At_mediator;
          aliases;
          residual = Pred.True } ]
    in
    match l.site, r.site with
    | At_source s1, At_source s2 when String.equal s1 s2 && spec.can_join s1 ->
      let residual = Pred.conj (Pred.conjuncts l.residual @ Pred.conjuncts r.residual) in
      { plan = Plan.Join (l.plan, r.plan, pred); site = At_source s1; aliases; residual }
      :: { plan = Plan.Join (r.plan, l.plan, pred); site = At_source s1; aliases; residual }
      :: mediator_side
    | _ -> mediator_side

(* --- Width limits ------------------------------------------------------------ *)

(* [splits] materializes 2^(n-1) masks: [1 lsl n] is undefined at the word
   size and the list is hopeless long before that. The subset DP therefore
   supports at most [max_split_width] relations; wider federations must use
   the dpccp / greedy engines. *)
let max_split_width = 20

(* [enumerate] is super-exponential (every bushy shape of every split). *)
let max_enumerate_width = 10

(* DPccp represents alias subsets as bits of one OCaml int (63-bit). *)
let max_graph_width = 61

(* All non-empty proper splits of a list (first element pinned to the left
   side, avoiding mirror duplicates). *)
let splits = function
  | [] | [ _ ] -> []
  | first :: rest ->
    let n = List.length rest in
    if n + 1 > max_split_width then
      raise
        (Err.Plan_error
           (Fmt.str
              "cannot split a %d-relation subset: the subset DP materializes \
               2^(n-1) splits and supports at most %d relations — use the \
               dpccp or greedy join enumerator"
              (n + 1) max_split_width));
    let all = ref [] in
    for mask = 0 to (1 lsl n) - 1 do
      let left = ref [ first ] and right = ref [] in
      List.iteri
        (fun i x -> if mask land (1 lsl i) <> 0 then left := x :: !left else right := x :: !right)
        rest;
      if !right <> [] then all := (List.rev !left, List.rev !right) :: !all
    done;
    !all

(* --- Exhaustive enumeration ------------------------------------------------- *)

(* All complete mediator-side plans joining every base (small N only). *)
let enumerate (spec : spec) : Plan.t list =
  if List.length spec.bases > max_enumerate_width then
    raise
      (Err.Plan_error
         (Fmt.str
            "cannot enumerate %d relations exhaustively: plan count is \
             super-exponential; the limit is %d relations — use optimize"
            (List.length spec.bases) max_enumerate_width));
  let adj = adjacency_of spec in
  let rec gen (bs : base list) : candidate list =
    match bs with
    | [] -> []
    | [ b ] ->
      [ { plan = base_plan b;
          site = At_source b.ref_.Plan.source;
          aliases = Aliases.singleton b.ref_.Plan.binding;
          residual = base_residual b } ]
    | _ ->
      List.concat_map
        (fun (lbs, rbs) ->
          List.concat_map
            (fun l -> List.concat_map (fun r -> combine spec adj l r) (gen rbs))
            (gen lbs))
        (splits bs)
  in
  match spec.bases with
  | [] -> []
  | [ b ] -> [ submit_base b ]
  | bs ->
    let complete = gen bs in
    List.filter_map
      (fun c ->
        if Aliases.cardinal c.aliases = List.length bs then Some (wrap c).plan
        else None)
      complete

(* --- Cost-based selection ---------------------------------------------------- *)

type stats = {
  mutable plans_considered : int;
  mutable plans_aborted : int;
  mutable formula_evals : int;
  mutable csg_cmp_pairs : int;
  mutable dp_entries : int;
}

let new_stats () =
  { plans_considered = 0;
    plans_aborted = 0;
    formula_evals = 0;
    csg_cmp_pairs = 0;
    dp_entries = 0 }

(* Counters are never shared across domains: each parallel slot fills its
   own [stats] (a [cost_of] call mutates exactly the record it was handed)
   and the partials are merged once, at the fork/join barrier, in slot
   order. One merge per partial — never double- or under-counted; the
   regression test in test/test_parallel.ml pins exact values. *)
let merge_stats ~into (s : stats) =
  into.plans_considered <- into.plans_considered + s.plans_considered;
  into.plans_aborted <- into.plans_aborted + s.plans_aborted;
  into.formula_evals <- into.formula_evals + s.formula_evals;
  into.csg_cmp_pairs <- into.csg_cmp_pairs + s.csg_cmp_pairs;
  into.dp_entries <- into.dp_entries + s.dp_entries

(* What the optimizer minimizes: the time to the complete answer, or the
   time to the first object (the paper's TimeFirst — interactive clients).
   Pipelined strategies (index joins) tend to win the latter; blocking ones
   (mediator hash joins, sorts) the former. *)
type objective = Total_time | First_tuple

let objective_var = function
  | Total_time -> Disco_costlang.Ast.Total_time
  | First_tuple -> Disco_costlang.Ast.Time_first

(* Estimate a complete plan; [bound] enables the early-abort heuristic of
   §4.3.2 (TotalTime objective only — TimeFirst is not monotone along the
   tree). Returns [None] when aborted.

   [memo] shares subtree annotations with earlier estimates of the same
   optimizer run; [cache] consults (and feeds) the cross-query plan cache. A
   cache hit can return a cost above [bound] where the uncached path would
   have aborted — callers compare against the best so far either way, so the
   selected plan is identical; only the abort counter differs. Aborted
   estimates are never cached. *)
let cost_of ?bound ?(objective = Total_time) ?memo ?cache ?shard registry
    (stats : stats) (plan : Plan.t) : float option =
  stats.plans_considered <- stats.plans_considered + 1;
  let var = objective_var objective in
  let cached =
    match cache with
    | Some c -> Plancache.find c registry ~objective:var plan
    | None -> None
  in
  match cached with
  | Some cost -> Some cost
  | None ->
    let evals = ref 0 in
    let bound = match objective with Total_time -> bound | First_tuple -> None in
    let result =
      try
        let ann =
          Estimator.estimate ?abort_above:bound ~evals ?memo ?shard
            ~require_vars:[ var ] registry plan
        in
        Some (Option.get (Estimator.var ann var))
      with Estimator.Aborted ->
        stats.plans_aborted <- stats.plans_aborted + 1;
        None
    in
    stats.formula_evals <- stats.formula_evals + !evals;
    (match result, cache with
     | Some cost, Some c -> Plancache.add c registry ~objective:var plan cost
     | _ -> ());
    result

module Pool = Disco_parallel.Pool

(* Pick the cheapest plan from an explicit list, optionally with
   branch-and-bound pruning. With [domains > 1] the list is split into
   contiguous chunks costed concurrently — each slot with its own memo,
   stats and prune bound, shard-isolated in the VM — and the chunk winners
   are reduced in chunk order under the same [c <= cost] keep-the-earlier
   tie-break the sequential fold applies, so the chosen plan and cost are
   bit-identical at any domain count. (With pruning on, [plans_aborted] may
   differ across domain counts: chunk-local bounds abort differently. The
   winner cannot change — an aborted plan's cost exceeds its chunk bound,
   which some already-kept plan achieved.) *)
let choose ?(prune = true) ?(objective = Total_time) ?memo ?cache
    ?(domains = 1) registry ?stats (plans : Plan.t list) :
    (Plan.t * float) option =
  let caller_stats = stats in
  let best_of ?memo ~shard stats plans =
    List.fold_left
      (fun best plan ->
        let bound = if prune then Option.map snd best else None in
        match
          cost_of ?bound ~objective ?memo ?cache ~shard registry stats plan
        with
        | None -> best
        | Some cost ->
          (match best with
           | Some (_, c) when c <= cost -> best
           | _ -> Some (plan, cost)))
      None plans
  in
  let pool = Pool.create domains in
  let finish stats result =
    (match caller_stats with
     | Some into when into != stats -> merge_stats ~into stats
     | _ -> ());
    result
  in
  if Pool.degree pool <= 1 then
    let stats = match caller_stats with Some s -> s | None -> new_stats () in
    best_of ?memo ~shard:0 stats plans
  else begin
    let chunks = Pool.chunk (Pool.degree pool) plans in
    let nchunks = Array.length chunks in
    let memos =
      Array.init nchunks (fun i ->
          if i = 0 then memo
          else Option.map (fun _ -> Estimator.new_memo ()) memo)
    in
    let slot_stats = Array.init nchunks (fun _ -> new_stats ()) in
    let results =
      Pool.run pool
        (fun slot ->
          best_of ?memo:memos.(slot) ~shard:slot slot_stats.(slot)
            chunks.(slot))
        nchunks
    in
    for s = 1 to nchunks - 1 do
      merge_stats ~into:slot_stats.(0) slot_stats.(s)
    done;
    finish slot_stats.(0)
      (Array.fold_left
         (fun best r ->
           match best, r with
           | Some (_, c), Some (_, c') when c <= c' -> best
           | _, Some pc -> Some pc
           | _, None -> best)
         None results)
  end

(* --- Enumeration modes -------------------------------------------------------- *)

type enum_mode = Dp | Dpccp | Greedy | Auto

let default_enum_threshold = 12

let enum_mode_to_string = function
  | Dp -> "dp"
  | Dpccp -> "dpccp"
  | Greedy -> "greedy"
  | Auto -> "auto"

(* The improvement phase of the greedy engine stops after this many csg–cmp
   pairs: a deterministic work bound (never wall-clock) so dense unit graphs
   — where a single window DP would cost more than the plan is worth — fall
   back to the plain greedy result instead of blowing the latency budget. *)
let improve_pair_budget = 2_000

(* --- Bit-set helpers (DPccp masks over unit indices) -------------------------- *)

let lowest_bit m = m land (-m)

let popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + 1) (m land (m - 1)) in
  go 0 m

let bit_index b =
  let rec go i v = if v = 1 then i else go (i + 1) (v lsr 1) in
  go 0 b

(* Masks compared as their ascending index sequences, lexicographically —
   the order [subsets_of_size] emits alias combinations in. Comparing raw
   mask values is not equivalent: {0,3} = 9 would sort after {1,2} = 6. *)
let rec lex_mask_compare a b =
  if a = b then 0
  else
    let la = lowest_bit a and lb = lowest_bit b in
    if la = lb then lex_mask_compare (a lxor la) (b lxor lb)
    else Int.compare la lb

(* The greedy engine's merge tree, decomposed into DPccp re-optimization
   windows by the improvement phase. *)
type gtree = Gleaf of int | Gnode of gtree * gtree

(* --- Dynamic programming ------------------------------------------------------ *)

module Key = struct
  type t = string list (* sorted aliases *)

  let of_aliases s = List.sort String.compare (Aliases.elements s)
end

(* Diagnose an impossible query precisely instead of a generic "no complete
   plan found": name the unavailable single-sourced relations, and the
   connected components of the join graph when it is disconnected. *)
let no_plan_error (spec : spec) ~available : 'a =
  let adj = adjacency_of spec in
  let unavailable =
    List.filter (fun b -> not (available b.ref_.Plan.source)) spec.bases
  in
  let avail_aliases =
    List.filter_map
      (fun b ->
        if available b.ref_.Plan.source then Some b.ref_.Plan.binding else None)
      spec.bases
  in
  let comps = join_components adj avail_aliases in
  let parts = [] in
  let parts =
    if unavailable = [] then parts
    else
      Fmt.str "relation%s %s unavailable and not replicated"
        (if List.length unavailable > 1 then "s" else "")
        (String.concat ", "
           (List.map
              (fun b ->
                Fmt.str "%s (alias %s, source %s)" b.ref_.Plan.collection
                  b.ref_.Plan.binding b.ref_.Plan.source)
              unavailable))
      :: parts
  in
  let parts =
    if List.length comps <= 1 then parts
    else
      Fmt.str
        "join graph splits into %d disconnected components %s — add join \
         predicates linking them (cross joins are not enumerated)"
        (List.length comps)
        (String.concat " | "
           (List.map (fun c -> "{" ^ String.concat ", " c ^ "}") comps))
      :: parts
  in
  let msg =
    match List.rev parts with
    | [] -> "no complete plan found (join enumeration produced no candidate)"
    | ps -> "no complete plan found: " ^ String.concat "; " ps
  in
  raise (Err.Plan_error msg)

(* DP over alias subsets: for each subset keep the best candidate per site
   (one per source for unwrapped plans, one mediator-side), stored with its
   cost so each candidate is costed exactly once per run — the incumbent's
   stored cost is compared against, never recomputed. [memo] (default on)
   shares subtree annotations across the run — candidates overlap massively,
   so without sharing the estimator re-runs formulas on identical subtrees
   thousands of times. [cache] is the cross-query cache; both only change
   what is recomputed, never the costs, so the chosen plan is identical with
   and without them (see test/test_plancache.ml). *)
(* Parallel structure: within one subset size every subset is independent —
   its splits read only strictly-smaller keys, and all its candidates land
   on its own key — so each size is a fork/join round: subsets are chunked
   contiguously across domains, every slot accumulates its subsets' entry
   lists locally (shard-isolated cost evaluation: own memo, own stats, own
   VM slot-cache shard), and the main domain installs the lists into the
   shared table at the barrier, in enumeration order. Costs are
   value-deterministic whatever slot computes them, so every comparison —
   the per-site [old_cost <= c_cost] keep-the-incumbent rule and the final
   [b <= cst] fold — resolves identically at any domain count, and the
   chosen plan, its cost, the DP table and [plans_considered] are
   bit-identical to the sequential run. Only [formula_evals] is
   configuration-dependent (per-slot memos change what is recomputed, never
   any value), exactly as PR 1's cache caveat.

   The same argument makes [Dpccp] bit-identical to [Dp]: the subset DP only
   ever costs a split whose two sides both have table entries (i.e. are
   connected induced subgraphs — by induction only those get entries) and
   whose [connecting] predicates are non-empty; those are exactly the
   csg–cmp pairs DPccp generates. Within a subset the DPccp splits are
   replayed in the subset DP's order (descending right-to-left mask), so the
   [put_entry] sequence — and with it every incumbent comparison, every
   stored cost, and [plans_considered] — is identical. Only [csg_cmp_pairs]
   (enumeration work) differs: the subset DP examines every split of every
   subset, DPccp touches valid pairs only. *)
let optimize ?(objective = Total_time) ?(memo = true) ?cache
    ?(available = fun _ -> true) ?(domains = 1) ?stats ?(enum = Auto) registry
    (spec : spec)
    : Plan.t * float =
  if spec.bases = [] then raise (Err.Plan_error "query has no relations");
  let caller_stats = stats in
  let pool = Pool.create domains in
  let p = Pool.degree pool in
  let memos =
    Array.init p (fun _ -> if memo then Some (Estimator.new_memo ()) else None)
  in
  let slot_stats = Array.init p (fun _ -> new_stats ()) in
  let adj = adjacency_of spec in
  (* fail early, with names: a base whose only source is unavailable (open
     circuit) or a join graph in several pieces can never produce a complete
     plan — diagnose both up front instead of discovering an empty table
     after the whole enumeration ran *)
  if List.exists (fun b -> not (available b.ref_.Plan.source)) spec.bases then
    no_plan_error spec ~available;
  let aliases = List.map (fun b -> b.ref_.Plan.binding) spec.bases in
  (match join_components adj aliases with
   | _ :: _ :: _ -> no_plan_error spec ~available
   | _ -> ());
  let cost ~slot plan =
    match
      cost_of ~objective ?memo:memos.(slot) ?cache ~shard:slot registry
        slot_stats.(slot) plan
    with
    | Some c -> c
    | None -> infinity
  in
  (* keep at most one candidate per site; [existing] is threaded, not read
     back from the table, so slots can accumulate without touching it *)
  let put_entry ~slot existing (c : candidate) =
    let same_site ((x : candidate), _) =
      match x.site, c.site with
      | At_mediator, At_mediator -> true
      | At_source a, At_source b -> String.equal a b
      | _ -> false
    in
    match List.find_opt same_site existing with
    | Some ((_, old_cost) as entry) ->
      let c_cost = cost ~slot c.plan in
      if old_cost <= c_cost then existing
      else (c, c_cost) :: List.filter (fun e -> e != entry) existing
    | None -> (c, cost ~slot c.plan) :: existing
  in
  (* the singleton entries of one base: the wrapper-side candidate and its
     wrapped mediator-side form, exactly as the subset DP seeds them *)
  let seed_base ~slot (b : base) =
    let c =
      { plan = base_plan b;
        site = At_source b.ref_.Plan.source;
        aliases = Aliases.singleton b.ref_.Plan.binding;
        residual = base_residual b }
    in
    let entries = put_entry ~slot (put_entry ~slot [] c) (wrap c) in
    slot_stats.(slot).dp_entries <-
      slot_stats.(slot).dp_entries + List.length entries;
    entries
  in
  (* fold the full-query entries down to the cheapest complete plan *)
  let best_of_entries cands =
    match
      List.fold_left
        (fun best (c, stored) ->
          let w = wrap c in
          (* wrapping is the identity on mediator-side candidates, whose
             stored cost is still exact; wrapper-side candidates change
             plan (submit + residual) and are costed once here *)
          let cst = if w == c then stored else cost ~slot:0 w.plan in
          match best with
          | Some (_, b) when b <= cst -> best
          | _ -> Some (w.plan, cst))
        None cands
    with
    | Some result -> result
    | None -> no_plan_error spec ~available
  in
  let n = List.length spec.bases in

  (* --- engine 1: the original subset-size DP --------------------------------- *)
  let run_dp () =
    if n > max_split_width then
      raise
        (Err.Plan_error
           (Fmt.str
              "the dp join enumerator supports at most %d relations (this \
               query has %d) — use dpccp, greedy or auto"
              max_split_width n));
    let table : (Key.t, (candidate * float) list) Hashtbl.t =
      Hashtbl.create 64
    in
    List.iter
      (fun b ->
        Hashtbl.replace table
          (Key.of_aliases (Aliases.singleton b.ref_.Plan.binding))
          (seed_base ~slot:0 b))
      spec.bases;
    (* grow subsets by size *)
    let alias_arr = Array.of_list aliases in
    let subsets_of_size k =
      let out = ref [] in
      let rec go i chosen count =
        if count = k then out := List.rev chosen :: !out
        else if i < n then begin
          go (i + 1) (alias_arr.(i) :: chosen) (count + 1);
          if n - i - 1 >= k - count then go (i + 1) chosen count
        end
      in
      go 0 [] 0;
      !out
    in
    (* one subset's entry list, built against the (read-only) smaller sizes *)
    let process_subset ~slot subset =
      let entries = ref [] in
      List.iter
        (fun (left, right) ->
          let st = slot_stats.(slot) in
          st.csg_cmp_pairs <- st.csg_cmp_pairs + 1;
          let lkey = Key.of_aliases (Aliases.of_list left)
          and rkey = Key.of_aliases (Aliases.of_list right) in
          match Hashtbl.find_opt table lkey, Hashtbl.find_opt table rkey with
          | Some ls, Some rs ->
            List.iter
              (fun (l, _) ->
                List.iter
                  (fun (r, _) ->
                    List.iter
                      (fun c -> entries := put_entry ~slot !entries c)
                      (combine spec adj l r))
                  rs)
              ls
          | _ -> ())
        (splits subset);
      (Key.of_aliases (Aliases.of_list subset), !entries)
    in
    for size = 2 to n do
      let chunks = Pool.chunk p (subsets_of_size size) in
      let results =
        Pool.run pool
          (fun slot -> List.map (process_subset ~slot) chunks.(slot))
          (Array.length chunks)
      in
      (* install at the barrier, in enumeration order; a subset with no
         connecting joins stays absent, as the sequential path leaves it *)
      Array.iter
        (fun keyed ->
          List.iter
            (fun (key, entries) ->
              if entries <> [] then begin
                Hashtbl.replace table key entries;
                slot_stats.(0).dp_entries <-
                  slot_stats.(0).dp_entries + List.length entries
              end)
            keyed)
        results
    done;
    match Hashtbl.find_opt table (Key.of_aliases (Aliases.of_list aliases)) with
    | None | Some [] -> no_plan_error spec ~available
    | Some cands -> best_of_entries cands
  in

  (* --- DPccp over an array of units ------------------------------------------ *)
  (* The csg–cmp engine, generalized to "units": disjoint alias groups with
     their candidate entries. The exact path uses the query's bases as
     units (with the fork/join size rounds of the subset DP); the greedy
     improver re-enters with composite units, sequentially. Returns the
     entry list of the union of all units, or [None] when [pair_limit]
     would be exceeded (checked before any costing). *)
  let dpccp_units ?(parallel = false) ?pair_limit
      (units : (Aliases.t * (candidate * float) list) array) :
      (candidate * float) list option =
    let m = Array.length units in
    if m > max_graph_width then
      raise
        (Err.Plan_error
           (Fmt.str
              "the dpccp join enumerator represents subsets as bits of one \
               int and supports at most %d relations (this query has %d) — \
               use greedy or auto"
              max_graph_width m));
    if m = 0 then Some []
    else if m = 1 then Some (snd units.(0))
    else begin
      (* unit adjacency: a crossing join predicate makes two units adjacent *)
      let nbr = Array.make m 0 in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          if connecting adj (fst units.(i)) (fst units.(j)) <> [] then begin
            nbr.(i) <- nbr.(i) lor (1 lsl j);
            nbr.(j) <- nbr.(j) lor (1 lsl i)
          end
        done
      done;
      let nbrs_of mask =
        let rec go acc m =
          if m = 0 then acc
          else
            let b = lowest_bit m in
            go (acc lor nbr.(bit_index b)) (m lxor b)
        in
        go 0 mask land lnot mask
      in
      let connected mask =
        mask <> 0
        &&
        let rec grow s =
          let s' = s lor (nbrs_of s land mask) in
          if s' = s then s else grow s'
        in
        grow (lowest_bit mask) = mask
      in
      let iter_subsets mask f =
        let s = ref mask in
        while !s <> 0 do
          f !s;
          s := (!s - 1) land mask
        done
      in
      (* EnumerateCsg: every connected induced subgraph, each exactly once *)
      let csgs = ref [] in
      let rec expand s x =
        let n_s = nbrs_of s land lnot x in
        if n_s <> 0 then begin
          iter_subsets n_s (fun s' -> csgs := (s lor s') :: !csgs);
          iter_subsets n_s (fun s' -> expand (s lor s') (x lor n_s))
        end
      in
      for i = m - 1 downto 0 do
        let s = 1 lsl i in
        csgs := s :: !csgs;
        expand s ((1 lsl (i + 1)) - 1)
      done;
      (* the valid splits of a connected subset: connected left sides
         containing its lowest unit (the element the subset DP pins left),
         with connected complements — emitted in the subset DP's split
         order (descending mask; compaction onto the rest-list is monotone,
         so raw mask order coincides) *)
      let splits_of s_mask =
        let e0 = lowest_bit s_mask in
        let acc = ref [] in
        let consider l =
          if l <> s_mask && connected (s_mask lxor l) then acc := l :: !acc
        in
        consider e0;
        let rec expand_l s x =
          let n_s = nbrs_of s land s_mask land lnot x in
          if n_s <> 0 then begin
            iter_subsets n_s (fun s' -> consider (s lor s'));
            iter_subsets n_s (fun s' -> expand_l (s lor s') (x lor n_s))
          end
        in
        expand_l e0 e0;
        List.sort (fun a b -> Int.compare b a) !acc
      in
      (* split enumeration is lazy against [pair_limit]: a denial costs at
         most [limit] split enumerations, not the graph's full csg–cmp
         count (3^m on a clique window) *)
      let exception Over_limit in
      let with_splits_opt =
        let total = ref 0 in
        let splits_counted s =
          let l = splits_of s in
          (match pair_limit with
           | Some limit ->
             total := !total + List.length l;
             if !total > limit then raise Over_limit
           | None -> ());
          l
        in
        match
          List.filter_map
            (fun s ->
              if popcount s >= 2 then Some (s, splits_counted s) else None)
            !csgs
        with
        | with_splits -> Some with_splits
        | exception Over_limit -> None
      in
      match with_splits_opt with
      | None -> None
      | Some with_splits ->
        let by_size = Array.make (m + 1) [] in
        List.iter
          (fun ((s, _) as g) ->
            let k = popcount s in
            by_size.(k) <- g :: by_size.(k))
          with_splits;
        Array.iteri
          (fun k g ->
            by_size.(k) <-
              List.sort (fun (a, _) (b, _) -> lex_mask_compare a b) g)
          by_size;
        let table : (int, (candidate * float) list) Hashtbl.t =
          Hashtbl.create 64
        in
        Array.iteri
          (fun i (_, entries) -> Hashtbl.replace table (1 lsl i) entries)
          units;
        let process ~slot (s_mask, lmasks) =
          let entries = ref [] in
          List.iter
            (fun lmask ->
              let st = slot_stats.(slot) in
              st.csg_cmp_pairs <- st.csg_cmp_pairs + 1;
              match
                Hashtbl.find_opt table lmask,
                Hashtbl.find_opt table (s_mask lxor lmask)
              with
              | Some ls, Some rs ->
                List.iter
                  (fun (l, _) ->
                    List.iter
                      (fun (r, _) ->
                        List.iter
                          (fun c -> entries := put_entry ~slot !entries c)
                          (combine spec adj l r))
                      rs)
                  ls
              | _ -> ())
            lmasks;
          (s_mask, !entries)
        in
        let install (mask, entries) =
          if entries <> [] then begin
            Hashtbl.replace table mask entries;
            slot_stats.(0).dp_entries <-
              slot_stats.(0).dp_entries + List.length entries
          end
        in
        for size = 2 to m do
          let group = by_size.(size) in
          if group <> [] then
            if parallel && p > 1 then begin
              let chunks = Pool.chunk p group in
              let results =
                Pool.run pool
                  (fun slot -> List.map (process ~slot) chunks.(slot))
                  (Array.length chunks)
              in
              Array.iter (List.iter install) results
            end
            else List.iter (fun g -> install (process ~slot:0 g)) group
        done;
        Some
          (Option.value ~default:[]
             (Hashtbl.find_opt table ((1 lsl m) - 1)))
    end
  in

  (* --- engine 2: DPccp over the bases ---------------------------------------- *)
  let run_dpccp () =
    let units =
      Array.of_list
        (List.map
           (fun b ->
             (Aliases.singleton b.ref_.Plan.binding, seed_base ~slot:0 b))
           spec.bases)
    in
    match dpccp_units ~parallel:true units with
    | Some (_ :: _ as cands) -> best_of_entries cands
    | Some [] | None -> no_plan_error spec ~available
  in

  (* --- engine 3: greedy (GOO) + bounded DPccp-window improvement ------------- *)
  let run_greedy () =
    let slot = 0 in
    let base_arr = Array.of_list spec.bases in
    let seeds = Array.map (fun b -> seed_base ~slot b) base_arr in
    (* mutable unit state; index i starts as base i and absorbs its merge
       partners *)
    let al_u = Array.map (fun b -> Aliases.singleton b.ref_.Plan.binding) base_arr in
    let entries_u = Array.copy seeds in
    let tree_u = Array.init n (fun i -> Gleaf i) in
    let active = Array.make n true in
    let uadj = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if connecting adj al_u.(i) al_u.(j) <> [] then begin
          uadj.(i).(j) <- true;
          uadj.(j).(i) <- true
        end
      done
    done;
    let merge_entries l r =
      let entries = ref [] in
      List.iter
        (fun (lc, _) ->
          List.iter
            (fun (rc, _) ->
              List.iter
                (fun c -> entries := put_entry ~slot !entries c)
                (combine spec adj lc rc))
            r)
        l;
      !entries
    in
    (* a pair's rank: the cost of joining the two sides' cheapest entries
       (strict [<] keeps the earlier entry on ties, so the pick is
       deterministic). Ranking only the cheapest-by-cheapest combination —
       both sides are already costed and memoized, so a rank costs a couple
       of top-node estimations — keeps the GOO loop quadratic-with-small-
       constant even on cliques; the full entry product is materialized
       only for the winning pair of each round. *)
    let cheapest entries =
      match entries with
      | [] -> None
      | e0 :: tl ->
        Some
          (List.fold_left
             (fun ((_, r) as best) ((_, r') as e) -> if r' < r then e else best)
             e0 tl)
    in
    let rank_cache : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    let eval_pair i j =
      match Hashtbl.find_opt rank_cache (i, j) with
      | Some r -> r
      | None ->
        slot_stats.(slot).csg_cmp_pairs <-
          slot_stats.(slot).csg_cmp_pairs + 1;
        let rank =
          match cheapest entries_u.(i), cheapest entries_u.(j) with
          | Some (lc, _), Some (rc, _) ->
            List.fold_left
              (fun m c -> Float.min m (cost ~slot c.plan))
              infinity
              (combine spec adj lc rc)
          | _ -> infinity
        in
        Hashtbl.replace rank_cache (i, j) rank;
        rank
    in
    (* GOO: repeatedly merge the cheapest connected pair; ties keep the
       first pair in ascending (i, j) order, so the result is deterministic *)
    let remaining = ref n in
    while !remaining > 1 do
      let best = ref None in
      for i = 0 to n - 1 do
        if active.(i) then
          for j = i + 1 to n - 1 do
            if active.(j) && uadj.(i).(j) then begin
              let rank = eval_pair i j in
              match !best with
              | Some (_, _, br) when br <= rank -> ()
              | _ -> best := Some (i, j, rank)
            end
          done
      done;
      match !best with
      | None ->
        (* unreachable: the up-front component check guarantees the unit
           graph stays connected under merging *)
        no_plan_error spec ~available
      | Some (i, j, _) ->
        let entries = merge_entries entries_u.(i) entries_u.(j) in
        al_u.(i) <- Aliases.union al_u.(i) al_u.(j);
        entries_u.(i) <- entries;
        tree_u.(i) <- Gnode (tree_u.(i), tree_u.(j));
        active.(j) <- false;
        slot_stats.(slot).dp_entries <-
          slot_stats.(slot).dp_entries + List.length entries;
        for k = 0 to n - 1 do
          if k <> i && k <> j then begin
            uadj.(i).(k) <- uadj.(i).(k) || uadj.(j).(k);
            uadj.(k).(i) <- uadj.(i).(k);
            Hashtbl.remove rank_cache (min i k, max i k);
            Hashtbl.remove rank_cache (min j k, max j k)
          end;
          uadj.(j).(k) <- false;
          uadj.(k).(j) <- false
        done;
        decr remaining
    done;
    let root = ref 0 in
    for i = 0 to n - 1 do
      if active.(i) then root := i
    done;
    (* final selection over the wrapped full-query candidates, through
       [choose] so its branch-and-bound pruning applies *)
    let final_of entries =
      choose ~prune:true ~objective ?memo:memos.(slot) ?cache ~domains:1
        registry ~stats:slot_stats.(slot)
        (List.map (fun (c, _) -> (wrap c).plan) entries)
    in
    let goo =
      match final_of entries_u.(!root) with
      | Some pc -> pc
      | None -> no_plan_error spec ~available
    in
    (* bounded improvement: re-optimize windows of the merge tree exactly
       with DPccp, then re-join the windows (windowed DP over composite
       units when it fits the pair budget, the greedy tree shape when not);
       keep the result only when strictly cheaper *)
    let budget = ref improve_pair_budget in
    let run_window units =
      if !budget <= 0 then None
      else begin
        let before = slot_stats.(slot).csg_cmp_pairs in
        let r = dpccp_units ~pair_limit:!budget units in
        budget := !budget - (slot_stats.(slot).csg_cmp_pairs - before);
        r
      end
    in
    let wcap = default_enum_threshold in
    let rec tree_leaves = function
      | Gleaf i -> [ i ]
      | Gnode (a, b) -> tree_leaves a @ tree_leaves b
    in
    let rec decompose t =
      if List.length (tree_leaves t) <= wcap then [ t ]
      else
        match t with
        | Gleaf _ -> [ t ]
        | Gnode (a, b) -> decompose a @ decompose b
    in
    let windows = decompose tree_u.(!root) in
    (* [Some entries] when the window's exact DP ran and produced entries,
       [None] when the budget denied it (the greedy subtree stands) *)
    let reopt t =
      let ls = tree_leaves t in
      if List.length ls <= 1 then None
      else
        let units =
          Array.of_list
            (List.map
               (fun i ->
                 (Aliases.singleton base_arr.(i).ref_.Plan.binding, seeds.(i)))
               ls)
        in
        match run_window units with
        | Some (_ :: _ as entries) -> Some entries
        | Some [] | None -> None
    in
    let wimproved = List.map (fun t -> (t, reopt t)) windows in
    (* re-join the improved windows along the greedy tree shape. When the
       budget denied every window there is nothing to re-join — the GOO
       plan stands as-is, and no composite tree is ever re-costed. *)
    let improved_entries =
      let r =
        if List.for_all (fun (_, o) -> o = None) wimproved then None
        else begin
          let rec eval t =
            match List.assq_opt t wimproved with
            | Some (Some entries) -> entries
            | Some None | None -> (
              match t with
              | Gleaf i -> seeds.(i)
              | Gnode (a, b) -> merge_entries (eval a) (eval b))
          in
          Some (eval tree_u.(!root))
        end
      in
      r
    in
    match improved_entries with
    | Some (_ :: _ as entries) -> (
      match final_of entries with
      | Some (p, c) when c < snd goo -> (p, c)
      | _ -> goo)
    | _ -> goo
  in

  let finish result =
    for s = 1 to p - 1 do
      merge_stats ~into:slot_stats.(0) slot_stats.(s)
    done;
    (match caller_stats with
     | Some into -> merge_stats ~into slot_stats.(0)
     | None -> ());
    result
  in
  let run () =
    match enum with
    | Dp -> run_dp ()
    | Dpccp -> run_dpccp ()
    | Greedy -> run_greedy ()
    | Auto ->
      if n <= default_enum_threshold then run_dpccp ()
      else run_greedy ()
  in
  match run () with
  | result -> finish result
  | exception e ->
    ignore (finish ());
    raise e
