(* The mediator query optimizer (paper §2.2): enumerates access plans —
   join orders (bushy, via dynamic programming over connected subsets) and
   operator placement (wrapper-side subtrees under [submit] vs mediator-side
   composition) — and selects the plan with the lowest estimated TotalTime
   under the blended cost model.

   [enumerate] exhaustively generates complete plans (used by the validation
   benches, in particular the branch-and-bound ablation of §4.3.2, and as
   the oracle the exact engine is tested against); [optimize] is what normal
   query processing runs. It picks one of two engines by query width (see
   DESIGN.md §15):

   - [dpccp]: connected-subgraph / connected-complement enumeration over the
     join graph (Moerkotte & Neumann's DPccp). It costs exactly the
     (left, right) pairs whose sides are both connected and joined by at
     least one predicate, and returns the cost of the cheapest plan
     [enumerate] produces. Runs up to [default_enum_threshold] relations.
   - [greedy]: GOO-style cheapest-connected-pair merging followed by bounded
     iterative improvement (subtree re-optimization with DPccp on windows of
     at most the threshold). Polynomial; runs above the threshold, where
     exact enumeration is hopeless. *)

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

(* The part of the base selection the wrapper cannot execute: applied by the
   mediator, above the submit. *)
let base_residual (b : base) : Pred.t = if b.can_select then Pred.True else b.pred

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
   (unwrapped), or already a mediator-side plan whose leaves are submits.
   Its node ['n] is a bare plan in [enumerate] and the plan's annotation in
   the search, where each candidate is one new node over its inputs'. *)
type site = At_source of string | At_mediator

type 'n candidate = {
  n : 'n;
  site : site;
  aliases : Aliases.t;
  (* selection a capability-limited wrapper could not execute; applied by the
     mediator right above the submit *)
  residual : Pred.t;
  mutable wrapped : 'n candidate option;  (* [wrap]'s result, built once *)
}

(* How candidate nodes are made: [node ~source p inputs] is plan [p], whose
   children are the [inputs]' plans, in rule context [source]; [plan] reads
   a node's plan back. *)
type 'n ops = {
  plan : 'n -> Plan.t;
  node : source:string -> Plan.t -> 'n array -> 'n;
}

let bare = { plan = Fun.id; node = (fun ~source:_ p _ -> p) }

(* A wrapper-side node is annotated in its source's rule context (the one
   its submit gives it), so its wrapper's rules cost it; a mediator-side
   node in the mediator's. *)
let annotations registry =
  { plan = (fun (a : Estimator.ann) -> a.Estimator.node);
    node = Estimator.extend registry }

(* One base relation as executed inside its wrapper — only the operators the
   wrapper is capable of. *)
let base_node ops (b : base) =
  let source = b.ref_.Plan.source in
  let over child p = ops.node ~source p [| child |] in
  let scan = ops.node ~source (Plan.Scan b.ref_) [||] in
  let selected =
    if b.can_select && not (Pred.equal b.pred Pred.True) then
      over scan (Plan.Select (ops.plan scan, b.pred))
    else scan
  in
  match b.project with
  | Some attrs when b.can_project ->
    over selected (Plan.Project (ops.plan selected, attrs))
  | _ -> selected

let seed ops (b : base) =
  { n = base_node ops b;
    site = At_source b.ref_.Plan.source;
    aliases = Aliases.singleton b.ref_.Plan.binding;
    residual = base_residual b;
    wrapped = None }

(* A wrapper-side candidate as a mediator-side one: submit it and apply the
   residual above. Built once, so every join over it shares the node. *)
let wrap ops (c : 'n candidate) : 'n candidate =
  match c.site, c.wrapped with
  | At_mediator, _ -> c
  | At_source _, Some w -> w
  | At_source s, None ->
    let over child p = ops.node ~source:Registry.mediator_source p [| child |] in
    let sub = over c.n (Plan.Submit (s, ops.plan c.n)) in
    let n =
      if Pred.equal c.residual Pred.True then sub
      else over sub (Plan.Select (ops.plan sub, c.residual))
    in
    let w =
      { n; site = At_mediator; aliases = c.aliases; residual = Pred.True; wrapped = None }
    in
    c.wrapped <- Some w;
    w

(* A single base relation as a complete mediator-side plan. *)
let submit_base b = (wrap bare (seed bare b)).n

(* The joins of two disjoint candidates on [pred] in both orientations (join
   costs are asymmetric: the inner input may be probed via an index), as
   nodes in rule context [source]. *)
let joins ops ~source ~site ~residual l r pred =
  let aliases = Aliases.union l.aliases r.aliases in
  let join a b =
    { n = ops.node ~source (Plan.Join (ops.plan a.n, ops.plan b.n, pred)) [| a.n; b.n |];
      site;
      aliases;
      residual;
      wrapped = None }
  in
  [ join l r; join r l ]

(* Wrapper-side joins are only possible when both sides live in the same
   source and it can join. *)
let wrapper_joins ops spec l r pred =
  match l.site, r.site with
  | At_source s1, At_source s2 when String.equal s1 s2 && spec.can_join s1 ->
    let residual = Pred.conj (Pred.conjuncts l.residual @ Pred.conjuncts r.residual) in
    joins ops ~source:s1 ~site:(At_source s1) ~residual l r pred
  | _ -> []

(* Mediator-side joins, over two mediator-side candidates. *)
let mediator_joins ops l r pred =
  joins ops ~source:Registry.mediator_source ~site:At_mediator ~residual:Pred.True
    l r pred

(* Every join of two disjoint candidates: wrapper-side, then mediator-side. *)
let combine ops spec (adj : adjacency) l r =
  match connecting adj l.aliases r.aliases with
  | [] -> []
  | preds ->
    let pred = Pred.conj preds in
    wrapper_joins ops spec l r pred @ mediator_joins ops (wrap ops l) (wrap ops r) pred

(* --- Width limits ------------------------------------------------------------ *)

(* [enumerate] is super-exponential (every bushy shape of every split). *)
let max_enumerate_width = 10

(* DPccp represents alias subsets as bits of one OCaml int (63-bit). *)
let max_graph_width = 61

(* All non-empty proper splits of a list (first element pinned to the left
   side, avoiding mirror duplicates). [enumerate]'s width limit keeps the
   2^(n-1) masks small. *)
let splits = function
  | [] | [ _ ] -> []
  | first :: rest ->
    let n = List.length rest in
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
  let rec gen (bs : base list) : Plan.t candidate list =
    match bs with
    | [] -> []
    | [ b ] -> [ seed bare b ]
    | _ ->
      List.concat_map
        (fun (lbs, rbs) ->
          List.concat_map
            (fun l -> List.concat_map (fun r -> combine bare spec adj l r) (gen rbs))
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
        if Aliases.cardinal c.aliases = List.length bs then Some (wrap bare c).n
        else None)
      complete

(* --- Cost-based selection ---------------------------------------------------- *)

(* The order every plan selection compares costs in: numbers as [<=] orders
   them, NaN after every number. A wrapper formula can evaluate to NaN
   (ln(0) * 0), and plain [<=] is false whenever NaN is involved, so the
   later of two plans would win: a NaN plan would displace a finite one.
   On non-NaN costs this is exactly [<=], so no tie-break moves. *)
let cost_le a b = a <= b || Float.is_nan b

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

(* A search fills its own [stats] (a [cost_of] call mutates exactly the
   record it was handed) and merges it into the caller's once, when it
   finishes or fails — never double- or under-counted. *)
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

(* The objective at an annotation's root; [bound] enables the early-abort
   heuristic of §4.3.2 (TotalTime objective only — TimeFirst is not monotone
   along the tree). Returns [None] when aborted. What the annotation already
   holds is read, not computed or checked against the bound again. *)
let cost_ann ?bound ~objective (stats : stats) (ann : Estimator.ann) :
    float option =
  stats.plans_considered <- stats.plans_considered + 1;
  let bound = match objective with Total_time -> bound | First_tuple -> None in
  let ctx = Estimator.make_ctx ?abort_above:bound () in
  let result =
    match Estimator.require ctx ann (objective_var objective) with
    | cost -> Some cost
    | exception Estimator.Aborted ->
      stats.plans_aborted <- stats.plans_aborted + 1;
      None
  in
  stats.formula_evals <- stats.formula_evals + !(ctx.Estimator.evals);
  result

(* Estimate a complete plan afresh. *)
let cost_of ?bound ?(objective = Total_time) registry stats plan =
  cost_ann ?bound ~objective stats
    (Estimator.build registry ~source:Registry.mediator_source plan)

(* The cheapest of [xs] under [cost_le], [cost bound x] costing each with
   the best cost so far as its bound when pruning; ties keep the earlier. *)
let cheapest_by ~prune cost xs =
  List.fold_left
    (fun best x ->
      let bound = if prune then Option.map snd best else None in
      match cost bound x with
      | None -> best
      | Some c ->
        (match best with
         | Some (_, b) when cost_le b c -> best
         | _ -> Some (x, c)))
    None xs

(* Pick the cheapest plan from an explicit list, optionally with
   branch-and-bound pruning. *)
let choose ?(prune = true) ?(objective = Total_time) registry
    ?(stats = new_stats ()) (plans : Plan.t list) : (Plan.t * float) option =
  cheapest_by ~prune (fun bound p -> cost_of ?bound ~objective registry stats p) plans

(* --- Engine selection --------------------------------------------------------- *)

let default_enum_threshold = 12

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
   the order the DP visits the subsets of one size in. Comparing raw mask
   values is not equivalent: {0,3} = 9 would sort after {1,2} = 6. *)
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

(* Diagnose an impossible query precisely instead of a generic "no complete
   plan found": name the connected components of the join graph when it is
   disconnected. *)
let no_plan_error (spec : spec) : 'a =
  let comps =
    join_components (adjacency_of spec) (List.map (fun b -> b.ref_.Plan.binding) spec.bases)
  in
  let msg =
    if List.length comps <= 1 then
      "no complete plan found (join enumeration produced no candidate)"
    else
      Fmt.str
        "no complete plan found: join graph splits into %d disconnected \
         components %s — add join predicates linking them (cross joins are \
         not enumerated)"
        (List.length comps)
        (String.concat " | " (List.map (fun c -> "{" ^ String.concat ", " c ^ "}") comps))
  in
  raise (Err.Plan_error msg)

(* Both engines keep, for every alias set they build (a connected subset in
   the exact DP, a merged unit in greedy), the best candidate per site (one
   per source for unwrapped plans, one mediator-side), stored with its cost
   so each candidate is costed exactly once per run — the incumbent's
   stored cost is compared against, never recomputed. A candidate is its
   annotation, one new node over its inputs' (see [annotations]), so
   costing it evaluates that node's formulas over what its inputs already
   computed. *)
type strategy = Exact | Goo

let search strategy ?(objective = Total_time) ?stats registry (spec : spec) :
    Estimator.ann * float =
  if spec.bases = [] then raise (Err.Plan_error "query has no relations");
  let caller_stats = stats in
  let stats = new_stats () in
  let adj = adjacency_of spec in
  (* fail early, with names: a join graph in several pieces can never
     produce a complete plan — diagnose it up front instead of discovering
     an empty table after the whole enumeration ran *)
  let aliases = List.map (fun b -> b.ref_.Plan.binding) spec.bases in
  (match join_components adj aliases with
   | _ :: _ :: _ -> no_plan_error spec
   | _ -> ());
  let ops = annotations registry in
  let cost (c : Estimator.ann candidate) =
    Option.get (cost_ann ~objective stats c.n)
  in
  (* keep at most one candidate per site *)
  let put_entry existing (c : Estimator.ann candidate) =
    let same_site (x, _) =
      match x.site, c.site with
      | At_mediator, At_mediator -> true
      | At_source a, At_source b -> String.equal a b
      | _ -> false
    in
    match List.find_opt same_site existing with
    | Some ((_, old_cost) as entry) ->
      let c_cost = cost c in
      if cost_le old_cost c_cost then existing
      else (c, c_cost) :: List.filter (fun e -> e != entry) existing
    | None -> (c, cost c) :: existing
  in
  (* The double loop over the entries of two disjoint alias sets, handing
     each join to [put]: per (l, r), the wrapper-side joins, then the
     mediator-side ones unless that pair of mediator-side inputs was
     already joined. A seed's wrapper-side entry and its wrapped form wrap
     to the same input, and a repeat costs exactly what its first
     occurrence did, so it could never displace an entry. *)
  let join_all ls rs put =
    let joined = ref [] in
    List.iter
      (fun (l, _) ->
        List.iter
          (fun (r, _) ->
            match connecting adj l.aliases r.aliases with
            | [] -> ()
            | preds ->
              let pred = Pred.conj preds in
              List.iter put (wrapper_joins ops spec l r pred);
              let l' = wrap ops l and r' = wrap ops r in
              if not (List.exists (fun (a, b) -> a == l' && b == r') !joined)
              then begin
                joined := (l', r') :: !joined;
                List.iter put (mediator_joins ops l' r' pred)
              end)
          rs)
      ls
  in
  let join_entries ls rs =
    let entries = ref [] in
    join_all ls rs (fun c -> entries := put_entry !entries c);
    !entries
  in
  (* the singleton entries of one base: the wrapper-side candidate and its
     wrapped mediator-side form *)
  let seed_base (b : base) =
    let c = seed ops b in
    let entries = put_entry (put_entry [] c) (wrap ops c) in
    stats.dp_entries <- stats.dp_entries + List.length entries;
    entries
  in
  (* fold the full-query entries down to the cheapest complete plan *)
  let best_of_entries entries =
    (* wrapping is the identity on mediator-side candidates, whose stored
       cost is still exact; a wrapper-side candidate's submit (and
       residual) is costed once here *)
    let wrapped_cost _ (c, stored) =
      let w = wrap ops c in
      Some (if w == c then stored else cost w)
    in
    match cheapest_by ~prune:false wrapped_cost entries with
    | Some ((c, _), cst) -> ((wrap ops c).n, cst)
    | None -> no_plan_error spec
  in
  let n = List.length spec.bases in

  (* --- DPccp over an array of units ------------------------------------------ *)
  (* The csg–cmp engine, generalized to "units": disjoint alias groups with
     their candidate entries. The exact engine uses the query's bases as
     units; the greedy improver re-enters with composite units. Returns the
     entry list of the union of all units, or [None] when [pair_limit]
     would be exceeded (checked before any costing). *)
  let dpccp_units ?pair_limit
      (units : (Aliases.t * (Estimator.ann candidate * float) list) array) :
      (Estimator.ann candidate * float) list option =
    let m = Array.length units in
    if m > max_graph_width then
      raise
        (Err.Plan_error
           (Fmt.str
              "the dpccp join enumerator represents subsets as bits of one \
               int and supports at most %d relations (this query has %d) — \
               use greedy"
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
         containing its lowest unit (pinned left, so each unordered split
         appears once; [combine] adds both orientations) with connected
         complements, in descending mask order. This order and the
         size-then-lexicographic subset order fix every keep-the-earlier
         tie-break, and with them which of two equal-cost plans wins. *)
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
        let table : (int, (Estimator.ann candidate * float) list) Hashtbl.t =
          Hashtbl.create 64
        in
        Array.iteri
          (fun i (_, entries) -> Hashtbl.replace table (1 lsl i) entries)
          units;
        (* subsets by size: every split of a subset reads strictly smaller
           ones, all already in the table *)
        let process (s_mask, lmasks) =
          let entries = ref [] in
          List.iter
            (fun lmask ->
              stats.csg_cmp_pairs <- stats.csg_cmp_pairs + 1;
              match
                Hashtbl.find_opt table lmask,
                Hashtbl.find_opt table (s_mask lxor lmask)
              with
              | Some ls, Some rs ->
                join_all ls rs (fun c -> entries := put_entry !entries c)
              | _ -> ())
            lmasks;
          if !entries <> [] then begin
            Hashtbl.replace table s_mask !entries;
            stats.dp_entries <- stats.dp_entries + List.length !entries
          end
        in
        for size = 2 to m do
          List.iter process by_size.(size)
        done;
        Some
          (Option.value ~default:[]
             (Hashtbl.find_opt table ((1 lsl m) - 1)))
    end
  in

  (* --- the exact engine: DPccp over the bases --------------------------------- *)
  let run_exact () =
    let units =
      Array.of_list
        (List.map
           (fun b -> (Aliases.singleton b.ref_.Plan.binding, seed_base b))
           spec.bases)
    in
    match dpccp_units units with
    | Some (_ :: _ as cands) -> best_of_entries cands
    | Some [] | None -> no_plan_error spec
  in

  (* --- the greedy engine: GOO + bounded DPccp-window improvement ------------- *)
  let run_greedy () =
    let base_arr = Array.of_list spec.bases in
    let seeds = Array.map seed_base base_arr in
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
    (* a pair's rank: the cost of joining the two sides' cheapest entries
       (ties keep the earlier entry, so the pick is deterministic). Ranking
       only the cheapest-by-cheapest combination — both sides are already
       costed, so a rank costs a couple of top-node estimations — keeps the
       GOO loop quadratic-with-small-constant even on cliques; the full
       entry product is materialized only for the winning pair of each
       round. *)
    let cheapest entries =
      match entries with
      | [] -> None
      | e0 :: tl ->
        Some
          (List.fold_left
             (fun ((_, r) as best) ((_, r') as e) ->
               if cost_le r r' then best else e)
             e0 tl)
    in
    let rank_cache : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
    let eval_pair i j =
      match Hashtbl.find_opt rank_cache (i, j) with
      | Some r -> r
      | None ->
        stats.csg_cmp_pairs <- stats.csg_cmp_pairs + 1;
        let rank =
          match cheapest entries_u.(i), cheapest entries_u.(j) with
          | Some l, Some r ->
            let m = ref infinity in
            join_all [ l ] [ r ] (fun c ->
                let x = cost c in
                if not (cost_le !m x) then m := x);
            !m
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
              | Some (_, _, br) when cost_le br rank -> ()
              | _ -> best := Some (i, j, rank)
            end
          done
      done;
      match !best with
      | None ->
        (* unreachable: the up-front component check guarantees the unit
           graph stays connected under merging *)
        no_plan_error spec
      | Some (i, j, _) ->
        let entries = join_entries entries_u.(i) entries_u.(j) in
        al_u.(i) <- Aliases.union al_u.(i) al_u.(j);
        entries_u.(i) <- entries;
        tree_u.(i) <- Gnode (tree_u.(i), tree_u.(j));
        active.(j) <- false;
        stats.dp_entries <- stats.dp_entries + List.length entries;
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
       [choose]'s fold so its branch-and-bound pruning applies *)
    let final_of entries =
      Option.map
        (fun (w, c) -> (w.n, c))
        (cheapest_by ~prune:true
           (fun bound w -> cost_ann ?bound ~objective stats w.n)
           (List.map (fun (c, _) -> wrap ops c) entries))
    in
    let goo =
      match final_of entries_u.(!root) with
      | Some pc -> pc
      | None -> no_plan_error spec
    in
    (* bounded improvement: re-optimize windows of the merge tree exactly
       with DPccp, then re-join the windows (windowed DP over composite
       units when it fits the pair budget, the greedy tree shape when not);
       keep the result only when strictly cheaper *)
    let budget = ref improve_pair_budget in
    let run_window units =
      if !budget <= 0 then None
      else begin
        let before = stats.csg_cmp_pairs in
        let r = dpccp_units ~pair_limit:!budget units in
        budget := !budget - (stats.csg_cmp_pairs - before);
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
        if List.for_all (fun (_, o) -> Option.is_none o) wimproved then None
        else begin
          let rec eval t =
            match List.assq_opt t wimproved with
            | Some (Some entries) -> entries
            | Some None | None -> (
              match t with
              | Gleaf i -> seeds.(i)
              | Gnode (a, b) -> join_entries (eval a) (eval b))
          in
          Some (eval tree_u.(!root))
        end
      in
      r
    in
    match improved_entries with
    | Some (_ :: _ as entries) -> (
      match final_of entries with
      | Some (p, c) when not (cost_le (snd goo) c) -> (p, c)
      | _ -> goo)
    | _ -> goo
  in

  Fun.protect
    ~finally:(fun () -> Option.iter (fun into -> merge_stats ~into stats) caller_stats)
    (match strategy with Exact -> run_exact | Goo -> run_greedy)

type engine =
  ?objective:objective -> ?stats:stats -> Registry.t -> spec -> Estimator.ann * float

let dpccp : engine = search Exact
let greedy : engine = search Goo

let optimize : engine =
 fun ?objective ?stats registry spec ->
  let engine =
    if List.length spec.bases <= default_enum_threshold then dpccp else greedy
  in
  engine ?objective ?stats registry spec
