(* The measuring evaluator: executes a physical plan over the simulated
   storage engine and accounts simulated time — IO through the buffer pool,
   CPU per predicate evaluation, output per produced object. The resulting
   measured cost vectors play the role of the paper's "real measurements of
   an object database system" (§5); they are also what the historical-cost
   extension feeds back into the cost model.

   Two execution engines share this module:

   - the batched engine ([exec_batch]), the production engine, which streams
     columnar {!Batch.t} chunks through the operators, compiles predicates
     once per batch into selection masks ({!Bpred}) and carries row counts
     and byte sizes incrementally;
   - the tuple-at-a-time engine ([exec_tuple]), the original list-of-tuples
     interpreter, kept as the reference the batched engine is tested
     against.

   Both charge simulated milliseconds through the same cost-formula helpers
   below, replay buffer-pool accesses in the same order and produce the same
   rows in the same order — so results and simulated costs are bit-identical
   by construction; the differential suites pin this. Wall-clock time
   ([wall_ms]) is the second, real clock: it measures the engine itself and
   is the metric the two engines are allowed to differ on. *)

open Disco_common
open Disco_algebra
open Disco_storage

type env = {
  engine : Costs.engine;
  buffer : Buffer.t;
  (* the mediator's composition engine hashes equi-joins over materialized
     subresults; the simulated 1997-era sources do not *)
  hash_join : bool;
  (* ADT operation implementations available to this engine (paper §7);
     shipped to the mediator at registration, like cost rules *)
  adts : Adt.t list;
}

(* --- Engine selection ------------------------------------------------------ *)

type mode = Tuple_at_a_time | Batched of { batch_size : int }

let default_batch_size = 1024

let default_mode_ref = ref (Batched { batch_size = default_batch_size })
let default_mode () = !default_mode_ref
let set_default_mode m = default_mode_ref := m

type result = {
  rows : Tuple.t list;
  first : float;  (* simulated ms until the first object *)
  total : float;  (* simulated ms until completion *)
  wall_ms : float;  (* real elapsed ms of the engine itself *)
}

(* The measured counterpart of the estimator's five cost variables, plus the
   real clock. *)
type vector = {
  count : float;
  size : float;
  time_first : float;
  time_next : float;
  total_time : float;
  wall_ms : float;
}

let vector_of_result r =
  let count = float_of_int (List.length r.rows) in
  let size = float_of_int (List.fold_left (fun acc t -> acc + Tuple.byte_size t) 0 r.rows) in
  { count;
    size;
    time_first = r.first;
    time_next = (r.total -. r.first) /. Float.max count 1.;
    total_time = r.total;
    wall_ms = r.wall_ms }

let to_cost_vars (v : vector) =
  Disco_costlang.Ast.
    [ (Count_object, v.count);
      (Total_size, v.size);
      (Time_first, v.time_first);
      (Time_next, v.time_next);
      (Total_time, v.total_time) ]

let pp_vector ppf v =
  Fmt.pf ppf "{count=%.0f size=%.0fB first=%.1fms next=%.2fms total=%.1fms}" v.count
    v.size v.time_first v.time_next v.total_time

(* --- Typed submit failures -------------------------------------------------

   A subplan submitted to a wrapper can fail to come back: the attempt can
   exceed the mediator's per-source timeout, the source can return a
   transient error, or the source can be hard-unavailable. The mediator's
   submit policy retries within one attempt budget; when the budget is
   exhausted the failure surfaces as this typed exception rather than a
   swallowed generic one, so callers can replan or report precisely. *)

type failure_reason = Timeout | Transient | Unavailable

type submit_failure = {
  source : string;
  attempts : int;        (* submits tried, including the failing one *)
  elapsed_ms : float;    (* simulated ms burnt across all attempts *)
  reason : failure_reason;  (* of the final attempt *)
}

exception Submit_error of submit_failure

let reason_to_string = function
  | Timeout -> "timeout"
  | Transient -> "transient error"
  | Unavailable -> "unavailable"

let pp_submit_failure ppf f =
  Fmt.pf ppf "source %S failed (%s) after %d attempt%s, %.0f ms wasted" f.source
    (reason_to_string f.reason) f.attempts
    (if f.attempts = 1 then "" else "s")
    f.elapsed_ms

let () =
  Printexc.register_printer (function
    | Submit_error f -> Some (Fmt.str "Submit_error: %a" pp_submit_failure f)
    | _ -> None)

(* --- Helpers -------------------------------------------------------------- *)

let qualified_attrs (table : Table.t) binding =
  Array.of_list
    (List.map
       (fun (a : Disco_catalog.Schema.attribute) ->
         binding ^ "." ^ a.Disco_catalog.Schema.attr_name)
       table.Table.schema.Disco_catalog.Schema.attributes)

let tuple_of_row attrs row = Tuple.make attrs row

let eval_pred env (p : Pred.t) (t : Tuple.t) =
  Pred.eval ~apply:(Adt.apply env.adts) (fun a -> Tuple.get t a) p

(* Cost of applying [p] once, including its ADT operations. *)
let pred_cost env (p : Pred.t) = Adt.pred_cost env.adts ~eval_ms:env.engine.Costs.eval_ms p

let nlog2n n = float_of_int n *. (log (Float.max (float_of_int n) 2.) /. log 2.)

(* --- Cost formulas ---------------------------------------------------------

   One function per operator, returning (first, total). Shared verbatim by
   the tuple-at-a-time and the batched engine, so the two are bit-identical
   in simulated time by construction — the float operations and their order
   are fixed here, and both engines feed the same operands (the batched
   engine replays buffer accesses in the same order, so even the repeated
   [io +. io_ms] accumulation matches bit for bit). [rc] is the per-object
   residual-predicate cost, [None] when the residual is [True] (the tuple
   path never evaluates — or charges — an absent residual). *)

let full_scan_costs (e : Costs.engine) ~io ~scanned ~rc =
  let total =
    e.Costs.startup_ms +. io
    +. (match rc with Some c -> float_of_int scanned *. c | None -> 0.)
    +. (float_of_int scanned *. e.Costs.output_ms)
  in
  (e.Costs.startup_ms +. e.Costs.io_ms, total)

let index_scan_costs (e : Costs.engine) ~height ~io ~fetched ~rc =
  let probe = float_of_int height *. e.Costs.probe_ms in
  let total =
    e.Costs.startup_ms +. probe +. io
    +. (match rc with Some c -> fetched *. c | None -> 0.)
    +. (fetched *. e.Costs.output_ms)
  in
  (e.Costs.startup_ms +. probe +. e.Costs.io_ms, total)

let filter_costs (e : Costs.engine) ~c_first ~c_total ~n_in ~n_out ~per_row =
  ( c_first +. per_row,
    c_total
    +. (float_of_int n_in *. per_row)
    +. (float_of_int n_out *. e.Costs.output_ms) )

let project_costs (e : Costs.engine) ~c_first ~c_total ~n_out =
  (c_first, c_total +. (float_of_int n_out *. e.Costs.eval_ms))

let sort_costs (e : Costs.engine) ~c_total ~n =
  let first = c_total +. (e.Costs.sort_ms *. nlog2n n) in
  (first, first +. (float_of_int n *. e.Costs.output_ms))

let hash_join_costs (e : Costs.engine) ~l_first ~l_total ~r_total ~n_left ~n_right
    ~candidates ~n_out ~pc =
  let emitted = float_of_int n_out in
  let build_probe = float_of_int (n_left + n_right) *. e.Costs.eval_ms in
  let total =
    l_total +. r_total +. build_probe
    +. (float_of_int candidates *. pc)
    +. (emitted *. e.Costs.output_ms)
  in
  (l_first +. r_total +. e.Costs.eval_ms, total)

let nl_join_costs (e : Costs.engine) ~l_first ~l_total ~r_first ~r_total ~n_left
    ~n_right ~n_out ~pc =
  let pairs = float_of_int (n_left * n_right) in
  let emitted = float_of_int n_out in
  let total =
    l_total +. r_total +. (pairs *. pc) +. (emitted *. e.Costs.output_ms)
  in
  (l_first +. r_first +. e.Costs.eval_ms, total)

let index_join_costs (e : Costs.engine) ~o_first ~o_total ~height ~probes ~io
    ~fetched ~rc ~n_out =
  let emitted = float_of_int n_out in
  let probe_cost =
    float_of_int probes *. float_of_int height *. e.Costs.probe_ms
  in
  let residual_cost =
    match rc with Some c -> float_of_int fetched *. c | None -> 0.
  in
  let total =
    o_total +. probe_cost +. io +. residual_cost
    +. (float_of_int fetched *. e.Costs.output_ms)
    +. (emitted *. e.Costs.output_ms)
  in
  (o_first +. (float_of_int height *. e.Costs.probe_ms) +. e.Costs.io_ms, total)

let union_costs (e : Costs.engine) ~l_first ~l_total ~r_first ~r_total ~n_out =
  ( Float.min l_first r_first,
    l_total +. r_total +. (float_of_int n_out *. e.Costs.output_ms) )

let dedup_costs (e : Costs.engine) ~c_total ~n_in ~n_out =
  let first = c_total +. (e.Costs.sort_ms *. nlog2n n_in) in
  (first, first +. (float_of_int n_out *. e.Costs.output_ms))

let aggregate_costs (e : Costs.engine) ~c_total ~n_in ~n_out =
  let n = float_of_int n_in in
  let first = c_total +. (n *. e.Costs.eval_ms) in
  (first, first +. (float_of_int n_out *. e.Costs.output_ms))

(* --- Tuple-at-a-time evaluation -------------------------------------------- *)

let mk rows ~first ~total = { rows; first; total; wall_ms = 0. }

let rec exec_tuple (env : env) (p : Physical.t) : result =
  let e = env.engine in
  match p with
  (* Gather point of the mediator's scatter-gather: wrapper subresults land
     here pre-executed (possibly concurrently, in their own envs), so the
     composition below never touches a wrapper and [env] stays
     single-domain. They arrive as batches; the reference engine reads
     them as tuples. *)
  | Physical.Pmaterialized { batches; count = _; first; total } ->
    mk (List.concat_map Batch.to_tuples batches) ~first ~total
  | Physical.Pscan { table; binding; access; residual } ->
    let attrs = qualified_attrs table binding in
    let has_residual = not (Pred.equal residual Pred.True) in
    let rc () = if has_residual then Some (pred_cost env residual) else None in
    (match access with
     | Physical.Full_scan ->
       let io = ref 0. and rows = ref [] and scanned = ref 0 in
       Table.iter_pages table (fun page_no page ->
           if Buffer.access env.buffer ~table:table.Table.name ~page:page_no then
             io := !io +. e.Costs.io_ms;
           Array.iter
             (fun row ->
               incr scanned;
               let t = tuple_of_row attrs row in
               if (not has_residual) || eval_pred env residual t then rows := t :: !rows)
             page);
       let rows = List.rev !rows in
       (* every scanned object is materialized (the paper's Output cost),
          whether or not it passes the residual predicate *)
       let first, total = full_scan_costs e ~io:!io ~scanned:!scanned ~rc:(rc ()) in
       mk rows ~first ~total
     | Physical.Index_scan { attr; op; value } ->
       let idx =
         match Table.index table attr with
         | Some i -> i
         | None -> raise (Err.Plan_error ("no index on " ^ attr))
       in
       let rids = Btree.search idx op value in
       let io = ref 0. and rows = ref [] in
       List.iter
         (fun rid ->
           if Buffer.access env.buffer ~table:table.Table.name ~page:rid.Btree.page
           then io := !io +. e.Costs.io_ms;
           let t = tuple_of_row attrs (Table.fetch table rid) in
           if (not has_residual) || eval_pred env residual t then rows := t :: !rows)
         rids;
       let rows = List.rev !rows in
       let fetched = float_of_int (List.length rids) in
       (* every fetched object is materialized, as above *)
       let first, total =
         index_scan_costs e ~height:idx.Btree.height ~io:!io ~fetched ~rc:(rc ())
       in
       mk rows ~first ~total)
  | Physical.Pfilter (child, pred) ->
    let c = exec_tuple env child in
    let rows = List.filter (eval_pred env pred) c.rows in
    let first, total =
      filter_costs e ~c_first:c.first ~c_total:c.total
        ~n_in:(List.length c.rows) ~n_out:(List.length rows)
        ~per_row:(pred_cost env pred)
    in
    mk rows ~first ~total
  | Physical.Pproject (child, attrs) ->
    let c = exec_tuple env child in
    let rows = List.map (fun t -> Tuple.project t attrs) c.rows in
    let first, total =
      project_costs e ~c_first:c.first ~c_total:c.total ~n_out:(List.length rows)
    in
    mk rows ~first ~total
  | Physical.Psort (child, keys) ->
    let c = exec_tuple env child in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | (k, ord) :: rest ->
          let r = Constant.compare (Tuple.get a k) (Tuple.get b k) in
          let r = match ord with Plan.Asc -> r | Plan.Desc -> -r in
          if r <> 0 then r else go rest
      in
      go keys
    in
    let rows = List.stable_sort cmp c.rows in
    let first, total = sort_costs e ~c_total:c.total ~n:(List.length rows) in
    mk rows ~first ~total
  | Physical.Pnested_join (left, right, pred) ->
    let l = exec_tuple env left and r = exec_tuple env right in
    (* hash path: pick one equi conjunct between the two sides as build key *)
    let equi_key =
      if not env.hash_join then None
      else
        let in_rows rows a =
          match rows with
          | t :: _ -> (try ignore (Tuple.get t a); true with _ -> false)
          | [] -> false
        in
        List.find_map
          (function
            | Pred.Attr_cmp (a, Pred.Eq, b) ->
              if in_rows l.rows a && in_rows r.rows b then Some (a, b)
              else if in_rows l.rows b && in_rows r.rows a then Some (b, a)
              else None
            | _ -> None)
          (Pred.conjuncts pred)
    in
    (match equi_key with
     | Some (lkey, rkey) ->
       let table = Hashtbl.create (List.length r.rows) in
       List.iter
         (fun rt -> Hashtbl.add table (Constant.to_string (Tuple.get rt rkey)) rt)
         r.rows;
       let candidates = ref 0 in
       let rows =
         List.concat_map
           (fun lt ->
             let matches = Hashtbl.find_all table (Constant.to_string (Tuple.get lt lkey)) in
             candidates := !candidates + List.length matches;
             List.filter_map
               (fun rt ->
                 let t = Tuple.concat lt rt in
                 if eval_pred env pred t then Some t else None)
               matches)
           l.rows
       in
       let first, total =
         hash_join_costs e ~l_first:l.first ~l_total:l.total ~r_total:r.total
           ~n_left:(List.length l.rows) ~n_right:(List.length r.rows)
           ~candidates:!candidates ~n_out:(List.length rows)
           ~pc:(pred_cost env pred)
       in
       mk rows ~first ~total
     | None ->
       let rows =
         List.concat_map
           (fun lt ->
             List.filter_map
               (fun rt ->
                 let t = Tuple.concat lt rt in
                 if eval_pred env pred t then Some t else None)
               r.rows)
           l.rows
       in
       let first, total =
         nl_join_costs e ~l_first:l.first ~l_total:l.total ~r_first:r.first
           ~r_total:r.total ~n_left:(List.length l.rows)
           ~n_right:(List.length r.rows) ~n_out:(List.length rows)
           ~pc:(pred_cost env pred)
       in
       mk rows ~first ~total)
  | Physical.Pindex_join { outer; table; binding; outer_attr; inner_attr; residual } ->
    let o = exec_tuple env outer in
    let idx =
      match Table.index table inner_attr with
      | Some i -> i
      | None -> raise (Err.Plan_error ("no index on " ^ inner_attr))
    in
    let attrs = qualified_attrs table binding in
    let io = ref 0. and probes = ref 0 and rows = ref [] and fetched = ref 0 in
    List.iter
      (fun ot ->
        incr probes;
        let key = Tuple.get ot outer_attr in
        List.iter
          (fun rid ->
            if Buffer.access env.buffer ~table:table.Table.name ~page:rid.Btree.page
            then io := !io +. e.Costs.io_ms;
            incr fetched;
            let t = Tuple.concat ot (tuple_of_row attrs (Table.fetch table rid)) in
            if Pred.equal residual Pred.True || eval_pred env residual t then
              rows := t :: !rows)
          (Btree.lookup idx key))
      o.rows;
    let rows = List.rev !rows in
    let rc =
      if Pred.equal residual Pred.True then None else Some (pred_cost env residual)
    in
    let first, total =
      index_join_costs e ~o_first:o.first ~o_total:o.total ~height:idx.Btree.height
        ~probes:!probes ~io:!io ~fetched:!fetched ~rc ~n_out:(List.length rows)
    in
    mk rows ~first ~total
  | Physical.Punion (left, right) ->
    let l = exec_tuple env left and r = exec_tuple env right in
    let rows = l.rows @ r.rows in
    let first, total =
      union_costs e ~l_first:l.first ~l_total:l.total ~r_first:r.first
        ~r_total:r.total ~n_out:(List.length rows)
    in
    mk rows ~first ~total
  | Physical.Pdedup child ->
    let c = exec_tuple env child in
    let seen = Hashtbl.create 64 in
    let rows =
      List.filter
        (fun t ->
          let k = Tuple.key t in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        c.rows
    in
    let first, total =
      dedup_costs e ~c_total:c.total ~n_in:(List.length c.rows)
        ~n_out:(List.length rows)
    in
    mk rows ~first ~total
  | Physical.Paggregate (child, agg) ->
    let c = exec_tuple env child in
    let groups : (string, Tuple.t * Tuple.t list ref) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun t ->
        let key =
          String.concat "\x00"
            (List.map (fun a -> Constant.to_string (Tuple.get t a)) agg.Plan.group_by)
        in
        match Hashtbl.find_opt groups key with
        | Some (_, rows) -> rows := t :: !rows
        | None ->
          Hashtbl.add groups key (t, ref [ t ]);
          order := key :: !order)
      c.rows;
    let aggregate_rows rows (f, input, _) : Constant.t =
      let nums () =
        List.filter_map (fun t -> Constant.to_float_opt (Tuple.get t input)) rows
      in
      match f with
      | Plan.Count -> Constant.Int (List.length rows)
      | Plan.Sum -> Constant.Float (List.fold_left ( +. ) 0. (nums ()))
      | Plan.Avg ->
        let xs = nums () in
        if xs = [] then Constant.Null
        else Constant.Float (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
      | Plan.Min ->
        (match rows with
         | [] -> Constant.Null
         | t0 :: _ ->
           List.fold_left
             (fun acc t ->
               let v = Tuple.get t input in
               if Constant.compare v acc < 0 then v else acc)
             (Tuple.get t0 input) rows)
      | Plan.Max ->
        (match rows with
         | [] -> Constant.Null
         | t0 :: _ ->
           List.fold_left
             (fun acc t ->
               let v = Tuple.get t input in
               if Constant.compare v acc > 0 then v else acc)
             (Tuple.get t0 input) rows)
    in
    let out_attrs =
      Array.of_list (agg.Plan.group_by @ List.map (fun (_, _, o) -> o) agg.Plan.aggs)
    in
    let rows =
      List.rev_map
        (fun key ->
          let witness, rows = Hashtbl.find groups key in
          let group_vals = List.map (fun a -> Tuple.get witness a) agg.Plan.group_by in
          let agg_vals = List.map (aggregate_rows !rows) agg.Plan.aggs in
          Tuple.make out_attrs (Array.of_list (group_vals @ agg_vals)))
        !order
    in
    let first, total =
      aggregate_costs e ~c_total:c.total ~n_in:(List.length c.rows)
        ~n_out:(List.length rows)
    in
    mk rows ~first ~total

(* --- Batched evaluation ----------------------------------------------------

   Same operators over lists of columnar batches. Intermediate results are
   [Batch.t list] rather than one batch because unions legally mix schemas
   in a single row stream; every batch in a result is non-empty, and row
   order across the list equals the tuple engine's row order. Counts and
   byte sizes are carried incrementally (never recomputed by walking rows —
   the satellite fix for [vector_of_result]'s O(n) refold). *)

type batched_result = {
  batches : Batch.t list;
  bcount : int;   (* total rows across [batches] *)
  bbytes : int;   (* total Tuple.byte_size across [batches] *)
  bfirst : float;
  btotal : float;
  bwall_ms : float;
}

(* Accumulator of finished batches, in order. *)
type bacc = {
  mutable abats : Batch.t list;  (* reversed *)
  mutable acount : int;
  mutable abytes : int;
}

let bacc () = { abats = []; acount = 0; abytes = 0 }

let bpush a (b : Batch.t) =
  if b.Batch.len > 0 then begin
    a.abats <- b :: a.abats;
    a.acount <- a.acount + b.Batch.len;
    a.abytes <- a.abytes + b.Batch.bytes
  end

let bdone a = List.rev a.abats

(* Row-wise output collector: builds batches of at most [osize] rows,
   starting a new batch when the row schema changes mid-stream. Builders
   start small and double up to [osize]: most operator outputs on the
   mediator side hold a few dozen rows, and preallocating [osize] slots per
   column would allocate every output straight into the major heap. *)
type bout = {
  osize : int;
  mutable cur : (string array * Batch.builder) option;
  oacc : bacc;
}

let bout bsz = { osize = bsz; cur = None; oacc = bacc () }

let bout_flush o =
  match o.cur with
  | Some (_, bld) when Batch.builder_len bld > 0 -> bpush o.oacc (Batch.flush bld)
  | _ -> ()

let schema_eq a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 String.equal a b)

let bout_target o attrs =
  match o.cur with
  | Some (a, bld) when schema_eq a attrs -> bld
  | _ ->
    bout_flush o;
    let bld = Batch.builder ~hint:(min o.osize 64) attrs in
    o.cur <- Some (attrs, bld);
    bld

let bout_row o attrs values =
  let bld = bout_target o attrs in
  Batch.add_row bld values;
  if Batch.builder_len bld >= o.osize then bout_flush o

let bout_from o (src : Batch.t) i =
  let bld = bout_target o src.Batch.attrs in
  Batch.add_from bld src i;
  if Batch.builder_len bld >= o.osize then bout_flush o

let bout_pair o cattrs (l : Batch.t) li (r : Batch.t) ri =
  let bld = bout_target o cattrs in
  Batch.add_pair_from bld l li r ri;
  if Batch.builder_len bld >= o.osize then bout_flush o

let bout_done o =
  bout_flush o;
  (bdone o.oacc, o.oacc.acount, o.oacc.abytes)

let bres (bats, count, bytes) ~first ~total =
  { batches = bats;
    bcount = count;
    bbytes = bytes;
    bfirst = first;
    btotal = total;
    bwall_ms = 0. }

let bres_of_acc acc ~first ~total =
  bres (bdone acc, acc.acount, acc.abytes) ~first ~total

let rec exec_batch (env : env) ~bsz (p : Physical.t) : batched_result =
  let e = env.engine in
  let apply = Adt.apply env.adts in
  match p with
  | Physical.Pmaterialized { batches; count = _; first; total } ->
    (* the wrapper engine's batches are taken as they are: O(#batches),
       whatever their size or selection vectors *)
    let acc = bacc () in
    List.iter (bpush acc) batches;
    bres_of_acc acc ~first ~total
  | Physical.Pscan { table; binding; access; residual } ->
    let attrs = qualified_attrs table binding in
    let has_residual = not (Pred.equal residual Pred.True) in
    let acc = bacc () in
    let stage = Batch.builder ~hint:bsz attrs in
    (* flush the staged scanned rows through the residual's selection mask;
       with a residual the stage is only borrowed (mask + filter-copy, then
       reset), so one set of staging arrays serves the whole scan and the
       only allocations that survive are the kept rows *)
    let emit () =
      if Batch.builder_len stage > 0 then
        if has_residual then begin
          let v = Batch.unsafe_view stage in
          let m, keep = Bpred.mask ~apply v residual in
          (* copy densifies: [filter] only sets a selection vector over the
             staging arrays, which the next fill overwrites *)
          if keep > 0 then bpush acc (Batch.copy (Batch.filter v m ~keep));
          Batch.reset stage
        end
        else bpush acc (Batch.flush stage)
    in
    let rc () = if has_residual then Some (pred_cost env residual) else None in
    (match access with
     | Physical.Full_scan ->
       (* pages are visited one by one so the buffer-pool accesses — and
          hence the charged I/O — are exactly the tuple engine's, but the
          data itself comes from the table's columnar mirror, zero-copy:
          the emitted batch shares the mirror's column arrays (and a
          residual needs just one mask + one gather over them, no per-row
          staging). Row order is page order either way. *)
       let io = ref 0. and scanned = ref 0 in
       Table.iter_pages table (fun page_no page ->
           if Buffer.access env.buffer ~table:table.Table.name ~page:page_no then
             io := !io +. e.Costs.io_ms;
           scanned := !scanned + Array.length page);
       let n = Table.count table in
       if n > 0 then begin
         let whole = Batch.of_table_columns attrs (Table.columnar table) n in
         if has_residual then begin
           let m, keep = Bpred.mask ~apply whole residual in
           if keep > 0 then bpush acc (Batch.filter whole m ~keep)
         end
         else bpush acc whole
       end;
       let first, total = full_scan_costs e ~io:!io ~scanned:!scanned ~rc:(rc ()) in
       bres_of_acc acc ~first ~total
     | Physical.Index_scan { attr; op; value } ->
       let idx =
         match Table.index table attr with
         | Some i -> i
         | None -> raise (Err.Plan_error ("no index on " ^ attr))
       in
       let io = ref 0. and nrids = ref 0 in
       Btree.iter_search idx op value (fun rid ->
           incr nrids;
           if Buffer.access env.buffer ~table:table.Table.name ~page:rid.Btree.page
           then io := !io +. e.Costs.io_ms;
           Batch.add_row stage (Table.fetch table rid);
           if Batch.builder_len stage >= bsz then emit ());
       emit ();
       let fetched = float_of_int !nrids in
       let first, total =
         index_scan_costs e ~height:idx.Btree.height ~io:!io ~fetched ~rc:(rc ())
       in
       bres_of_acc acc ~first ~total)
  | Physical.Pfilter (child, pred) ->
    let c = exec_batch env ~bsz child in
    let acc = bacc () in
    List.iter
      (fun b ->
        let m, keep = Bpred.mask ~apply b pred in
        if keep > 0 then bpush acc (Batch.filter b m ~keep))
      c.batches;
    let first, total =
      filter_costs e ~c_first:c.bfirst ~c_total:c.btotal ~n_in:c.bcount
        ~n_out:acc.acount ~per_row:(pred_cost env pred)
    in
    bres_of_acc acc ~first ~total
  | Physical.Pproject (child, names) ->
    let c = exec_batch env ~bsz child in
    let acc = bacc () in
    List.iter (fun b -> bpush acc (Batch.select_cols b names)) c.batches;
    let first, total =
      project_costs e ~c_first:c.bfirst ~c_total:c.btotal ~n_out:acc.acount
    in
    bres_of_acc acc ~first ~total
  | Physical.Psort (child, keys) ->
    let c = exec_batch env ~bsz child in
    let bats = Array.of_list c.batches in
    let keyspec = Array.of_list keys in
    (* per-batch, per-key column resolution, forced only when a comparison
       actually reaches that key — so a sort over <= 1 rows (no comparisons)
       or with ties never hit tolerates unresolvable keys, exactly like the
       tuple comparator *)
    let kcols =
      Array.map
        (fun b -> Array.map (fun (k, _) -> lazy (Batch.find_col b k)) keyspec)
        bats
    in
    let idx = Array.make c.bcount (0, 0) in
    let pos = ref 0 in
    Array.iteri
      (fun bi b ->
        for i = 0 to b.Batch.len - 1 do
          idx.(!pos) <- (bi, i);
          incr pos
        done)
      bats;
    let cmp (bi, ri) (bj, rj) =
      let rec go k =
        if k >= Array.length keyspec then 0
        else begin
          let _, ord = keyspec.(k) in
          let ci = Lazy.force kcols.(bi).(k) in
          let cj = Lazy.force kcols.(bj).(k) in
          let r = Batch.cell_compare bats.(bi) ci ri bats.(bj) cj rj in
          let r = match ord with Plan.Asc -> r | Plan.Desc -> -r in
          if r <> 0 then r else go (k + 1)
        end
      in
      go 0
    in
    (* both engines use a stable merge sort with the same comparator, so the
       output permutation is identical *)
    Array.stable_sort cmp idx;
    let o = bout bsz in
    Array.iter (fun (bi, i) -> bout_from o bats.(bi) i) idx;
    let first, total = sort_costs e ~c_total:c.btotal ~n:c.bcount in
    bres (bout_done o) ~first ~total
  | Physical.Pnested_join (left, right, pred) ->
    let l = exec_batch env ~bsz left and r = exec_batch env ~bsz right in
    let lbats = Array.of_list l.batches and rbats = Array.of_list r.batches in
    (* pair-compiled predicate and concatenated schema per batch pair,
       compiled on first use (the tuple path only ever evaluates the
       predicate once a candidate pair exists) *)
    let pairinfo = Array.make_matrix (Array.length lbats) (Array.length rbats) None in
    let pair_info lbi rbi =
      match pairinfo.(lbi).(rbi) with
      | Some x -> x
      | None ->
        let lb = lbats.(lbi) and rb = rbats.(rbi) in
        let x =
          (Array.append lb.Batch.attrs rb.Batch.attrs,
           Bpred.pair_eval ~apply lb rb pred)
        in
        pairinfo.(lbi).(rbi) <- Some x;
        x
    in
    let equi_key =
      if not env.hash_join then None
      else
        let in_bats bats a =
          match bats with
          | b :: _ -> (try ignore (Batch.find_col b a); true with _ -> false)
          | [] -> false
        in
        List.find_map
          (function
            | Pred.Attr_cmp (a, Pred.Eq, b) ->
              if in_bats l.batches a && in_bats r.batches b then Some (a, b)
              else if in_bats l.batches b && in_bats r.batches a then Some (b, a)
              else None
            | _ -> None)
          (Pred.conjuncts pred)
    in
    (match equi_key with
     | Some (lkey, rkey) ->
       (* int-specialized build/probe is valid only when the key column is
          unboxed Ints on every batch of both sides: the tuple path keys the
          hash table on [Constant.to_string], under which [Int 1] and
          [Float 1.] do NOT collide, so numeric-coercing keys would change
          the partition. *)
       let all_ints bats key =
         bats <> []
         && List.for_all
              (fun b ->
                match Batch.find_col_opt b key with
                | Some c ->
                  (match b.Batch.cols.(c) with Batch.Ints _ -> true | _ -> false)
                | None -> false)
              bats
       in
       let candidates = ref 0 in
       let o = bout bsz in
       let emit lbi (lb : Batch.t) li matches =
         candidates := !candidates + List.length matches;
         List.iter
           (fun (rbi, ri) ->
             let cattrs, ev = pair_info lbi rbi in
             if ev li ri then bout_pair o cattrs lb li rbats.(rbi) ri)
           matches
       in
       if all_ints l.batches lkey && all_ints r.batches rkey then begin
         let tbl : (int, int * int) Hashtbl.t = Hashtbl.create r.bcount in
         Array.iteri
           (fun rbi (b : Batch.t) ->
             match b.Batch.cols.(Batch.find_col b rkey) with
             | Batch.Ints a ->
               let ix = Batch.indexer b in
               for i = 0 to b.Batch.len - 1 do
                 Hashtbl.add tbl a.(ix i) (rbi, i)
               done
             | _ -> assert false)
           rbats;
         Array.iteri
           (fun lbi (lb : Batch.t) ->
             match lb.Batch.cols.(Batch.find_col lb lkey) with
             | Batch.Ints a ->
               let ix = Batch.indexer lb in
               for li = 0 to lb.Batch.len - 1 do
                 emit lbi lb li (Hashtbl.find_all tbl a.(ix li))
               done
             | _ -> assert false)
           lbats
       end
       else begin
         let tbl : (string, int * int) Hashtbl.t = Hashtbl.create r.bcount in
         Array.iteri
           (fun rbi (b : Batch.t) ->
             let c = Batch.find_col b rkey in
             for i = 0 to b.Batch.len - 1 do
               Hashtbl.add tbl (Constant.to_string (Batch.cell b c i)) (rbi, i)
             done)
           rbats;
         Array.iteri
           (fun lbi (lb : Batch.t) ->
             let c = Batch.find_col lb lkey in
             for li = 0 to lb.Batch.len - 1 do
               emit lbi lb li
                 (Hashtbl.find_all tbl (Constant.to_string (Batch.cell lb c li)))
             done)
           lbats
       end;
       let bats, n_out, bytes = bout_done o in
       let first, total =
         hash_join_costs e ~l_first:l.bfirst ~l_total:l.btotal ~r_total:r.btotal
           ~n_left:l.bcount ~n_right:r.bcount ~candidates:!candidates ~n_out
           ~pc:(pred_cost env pred)
       in
       bres (bats, n_out, bytes) ~first ~total
     | None ->
       let o = bout bsz in
       Array.iteri
         (fun lbi (lb : Batch.t) ->
           for li = 0 to lb.Batch.len - 1 do
             Array.iteri
               (fun rbi (rb : Batch.t) ->
                 let cattrs, ev = pair_info lbi rbi in
                 for ri = 0 to rb.Batch.len - 1 do
                   if ev li ri then bout_pair o cattrs lb li rb ri
                 done)
               rbats
           done)
         lbats;
       let bats, n_out, bytes = bout_done o in
       let first, total =
         nl_join_costs e ~l_first:l.bfirst ~l_total:l.btotal ~r_first:r.bfirst
           ~r_total:r.btotal ~n_left:l.bcount ~n_right:r.bcount ~n_out
           ~pc:(pred_cost env pred)
       in
       bres (bats, n_out, bytes) ~first ~total)
  | Physical.Pindex_join { outer; table; binding; outer_attr; inner_attr; residual } ->
    let ores = exec_batch env ~bsz outer in
    let idx =
      match Table.index table inner_attr with
      | Some i -> i
      | None -> raise (Err.Plan_error ("no index on " ^ inner_attr))
    in
    let attrs = qualified_attrs table binding in
    let has_res = not (Pred.equal residual Pred.True) in
    let io = ref 0. and probes = ref 0 and fetched = ref 0 in
    let o = bout bsz in
    List.iter
      (fun (ob : Batch.t) ->
        let kol = Batch.find_col ob outer_attr in
        let cattrs = Array.append ob.Batch.attrs attrs in
        (* fetched inner rows staged per outer batch, with the outer row
           index of each staged row alongside *)
        let stage = Batch.builder ~hint:bsz attrs in
        let oix = ref (Array.make (max bsz 16) 0) and on = ref 0 in
        let push_ix li =
          if !on >= Array.length !oix then begin
            let a = Array.make (2 * Array.length !oix) 0 in
            Array.blit !oix 0 a 0 !on;
            oix := a
          end;
          !oix.(!on) <- li;
          incr on
        in
        let emit () =
          if Batch.builder_len stage > 0 then begin
            let ib = Batch.flush stage in
            let ev =
              if has_res then Some (Bpred.pair_eval ~apply ob ib residual)
              else None
            in
            for k = 0 to ib.Batch.len - 1 do
              let li = !oix.(k) in
              if (match ev with None -> true | Some f -> f li k) then
                bout_pair o cattrs ob li ib k
            done;
            on := 0
          end
        in
        for li = 0 to ob.Batch.len - 1 do
          incr probes;
          let key = Batch.cell ob kol li in
          List.iter
            (fun rid ->
              if Buffer.access env.buffer ~table:table.Table.name ~page:rid.Btree.page
              then io := !io +. e.Costs.io_ms;
              incr fetched;
              Batch.add_row stage (Table.fetch table rid);
              push_ix li;
              if Batch.builder_len stage >= bsz then emit ())
            (Btree.lookup idx key)
        done;
        emit ())
      ores.batches;
    let rc = if has_res then Some (pred_cost env residual) else None in
    let bats, n_out, bytes = bout_done o in
    let first, total =
      index_join_costs e ~o_first:ores.bfirst ~o_total:ores.btotal
        ~height:idx.Btree.height ~probes:!probes ~io:!io ~fetched:!fetched ~rc
        ~n_out
    in
    bres (bats, n_out, bytes) ~first ~total
  | Physical.Punion (left, right) ->
    let l = exec_batch env ~bsz left and r = exec_batch env ~bsz right in
    let first, total =
      union_costs e ~l_first:l.bfirst ~l_total:l.btotal ~r_first:r.bfirst
        ~r_total:r.btotal ~n_out:(l.bcount + r.bcount)
    in
    bres
      (l.batches @ r.batches, l.bcount + r.bcount, l.bbytes + r.bbytes)
      ~first ~total
  | Physical.Pdedup child ->
    let c = exec_batch env ~bsz child in
    let seen = Hashtbl.create 64 in
    let o = bout bsz in
    List.iter
      (fun (b : Batch.t) ->
        for i = 0 to b.Batch.len - 1 do
          let k = Batch.row_key b i in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            bout_from o b i
          end
        done)
      c.batches;
    let bats, n_out, bytes = bout_done o in
    let first, total = dedup_costs e ~c_total:c.btotal ~n_in:c.bcount ~n_out in
    bres (bats, n_out, bytes) ~first ~total
  | Physical.Paggregate (child, agg) ->
    let c = exec_batch env ~bsz child in
    let bats = Array.of_list c.batches in
    let nb = Array.length bats in
    let groups : (string, (int * int) * (int * int) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let order = ref [] in
    Array.iteri
      (fun bi (b : Batch.t) ->
        let gcols = List.map (fun a -> Batch.find_col b a) agg.Plan.group_by in
        for i = 0 to b.Batch.len - 1 do
          let key =
            String.concat "\x00"
              (List.map (fun ci -> Constant.to_string (Batch.cell b ci i)) gcols)
          in
          match Hashtbl.find_opt groups key with
          | Some (_, rows) -> rows := (bi, i) :: !rows
          | None ->
            Hashtbl.add groups key ((bi, i), ref [ (bi, i) ]);
            order := key :: !order
        done)
      bats;
    (* one evaluator per aggregate; group rows arrive in the same (reversed)
       accumulation order the tuple path folds over *)
    let agg_evals =
      List.map
        (fun (f, input, _) ->
          let icol = Array.make (max nb 1) (-1) in
          let getv (bi, i) =
            let ci =
              if icol.(bi) >= 0 then icol.(bi)
              else begin
                let ci = Batch.find_col bats.(bi) input in
                icol.(bi) <- ci;
                ci
              end
            in
            Batch.cell bats.(bi) ci i
          in
          fun (rows : (int * int) list) : Constant.t ->
            let nums () =
              List.filter_map (fun p -> Constant.to_float_opt (getv p)) rows
            in
            match f with
            | Plan.Count -> Constant.Int (List.length rows)
            | Plan.Sum -> Constant.Float (List.fold_left ( +. ) 0. (nums ()))
            | Plan.Avg ->
              let xs = nums () in
              if xs = [] then Constant.Null
              else
                Constant.Float
                  (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
            | Plan.Min ->
              (match rows with
               | [] -> Constant.Null
               | p0 :: _ ->
                 List.fold_left
                   (fun acc p ->
                     let v = getv p in
                     if Constant.compare v acc < 0 then v else acc)
                   (getv p0) rows)
            | Plan.Max ->
              (match rows with
               | [] -> Constant.Null
               | p0 :: _ ->
                 List.fold_left
                   (fun acc p ->
                     let v = getv p in
                     if Constant.compare v acc > 0 then v else acc)
                   (getv p0) rows))
        agg.Plan.aggs
    in
    let out_attrs =
      Array.of_list (agg.Plan.group_by @ List.map (fun (_, _, o) -> o) agg.Plan.aggs)
    in
    let o = bout bsz in
    List.iter
      (fun key ->
        let (wbi, wi), rows = Hashtbl.find groups key in
        let wb = bats.(wbi) in
        let group_vals =
          List.map
            (fun a -> Batch.cell wb (Batch.find_col wb a) wi)
            agg.Plan.group_by
        in
        let agg_vals = List.map (fun ev -> ev !rows) agg_evals in
        bout_row o out_attrs (Array.of_list (group_vals @ agg_vals)))
      (List.rev !order);
    let bats, n_out, bytes = bout_done o in
    let first, total =
      aggregate_costs e ~c_total:c.btotal ~n_in:c.bcount ~n_out
    in
    bres (bats, n_out, bytes) ~first ~total

(* --- Public API ------------------------------------------------------------ *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let resolve_mode = function Some m -> m | None -> !default_mode_ref

let run_tuple env p =
  let r, w = timed (fun () -> exec_tuple env p) in
  { r with wall_ms = w }

(* The reference engine's rows in batch form: one batch per run of rows
   sharing an attribute array ([bout] starts a new batch wherever it
   changes — a union mixes schemas in one stream). *)
let batched_of_rows (r : result) =
  let o = bout max_int in
  List.iter (fun (t : Tuple.t) -> bout_row o t.Tuple.attrs t.Tuple.values) r.rows;
  { (bres (bout_done o) ~first:r.first ~total:r.total) with bwall_ms = r.wall_ms }

let run_batched ?mode env p =
  match resolve_mode mode with
  | Tuple_at_a_time -> batched_of_rows (run_tuple env p)
  | Batched { batch_size } ->
    let br, w = timed (fun () -> exec_batch env ~bsz:(max batch_size 1) p) in
    { br with bwall_ms = w }

let rows_of_batched br = List.concat_map Batch.to_tuples br.batches

let vector_of_batched br =
  let count = float_of_int br.bcount in
  { count;
    size = float_of_int br.bbytes;
    time_first = br.bfirst;
    time_next = (br.btotal -. br.bfirst) /. Float.max count 1.;
    total_time = br.btotal;
    wall_ms = br.bwall_ms }

let run ?mode env p : result =
  match resolve_mode mode with
  | Tuple_at_a_time -> run_tuple env p
  | Batched _ as mode ->
    let br = run_batched ~mode env p in
    { rows = rows_of_batched br;
      first = br.bfirst;
      total = br.btotal;
      wall_ms = br.bwall_ms }

(* Execute and measure in one step. In batched mode the vector's count and
   size come from the incrementally-carried totals — no walk over the rows —
   and are bit-identical to the tuple path's refold because both are exact
   integer sums. *)
let measure ?mode env p : Tuple.t list * vector =
  match resolve_mode mode with
  | Tuple_at_a_time ->
    let r = run_tuple env p in
    (r.rows, vector_of_result r)
  | Batched _ as mode ->
    let br = run_batched ~mode env p in
    (rows_of_batched br, vector_of_batched br)
