(* The measuring evaluator: executes a physical plan over the simulated
   storage engine and accounts simulated time — IO through the buffer pool,
   CPU per predicate evaluation, output per produced object. The resulting
   measured cost vectors play the role of the paper's "real measurements of
   an object database system" (§5); they are also what the historical-cost
   extension feeds back into the cost model.

   Two execution engines share this module:

   - the batched engine ([exec_batch]), the production engine, which streams
     columnar {!Batch.t} chunks through the operators, reads base tables
     (full scans, index scans, index joins) as zero-copy batches or
     selection vectors over the tables' own columns, compiles predicates
     once per batch into selection masks ({!Bpred}) and carries row counts
     and byte sizes incrementally;
   - the tuple-at-a-time engine ([exec_tuple]), the original list-of-tuples
     interpreter, kept as the reference the batched engine is tested
     against. It boxes each stored row it reads ([Table.fetch]) from the
     same columns, page by page.

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
  (* Wrapper subresults land here pre-executed in their own envs, so the
     composition below never touches a wrapper. They arrive as batches;
     the reference engine reads them as tuples. *)
  | Physical.Pmaterialized { batches; count = _; first; total } ->
    mk (List.concat_map Batch.to_tuples batches) ~first ~total
  | Physical.Pscan { table; binding; access; residual } ->
    let attrs = qualified_attrs table binding in
    let has_residual = not (Pred.equal residual Pred.True) in
    let rc () = if has_residual then Some (pred_cost env residual) else None in
    (match access with
     | Physical.Full_scan ->
       let io = ref 0. and rows = ref [] and scanned = ref 0 in
       Table.iter_pages table (fun page_no lo hi ->
           if Buffer.access env.buffer ~table:table.Table.name ~page:page_no then
             io := !io +. e.Costs.io_ms;
           for pos = lo to hi - 1 do
             incr scanned;
             let t = tuple_of_row attrs (Table.fetch table pos) in
             if (not has_residual) || eval_pred env residual t then rows := t :: !rows
           done);
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
       let io = ref 0. and rows = ref [] and fetched = ref 0 in
       Btree.iter_spans idx op value (fun lo hi ->
           for o = lo to hi - 1 do
             let pos = idx.Btree.postings.(o) in
             incr fetched;
             if Buffer.access env.buffer ~table:table.Table.name
                  ~page:(Table.page_of table pos)
             then io := !io +. e.Costs.io_ms;
             let t = tuple_of_row attrs (Table.fetch table pos) in
             if (not has_residual) || eval_pred env residual t then rows := t :: !rows
           done);
       let rows = List.rev !rows in
       let fetched = float_of_int !fetched in
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
        let k = Btree.find idx (Tuple.get ot outer_attr) in
        if k >= 0 then
          for o = idx.Btree.starts.(k) to idx.Btree.starts.(k + 1) - 1 do
            let pos = idx.Btree.postings.(o) in
            if Buffer.access env.buffer ~table:table.Table.name
                 ~page:(Table.page_of table pos)
            then io := !io +. e.Costs.io_ms;
            incr fetched;
            let t = Tuple.concat ot (tuple_of_row attrs (Table.fetch table pos)) in
            if Pred.equal residual Pred.True || eval_pred env residual t then
              rows := t :: !rows
          done)
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

(* --- Composition kernels -----------------------------------------------------

   The sort, hash join and aggregate address their input batches by global
   row id ([Batch.rows]) and read keys from columns extracted once per
   input. A key column is unboxed when the key's column is unboxed the same
   way in every batch and boxed otherwise: each operator keeps one
   algorithm, and only the key column's representation varies. Outputs are
   gathered column by column ([Batch.gather]), except over a union's mixed
   schemas, which go row by row through [bout]. *)

type keycol =
  | Kints of int array
  | Kfloats of float array
  | Kboxed of Constant.t array

(* Key [name] over [bats] in row-id order ([n] rows). A batch where [name]
   does not resolve gets its exception in [bad] (and placeholder values):
   the tuple engine raises only on rows that actually reach the key. *)
let extract_key (bats : Batch.t array) n name =
  let bad = Array.make (Array.length bats) None in
  let cols =
    Array.mapi
      (fun bi b ->
        match Batch.find_col b name with
        | c -> Some c
        | exception (Err.Eval_error _ as ex) ->
          bad.(bi) <- Some ex;
          None)
      bats
  in
  let all f =
    Array.for_all2
      (fun (b : Batch.t) -> function None -> true | Some c -> f b.Batch.cols.(c))
      bats cols
  in
  (* [copy o b c] copies column [c] of batch [b] to row ids [o ..] *)
  let fill copy =
    let o = ref 0 in
    Array.iteri
      (fun bi (b : Batch.t) ->
        Option.iter (copy !o b) cols.(bi);
        o := !o + b.Batch.len)
      bats
  in
  let kc =
    if all (function Batch.Ints _ -> true | _ -> false) then begin
      let a = Array.make n 0 in
      fill (fun o b c ->
          match b.Batch.cols.(c), b.Batch.sel with
          | Batch.Ints x, None -> Array.blit x 0 a o b.Batch.len
          | Batch.Ints x, Some s -> Array.iteri (fun i p -> a.(o + i) <- x.(p)) s
          | _ -> ());
      Kints a
    end
    else if all (function Batch.Floats _ -> true | _ -> false) then begin
      let a = Array.make n 0. in
      fill (fun o b c ->
          match b.Batch.cols.(c), b.Batch.sel with
          | Batch.Floats x, None -> Array.blit x 0 a o b.Batch.len
          | Batch.Floats x, Some s -> Array.iteri (fun i p -> a.(o + i) <- x.(p)) s
          | _ -> ());
      Kfloats a
    end
    else begin
      let a = Array.make n Constant.Null in
      fill (fun o b c ->
          for i = 0 to b.Batch.len - 1 do a.(o + i) <- Batch.cell b c i done);
      Kboxed a
    end
  in
  (kc, bad)

let rec nbits x = if x = 0 then 0 else 1 + nbits (x lsr 1)

(* LSD radix sort of non-negative ints below [2^bits], 8 bits per pass;
   returns the sorted array ([a] itself or a temporary one). *)
let radix_sort (a : int array) bits =
  let n = Array.length a in
  let count = Array.make 257 0 in
  let src = ref a and dst = ref (Array.make n 0) in
  let shift = ref 0 in
  while !shift < bits do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 257 0;
    for i = 0 to n - 1 do
      let k = ((s.(i) lsr sh) land 255) + 1 in
      count.(k) <- count.(k) + 1
    done;
    (* a pass whose digit is the same for every row moves nothing *)
    if count.(((s.(0) lsr sh) land 255) + 1) < n then begin
      for k = 1 to 256 do count.(k) <- count.(k) + count.(k - 1) done;
      for i = 0 to n - 1 do
        let k = (s.(i) lsr sh) land 255 in
        d.(count.(k)) <- s.(i);
        count.(k) <- count.(k) + 1
      done;
      src := d;
      dst := s
    end;
    shift := sh + 8
  done;
  !src

(* Below this many rows a segment is merge-sorted even when radix applies:
   a radix pass clears and scans 257 counters whatever the row count. *)
let radix_min = 64

(* Stable sort of the row ids [perm.(lo)] .. [perm.(hi - 1)] by one key
   column. Int keys go through radix when the key's range and the
   segment's positions pack into 62 bits: the position breaks ties, so the
   sort is stable. Everything else is a stable merge sort whose comparator
   agrees with [Constant.compare]. *)
let sort_segment perm lo hi kc (ord : Plan.order) =
  let len = hi - lo in
  let seg = Array.sub perm lo len in
  let sorted =
    match kc with
    | Kints a when len >= radix_min ->
      let mn = ref max_int and mx = ref min_int in
      Array.iter (fun g -> let v = a.(g) in if v < !mn then mn := v; if v > !mx then mx := v) seg;
      (* a range past [max_int] wraps negative and counts 63 bits *)
      let range = !mx - !mn and pbits = nbits (len - 1) in
      if nbits range + pbits <= 62 then begin
        let mn = !mn and mx = !mx in
        let packed =
          Array.mapi
            (fun i g ->
              let v = match ord with Plan.Asc -> a.(g) - mn | Plan.Desc -> mx - a.(g) in
              (v lsl pbits) lor i)
            seg
        in
        let packed = radix_sort packed (nbits range + pbits) in
        let mask = (1 lsl pbits) - 1 in
        Array.map (fun x -> seg.(x land mask)) packed
      end
      else seg
    | _ -> seg
  in
  if sorted == seg then begin
    let sign = match ord with Plan.Asc -> 1 | Plan.Desc -> -1 in
    let cmp =
      match kc with
      | Kints a -> fun i j -> sign * Int.compare a.(i) a.(j)
      | Kfloats a -> fun i j -> sign * Float.compare a.(i) a.(j)
      | Kboxed a -> fun i j -> sign * Constant.compare a.(i) a.(j)
    in
    Array.stable_sort cmp seg
  end;
  Array.blit sorted 0 perm lo len

let key_equal kc g h =
  match kc with
  | Kints a -> a.(g) = a.(h)
  | Kfloats a -> Float.compare a.(g) a.(h) = 0
  | Kboxed a -> Constant.compare a.(g) a.(h) = 0

(* The row ids of [bats] in sorted order: stable, lexicographic over
   [keys]. Key [k + 1] is extracted only when two rows tie on keys 0..k,
   and only the rows of such ties read it — exactly the rows whose
   comparisons reach it in a comparison sort — so a sort over at most one
   row, or one whose ties never reach an unresolvable key, raises
   nothing. *)
let sort_ids (bats : Batch.t array) rows n (keys : (string * Plan.order) array) =
  let perm = Array.init n Fun.id in
  let extracted = Array.make (Array.length keys) None in
  let rec sort_from k lo hi =
    let kc, bad =
      match extracted.(k) with
      | Some x -> x
      | None ->
        let x = extract_key bats n (fst keys.(k)) in
        extracted.(k) <- Some x;
        x
    in
    if Array.exists Option.is_some bad then
      for i = lo to hi - 1 do
        match bad.(Batch.rows_batch rows perm.(i)) with Some ex -> raise ex | None -> ()
      done;
    sort_segment perm lo hi kc (snd keys.(k));
    if k + 1 < Array.length keys then begin
      let i = ref lo in
      while !i < hi do
        let j = ref (!i + 1) in
        while !j < hi && key_equal kc perm.(!i) perm.(!j) do incr j done;
        if !j - !i >= 2 then sort_from (k + 1) !i !j;
        i := !j
      done
    end
  in
  if n >= 2 && Array.length keys > 0 then sort_from 0 0 n;
  perm

let same_schemas (bats : Batch.t array) =
  Array.for_all (fun b -> Batch.same_schema bats.(0) b) bats

(* Open-addressing map from int keys to non-negative ints, linear probing,
   doubled at half load: the int-key join's key -> newest build row and the
   int-key aggregate's key -> group. Nothing is allocated per insertion or
   lookup. *)
type itbl = {
  mutable ikeys : int array;
  mutable ivals : int array;  (* -1 marks an empty slot *)
  mutable ibits : int;
  mutable isize : int;
}

let itbl () = { ikeys = Array.make 16 0; ivals = Array.make 16 (-1); ibits = 4; isize = 0 }

(* The slot holding [k], or the empty slot where it would go. *)
let itbl_slot t k =
  let mask = Array.length t.ikeys - 1 in
  let i = ref ((k * 0x9E3779B97F4A7C1) lsr (63 - t.ibits)) in
  while t.ivals.(!i) >= 0 && t.ikeys.(!i) <> k do i := (!i + 1) land mask done;
  !i

(* The value bound to [k], or -1. *)
let itbl_find t k = t.ivals.(itbl_slot t k)

(* Bind [k] to [v] at [slot] (from [itbl_slot t k]); may move every slot. *)
let itbl_set t slot k v =
  if t.ivals.(slot) >= 0 then t.ivals.(slot) <- v
  else begin
    t.ikeys.(slot) <- k;
    t.ivals.(slot) <- v;
    t.isize <- t.isize + 1;
    if 2 * t.isize > Array.length t.ikeys then begin
      let keys = t.ikeys and vals = t.ivals in
      t.ibits <- t.ibits + 1;
      t.ikeys <- Array.make (1 lsl t.ibits) 0;
      t.ivals <- Array.make (1 lsl t.ibits) (-1);
      Array.iteri
        (fun i v ->
          if v >= 0 then begin
            let j = itbl_slot t keys.(i) in
            t.ikeys.(j) <- keys.(i);
            t.ivals.(j) <- v
          end)
        vals
    end
  end

(* A growable int array: join output pairs, group witnesses, the outer
   rows of an index join's staged inner rows. *)
type ivec = { mutable iv : int array; mutable ilen : int }

let ivec cap = { iv = Array.make (max cap 1) 0; ilen = 0 }

let ipush v x =
  if v.ilen = Array.length v.iv then begin
    let a = Array.make (2 * v.ilen) 0 in
    Array.blit v.iv 0 a 0 v.ilen;
    v.iv <- a
  end;
  v.iv.(v.ilen) <- x;
  v.ilen <- v.ilen + 1

(* [name]'s column in every batch is unboxed [Ints]. *)
let all_ints (bats : Batch.t array) name =
  Array.for_all
    (fun b ->
      match Batch.find_col_opt b name with
      | Some c -> (match b.Batch.cols.(c) with Batch.Ints _ -> true | _ -> false)
      | None -> false)
    bats

(* [name] occurs exactly once in [attrs], at an index within [lo, hi). *)
let exact_once attrs name ~lo ~hi =
  let hits = ref 0 and at = ref (-1) in
  Array.iteri (fun i a -> if String.equal a name then (incr hits; at := i)) attrs;
  !hits = 1 && !at >= lo && !at < hi

(* How [chain_build] finds a key's newest build row: the [itbl] itself for
   int keys, read straight off a probe batch's key column; otherwise
   [lookup b c i], the rendered value of row [i] of [b]'s column [c]. *)
type chain_keys =
  | Int_keys of itbl
  | Rendered of (Batch.t -> int -> int -> int)

(* Chain the rows of [bats] (ids [0 .. n-1]) by key [name], newest first:
   [next.(g)] is the previous row with [g]'s key, or -1. Int keys go
   through an [itbl], other keys through their rendered value. *)
let chain_build ~int_keys (bats : Batch.t array) n name =
  let next = Array.make n (-1) in
  let g = ref 0 in
  let keys =
    if int_keys then begin
      let tbl = itbl () in
      Array.iter
        (fun (b : Batch.t) ->
          match b.Batch.cols.(Batch.find_col b name) with
          | Batch.Ints a ->
            let ix = Batch.indexer b in
            for i = 0 to b.Batch.len - 1 do
              let k = a.(ix i) in
              let slot = itbl_slot tbl k in
              next.(!g) <- tbl.ivals.(slot);
              itbl_set tbl slot k !g;
              incr g
            done
          | _ -> assert false)
        bats;
      Int_keys tbl
    end
    else begin
      let tbl : (string, int) Hashtbl.t = Hashtbl.create n in
      let find k = match Hashtbl.find tbl k with h -> h | exception Not_found -> -1 in
      Array.iter
        (fun (b : Batch.t) ->
          let c = Batch.find_col b name in
          for i = 0 to b.Batch.len - 1 do
            let k = Constant.to_string (Batch.cell b c i) in
            next.(!g) <- find k;
            Hashtbl.replace tbl k !g;
            incr g
          done)
        bats;
      Rendered (fun b c i -> find (Constant.to_string (Batch.cell b c i)))
    end
  in
  (next, keys)

(* Walk the chain of every row of [bats] (ids [0 .. n-1]; last row first
   when [rev]), calling [f probe_id chained_id] per candidate. Int keys are
   read from the key column, dense or through the selection vector, and
   looked up in place: a probe row that matches nothing costs no call. *)
let probe_chains ~rev (bats : Batch.t array) n name (next, keys) f =
  let nb = Array.length bats in
  let o = ref (if rev then n else 0) in
  for k = 0 to nb - 1 do
    let b = bats.(if rev then nb - 1 - k else k) in
    let len = b.Batch.len in
    if rev then o := !o - len;
    let c = Batch.find_col b name in
    (* row [i] of the batch, [j]-th in probe order *)
    let first = if rev then len - 1 else 0 and step = if rev then -1 else 1 in
    let chain i g0 =
      let g = ref g0 in
      while !g >= 0 do
        f (!o + i) !g;
        g := next.(!g)
      done
    in
    (match keys, b.Batch.cols.(c), b.Batch.sel with
     | Int_keys tbl, Batch.Ints a, None ->
       for j = 0 to len - 1 do
         let i = first + (step * j) in
         let g = itbl_find tbl (Array.unsafe_get a i) in
         if g >= 0 then chain i g
       done
     | Int_keys tbl, Batch.Ints a, Some s ->
       for j = 0 to len - 1 do
         let i = first + (step * j) in
         let g = itbl_find tbl (Array.unsafe_get a (Array.unsafe_get s i)) in
         if g >= 0 then chain i g
       done
     | Int_keys _, _, _ -> assert false
     | Rendered lookup, _, _ ->
       for j = 0 to len - 1 do
         let i = first + (step * j) in
         chain i (lookup b c i)
       done);
    if not rev then o := !o + len
  done

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
    (* the residual goes through a selection mask; [filter] narrows the
       input's selection vector, so kept rows still share the table's
       columns *)
    let push (b : Batch.t) =
      if has_residual then begin
        let m, keep = Bpred.mask ~apply b residual in
        if keep > 0 then bpush acc (Batch.filter b m ~keep)
      end
      else bpush acc b
    in
    let rc () = if has_residual then Some (pred_cost env residual) else None in
    (match access with
     | Physical.Full_scan ->
       (* pages are visited one by one so the buffer-pool accesses — and
          hence the charged I/O — are exactly the tuple engine's, but the
          emitted batch is the table's columns, zero-copy (and a residual
          needs just one mask over them, no per-row staging). Row order is
          storage order either way. *)
       let io = ref 0. and scanned = ref 0 in
       Table.iter_pages table (fun page_no lo hi ->
           if Buffer.access env.buffer ~table:table.Table.name ~page:page_no then
             io := !io +. e.Costs.io_ms;
           scanned := !scanned + (hi - lo));
       if Table.count table > 0 then push (Batch.of_table attrs table);
       let first, total = full_scan_costs e ~io:!io ~scanned:!scanned ~rc:(rc ()) in
       bres_of_acc acc ~first ~total
     | Physical.Index_scan { attr; op; value } ->
       (* postings in index order, each one's page accessed in that order
          (the reference engine's access sequence), picked out of the
          table's columns [bsz] at a time as selection vectors: no row is
          copied *)
       let idx =
         match Table.index table attr with
         | Some i -> i
         | None -> raise (Err.Plan_error ("no index on " ^ attr))
       in
       let stored = Batch.of_table attrs table in
       let postings = idx.Btree.postings in
       let fetched = Btree.count idx op value in
       let io = ref 0. and left = ref fetched and k = ref 0 in
       let sel = ref (Array.make (min bsz fetched) 0) in
       let name = table.Table.name and per_page = table.Table.per_page in
       Btree.iter_spans idx op value (fun lo hi ->
           for o = lo to hi - 1 do
             let pos = postings.(o) in
             if Buffer.access env.buffer ~table:name ~page:(pos / per_page) then
               io := !io +. e.Costs.io_ms;
             !sel.(!k) <- pos;
             incr k;
             if !k = Array.length !sel then begin
               push (Batch.pick stored !sel);
               left := !left - !k;
               k := 0;
               sel := Array.make (min bsz !left) 0
             end
           done);
       let first, total =
         index_scan_costs e ~height:idx.Btree.height ~io:!io
           ~fetched:(float_of_int fetched) ~rc:(rc ())
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
    let rows = Batch.rows bats in
    let perm = sort_ids bats rows c.bcount (Array.of_list keys) in
    let first, total = sort_costs e ~c_total:c.btotal ~n:c.bcount in
    if c.bcount > 0 && same_schemas bats then begin
      let acc = bacc () in
      let lo = ref 0 in
      while !lo < c.bcount do
        let len = min bsz (c.bcount - !lo) in
        bpush acc (Batch.gather rows perm !lo len);
        lo := !lo + len
      done;
      bres_of_acc acc ~first ~total
    end
    else begin
      let o = bout bsz in
      Array.iter
        (fun g -> bout_from o bats.(Batch.rows_batch rows g) (Batch.rows_row rows g))
        perm;
      bres (bout_done o) ~first ~total
    end
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
       (* Candidates are the (left, right) pairs with equal keys, taken in
          the tuple path's order: left rows in input order, each one's
          matches newest build row first ([Hashtbl.find_all]'s order). Int
          keys are valid only when the key column is unboxed Ints in every
          batch of both sides: the tuple path keys on [Constant.to_string],
          under which [Int 1] and [Float 1.] do NOT collide, so
          numeric-coercing keys would change the partition. *)
       let int_keys = all_ints lbats lkey && all_ints rbats rkey in
       let lrows = Batch.rows lbats and rrows = Batch.rows rbats in
       let single = same_schemas lbats && same_schemas rbats in
       let cattrs = Array.append lbats.(0).Batch.attrs rbats.(0).Batch.attrs in
       let lw = Array.length lbats.(0).Batch.attrs in
       (* a bare equi conjunct over int keys holds for every candidate when
          both names resolve exactly, once, to the key columns *)
       let recheck =
         not
           (int_keys && single
           && (match pred with Pred.Attr_cmp (_, Pred.Eq, _) -> true | _ -> false)
           && exact_once cattrs lkey ~lo:0 ~hi:lw
           && exact_once cattrs rkey ~lo:lw ~hi:(Array.length cattrs))
       in
       let candidates = ref 0 in
       (* same schemas: kept pairs as row ids, gathered every [bsz] pairs;
          a union's mixed schemas: row by row *)
       let acc = bacc () and o = bout bsz in
       let lids = ivec (min bsz 64) and rids = ivec (min bsz 64) in
       let flush () =
         if lids.ilen > 0 then begin
           bpush acc (Batch.gather_pairs cattrs lrows lids.iv rrows rids.iv 0 lids.ilen);
           lids.ilen <- 0;
           rids.ilen <- 0
         end
       in
       let li = Batch.rows_row lrows and ri = Batch.rows_row rrows in
       let candidate lg rg =
         incr candidates;
         let lbi = Batch.rows_batch lrows lg and rbi = Batch.rows_batch rrows rg in
         if (not recheck) || (snd (pair_info lbi rbi)) (li lg) (ri rg) then
           if single then begin
             ipush lids lg;
             ipush rids rg;
             if lids.ilen >= bsz then flush ()
           end
           else bout_pair o (fst (pair_info lbi rbi)) lbats.(lbi) (li lg) rbats.(rbi) (ri rg)
       in
       if r.bcount <= l.bcount then
         probe_chains ~rev:false lbats l.bcount lkey
           (chain_build ~int_keys rbats r.bcount rkey)
           candidate
       else begin
         (* build on the smaller left side, probe right rows last first,
            and restore the order by a stable counting sort on the left
            row: per left row, right rows come out newest first *)
         let cl = ivec 64 and cr = ivec 64 in
         probe_chains ~rev:true rbats r.bcount rkey
           (chain_build ~int_keys lbats l.bcount lkey)
           (fun rg lg -> ipush cl lg; ipush cr rg);
         let start = Array.make (l.bcount + 1) 0 in
         for k = 0 to cl.ilen - 1 do
           start.(cl.iv.(k) + 1) <- start.(cl.iv.(k) + 1) + 1
         done;
         for g = 1 to l.bcount do start.(g) <- start.(g) + start.(g - 1) done;
         let sorted = Array.make cl.ilen 0 in
         for k = 0 to cl.ilen - 1 do
           let lg = cl.iv.(k) in
           sorted.(start.(lg)) <- cr.iv.(k);
           start.(lg) <- start.(lg) + 1
         done;
         (* [start.(g)] now ends left row [g]'s run *)
         let k = ref 0 in
         for lg = 0 to l.bcount - 1 do
           while !k < start.(lg) do
             candidate lg sorted.(!k);
             incr k
           done
         done
       end;
       flush ();
       let bats, n_out, bytes =
         if single then (bdone acc, acc.acount, acc.abytes) else bout_done o
       in
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
    (* inner rows are table positions: pairs are evaluated and gathered
       straight from the table's columns *)
    let stored = Batch.of_table attrs table in
    let inner = Batch.rows [| stored |] in
    let starts = idx.Btree.starts and postings = idx.Btree.postings in
    let name = table.Table.name and per_page = table.Table.per_page in
    let io = ref 0. and probes = ref 0 and fetched = ref 0 in
    let acc = bacc () in
    let oids = ivec (min bsz 64) and pids = ivec (min bsz 64) in
    (* kept (outer row id, inner position) pairs over a run of outer batches
       sharing one schema, gathered column by column every [bsz] pairs *)
    let join_run (bats : Batch.t array) =
      let orows = Batch.rows bats in
      let cattrs = Array.append bats.(0).Batch.attrs attrs in
      let flush () =
        if oids.ilen > 0 then begin
          bpush acc (Batch.gather_pairs cattrs orows oids.iv inner pids.iv 0 oids.ilen);
          oids.ilen <- 0;
          pids.ilen <- 0
        end
      in
      let g = ref 0 in
      Array.iter
        (fun (ob : Batch.t) ->
          (* compiled on the first fetched pair: the reference evaluates
             the residual only once a pair exists *)
          let ev = lazy (Bpred.pair_eval ~apply ob stored residual) in
          let ix = Batch.indexer ob in
          let find =
            match ob.Batch.cols.(Batch.find_col ob outer_attr) with
            | Batch.Ints a -> fun li -> Btree.find_int idx a.(ix li)
            | Batch.Floats a -> fun li -> Btree.find_float idx a.(ix li)
            | Batch.Boxed a -> fun li -> Btree.find idx a.(ix li)
          in
          for li = 0 to ob.Batch.len - 1 do
            incr probes;
            let k = find li in
            if k >= 0 then
              for o = starts.(k) to starts.(k + 1) - 1 do
                let pos = postings.(o) in
                if Buffer.access env.buffer ~table:name ~page:(pos / per_page) then
                  io := !io +. e.Costs.io_ms;
                incr fetched;
                if (not has_res) || (Lazy.force ev) li pos then begin
                  ipush oids (!g + li);
                  ipush pids pos;
                  if oids.ilen >= bsz then flush ()
                end
              done
          done;
          g := !g + ob.Batch.len)
        bats;
      flush ()
    in
    let obats = Array.of_list ores.batches in
    let i = ref 0 in
    while !i < Array.length obats do
      let j = ref (!i + 1) in
      while !j < Array.length obats && Batch.same_schema obats.(!i) obats.(!j) do
        incr j
      done;
      join_run (Array.sub obats !i (!j - !i));
      i := !j
    done;
    let rc = if has_res then Some (pred_cost env residual) else None in
    let first, total =
      index_join_costs e ~o_first:ores.bfirst ~o_total:ores.btotal
        ~height:idx.Btree.height ~probes:!probes ~io:!io ~fetched:!fetched ~rc
        ~n_out:acc.acount
    in
    bres_of_acc acc ~first ~total
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
    (* each row id's group, groups numbered in first-seen order; a group's
       witness is its first row (batch, logical row) *)
    let gid = Array.make c.bcount 0 in
    let wbat = ivec 16 and wrow = ivec 16 in
    let gcols = Array.map (fun b -> List.map (Batch.find_col b) agg.Plan.group_by) bats in
    (* [group lookup] numbers every row id's group; [lookup bi b] is batch
       [bi]'s row -> group function, which opens groups through [fresh] *)
    let fresh bi i =
      ipush wbat bi;
      ipush wrow i;
      wbat.ilen - 1
    in
    let group lookup =
      let g = ref 0 in
      Array.iteri
        (fun bi (b : Batch.t) ->
          let find = lookup bi b in
          for i = 0 to b.Batch.len - 1 do
            gid.(!g) <- find i;
            incr g
          done)
        bats
    in
    (match agg.Plan.group_by with
     | [ _ ]
       when Array.for_all2
              (fun (b : Batch.t) cs ->
                match b.Batch.cols.(List.hd cs) with Batch.Ints _ -> true | _ -> false)
              bats gcols ->
       (* a single unboxed Int key: its rendering is injective, so int keys
          partition exactly as the rendered keys do *)
       let tbl = itbl () in
       group (fun bi b ->
           match b.Batch.cols.(List.hd gcols.(bi)) with
           | Batch.Ints a ->
             let ix = Batch.indexer b in
             fun i ->
               let k = a.(ix i) in
               let slot = itbl_slot tbl k in
               let v = tbl.ivals.(slot) in
               if v >= 0 then v
               else begin
                 let v = fresh bi i in
                 itbl_set tbl slot k v;
                 v
               end
           | _ -> assert false)
     | _ ->
       (* groups are keyed by the rendered values: [Int 1] and [Float 1.]
          stay apart *)
       let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
       group (fun bi b i ->
           let key =
             String.concat "\x00"
               (List.map (fun ci -> Constant.to_string (Batch.cell b ci i)) gcols.(bi))
           in
           match Hashtbl.find tbl key with
           | v -> v
           | exception Not_found ->
             let v = fresh bi i in
             Hashtbl.add tbl key v;
             v));
    let ng = wbat.ilen in
    (* Every aggregate folds each group's rows newest first, as the tuple
       path folds its reversed row lists: row ids are visited from last to
       first, so sums and averages keep their bits. [visit input f] calls
       [f group column physical_row] over the aggregate's input column. *)
    let visit input f =
      let g = ref c.bcount in
      for bi = Array.length bats - 1 downto 0 do
        let b = bats.(bi) in
        let col = b.Batch.cols.(Batch.find_col b input) and ix = Batch.indexer b in
        for i = b.Batch.len - 1 downto 0 do
          decr g;
          f gid.(!g) col (ix i)
        done
      done
    in
    let counts = Array.make ng 0 in
    Array.iter (fun k -> counts.(k) <- counts.(k) + 1) gid;
    let agg_vals =
      List.map
        (fun (f, input, _) ->
          match f with
          | Plan.Count -> Array.map (fun n -> Constant.Int n) counts
          | Plan.Sum | Plan.Avg ->
            let sum = Array.make ng 0. and nums = Array.make ng 0 in
            let add k x =
              sum.(k) <- sum.(k) +. x;
              nums.(k) <- nums.(k) + 1
            in
            visit input (fun k col p ->
                match col with
                | Batch.Ints a -> add k (float_of_int a.(p))
                | Batch.Floats a -> add k a.(p)
                | Batch.Boxed a -> Option.iter (add k) (Constant.to_float_opt a.(p)));
            Array.mapi
              (fun k s ->
                match f with
                | Plan.Sum -> Constant.Float s
                | _ ->
                  if nums.(k) = 0 then Constant.Null
                  else Constant.Float (s /. float_of_int nums.(k)))
              sum
          | Plan.Min | Plan.Max ->
            let best = Array.make ng Constant.Null and seen = Array.make ng false in
            visit input (fun k col p ->
                let v =
                  match col with
                  | Batch.Ints a -> Constant.Int a.(p)
                  | Batch.Floats a -> Constant.Float a.(p)
                  | Batch.Boxed a -> a.(p)
                in
                if (not seen.(k))
                   || (let r = Constant.compare v best.(k) in
                       match f with Plan.Min -> r < 0 | _ -> r > 0)
                then begin
                  best.(k) <- v;
                  seen.(k) <- true
                end);
            best)
        agg.Plan.aggs
    in
    let out_attrs =
      Array.of_list (agg.Plan.group_by @ List.map (fun (_, _, o) -> o) agg.Plan.aggs)
    in
    let o = bout bsz in
    for k = 0 to ng - 1 do
      let wb = bats.(wbat.iv.(k)) and wi = wrow.iv.(k) in
      let group_vals = List.map (fun a -> Batch.cell wb (Batch.find_col wb a) wi) agg.Plan.group_by in
      bout_row o out_attrs (Array.of_list (group_vals @ List.map (fun vals -> vals.(k)) agg_vals))
    done;
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

(* The first [limit] rows (all by default), boxed from the last row of the
   last batch they reach back to the first row of the first batch: each
   row is consed once, and rows past the limit are not boxed. *)
let rows_of_batched ?(limit = max_int) br =
  let rec reach acc left = function
    | b :: rest when left > 0 ->
      let n = min left (Batch.length b) in
      reach ((b, n) :: acc) (left - n) rest
    | _ -> acc
  in
  List.fold_left
    (fun rows (b, n) -> Batch.rows_onto b n rows)
    [] (reach [] limit br.batches)

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
let measure ?mode ?limit env p : Tuple.t list * vector =
  match resolve_mode mode with
  | Tuple_at_a_time ->
    let r = run_tuple env p in
    let rows =
      match limit with Some n -> List.filteri (fun i _ -> i < n) r.rows | None -> r.rows
    in
    (rows, vector_of_result r)
  | Batched _ as mode ->
    let br = run_batched ~mode env p in
    (rows_of_batched ?limit br, vector_of_batched br)
