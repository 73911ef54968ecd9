(* One benchmark run: one workload, one seed, tracing off (the end-to-end
   metrics) or on (the per-layer metrics).

   Every run first takes its expected answers from a reference path (plan
   cache off, tuple-at-a-time engine), then warms the system with one pass
   over the corpus, then measures. All load is closed-loop from one client,
   or from two clients against the in-process server, except the open-loop
   phase of serve-feedback. *)

open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_mediator

type metric = { name : string; value : float; unit_ : string; note : string }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  kernels : float list;  (** calibration kernel times of the run, ms *)
}

let now = Unix.gettimeofday
let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* Failures are counted, and the first few are described on stderr. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 5 then prerr_endline ("perfbench: " ^ msg))
    fmt

let short sql = if String.length sql <= 60 then sql else String.sub sql 0 60 ^ "..."

(* A closed-loop round: [n] queries in [ms] wall ms, after a kernel run of
   [kernel] ms. *)
type round = { n : int; ms : float; kernel : float }

(* Set-up times (s), and the mean of the kernel runs just before and after
   them. *)
type setups = { times : float list; kernel_around : float }

(* Set up at least three times, and until set-up (tear-down included) has
   taken a twentieth of the run, 100 times at most; the last instance is
   kept. Millisecond set-ups need the many repetitions for a steady
   median. *)
let timed_setups ?(teardown = ignore) ~seconds build =
  let before = Calib.measure () in
  let start = now () in
  let rec go times prev =
    Option.iter teardown prev;
    Gc.full_major ();
    let t0 = now () in
    let x = build () in
    let times = (now () -. t0) :: times in
    let n = List.length times in
    if n >= 3 && (n >= 100 || now () -. start >= seconds /. 20.) then (x, times)
    else go times (Some x)
  in
  let x, times = go [] None in
  (x, { times; kernel_around = (before +. Calib.measure ()) /. 2. })

(* The expected answer of every distinct query, from the reference path. *)
let oracle (w : Workload.t) med =
  let med = Option.value ~default:med (w.Workload.reference ()) in
  let cache = Mediator.cache_enabled med and mode = Run.default_mode () in
  Mediator.set_cache_enabled med false;
  Run.set_default_mode Run.Tuple_at_a_time;
  Fun.protect
    ~finally:(fun () ->
      Mediator.set_cache_enabled med cache;
      Run.set_default_mode mode)
    (fun () ->
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun sql ->
          if not (Hashtbl.mem tbl sql) then
            Hashtbl.replace tbl sql
              (Answer.expect sql (Mediator.run_query med sql).Mediator.rows))
        w.Workload.corpus;
      tbl)

let qerror ~est ~measured =
  if est > 0. && measured > 0. then Some (Float.max (est /. measured) (measured /. est))
  else None

(* The largest live heap seen after a full collection. The process's peak
   heap size follows the collector's pacing as much as the program: it
   varied from 181 to 312 MB over ten runs of serve-feedback. *)
let heap_peak_mb = ref 0.

let collect () =
  let live = (Gc.stat ()).Gc.live_words in
  heap_peak_mb := Float.max !heap_peak_mb (float_of_int (live * (Sys.word_size / 8)) /. 1e6)

(* Before every round: collect, then time the calibration kernel. *)
let before_round () =
  collect ();
  Calib.measure ()

(* Closed-loop rounds measure the same work on every commit: as many as
   [budget] seconds hold on the reference host. *)
let rounds (w : Workload.t) ~budget = max 1 (truncate (budget /. w.Workload.round_s))

(* Wall-clock figures are reported on the reference host's clock: a time
   measured next to a kernel run of [kernel] ms is scaled by
   [Calib.ref_ms / kernel]. The raw figure is printed beside it. *)
let scaled ~kernel ms = ms *. Calib.ref_ms /. kernel

(* A latency percentile over [windows] of (scaled ms, raw ms) samples: the
   percentile of each window, and the median over windows. The open loop
   reports one-second windows, so that a stall of the shared host in one
   window does not decide the run; a closed loop reports one window. *)
let latency name p windows =
  let per f = List.map (fun w -> Stats.percentile p (List.map f w)) windows in
  let value pcs = Stats.median (List.map (fun c -> c.Stats.value) pcs) in
  let pcs = per fst in
  let beyond = List.fold_left (fun acc c -> min acc c.Stats.beyond) max_int pcs in
  metric name "ms" (value pcs)
    ~note:
      (Printf.sprintf "raw %.4g; n=%d in %d window(s), >=%d beyond each%s" (value (per snd))
         (List.fold_left (fun acc c -> acc + c.Stats.samples) 0 pcs)
         (List.length pcs) beyond
         (if List.for_all Stats.supported pcs then "" else " (fewer than 10: not supported)"))

(* The end-to-end metrics, from the rounds (throughput), the latency
   windows, the set-up times, and the answered queries' (estimated,
   simulated) TotalTime. *)
let end_to_end ~rounds ~latencies ~answered ~setups ~attempted ~failed =
  let qps scale = Stats.median (List.map (fun r -> 1000. *. float_of_int r.n /. scale r) rounds) in
  let qerrors = List.filter_map (fun (est, measured) -> qerror ~est ~measured) answered in
  let setup = Stats.median setups.times in
  collect ();
  [ metric "qps" "queries/s"
      (qps (fun r -> scaled ~kernel:r.kernel r.ms))
      ~note:
        (Printf.sprintf "raw %.4g; median of %d rounds" (qps (fun r -> r.ms)) (List.length rounds));
    latency "latency_p50_ms" 0.5 latencies;
    latency "latency_p95_ms" 0.95 latencies;
    metric "sim_ms_per_query" "ms" (Stats.mean (List.map snd answered))
      ~note:(Printf.sprintf "simulated, %d answers" (List.length answered));
    metric "est_qerror_p50" "ratio" (Stats.median qerrors)
      ~note:(Printf.sprintf "n=%d" (List.length qerrors));
    metric "failed_share" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
      ~note:(Printf.sprintf "%d of %d" failed attempted);
    metric "setup_s" "s"
      (scaled ~kernel:setups.kernel_around setup)
      ~note:(Printf.sprintf "raw %.4g; median of %d set-ups" setup (List.length setups.times));
    metric "heap_peak_mb" "MB" !heap_peak_mb ~note:"largest live heap after a collection" ]

(* --- tracing off: in-process workloads ------------------------------------- *)

let in_process (w : Workload.t) ~seed ~seconds =
  let (med, _), setups = timed_setups ~seconds w.Workload.build in
  let expected = oracle w med in
  let attempted = ref 0 and answered = ref [] in
  let query sql =
    incr attempted;
    let t0 = now () in
    match Mediator.run_query ~verify:true med sql with
    | a ->
      let ms = 1000. *. (now () -. t0) in
      if Answer.matches (Hashtbl.find expected sql) a.Mediator.rows then
        answered :=
          (Estimator.total_time a.Mediator.estimate, a.Mediator.measured.Run.total_time)
          :: !answered
      else fail "wrong answer: %s" (short sql);
      ms
    | exception e ->
      fail "%s: %s" (short sql) (Printexc.to_string e);
      1000. *. (now () -. t0)
  in
  Array.iter (fun sql -> ignore (query sql)) w.Workload.corpus;
  answered := [];
  let latencies = ref [] and rs = ref [] in
  for round = 0 to rounds w ~budget:seconds - 1 do
    let kernel = before_round () in
    let queries = Workload.round_queries w ~seed ~round in
    let ms =
      Array.fold_left
        (fun acc sql ->
          let ms = query sql in
          latencies := (scaled ~kernel ms, ms) :: !latencies;
          acc +. ms)
        0. queries
    in
    rs := { n = Array.length queries; ms; kernel } :: !rs
  done;
  { attempted = !attempted;
    failed = !failures;
    metrics =
      end_to_end ~rounds:!rs ~latencies:[ !latencies ] ~answered:!answered ~setups
        ~attempted:!attempted ~failed:!failures;
    kernels = List.map (fun r -> r.kernel) !rs }

(* --- served: serve-feedback, and the server pass of every traced run ------- *)

let open_loop_rate = 250.

(* An endless stream of the workload's rounds, for the open loop; its
   rounds are numbered from 1 000 000 so their orders differ from the
   closed-loop rounds'. *)
let query_stream (w : Workload.t) ~seed =
  let round = ref 0 and pos = ref 0 in
  let current = ref (Workload.round_queries w ~seed ~round:(1_000_000 + !round)) in
  fun () ->
    if !pos = Array.length !current then begin
      incr round;
      pos := 0;
      current := Workload.round_queries w ~seed ~round:(1_000_000 + !round)
    end;
    incr pos;
    !current.(!pos - 1)

let check_reply expected r =
  let c = Serve.check expected r in
  if not c.Serve.ok then
    fail "served query failed: %s: %s" (short r.Serve.sql)
      (match r.Serve.response with
       | Ok j -> short (Disco_server.Json.to_string j)
       | Error e -> e);
  c

(* Phase A is a fixed number of closed-loop rounds, not a time budget:
   every query writes history, so the work done, and the heap it leaves,
   must not depend on the rate. Phase B is the open loop at a fixed rate,
   in one-second windows, each after its own kernel run. *)
let served (w : Workload.t) ~seed ~seconds =
  let ((med, _), srv), setups =
    timed_setups ~seconds
      ~teardown:(fun (_, srv) -> Serve.stop srv)
      (fun () ->
        let m = w.Workload.build () in
        (m, Serve.start (fst m)))
  in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let expected = oracle w med in
      let check replies = List.map (check_reply expected) replies in
      let warm = check (fst (Serve.closed_round srv w.Workload.corpus)) in
      let rs = ref [] and closed = ref warm in
      for round = 0 to rounds w ~budget:(0.4 *. seconds) - 1 do
        let kernel = before_round () in
        let queries = Workload.round_queries w ~seed ~round in
        let replies, wall = Serve.closed_round srv queries in
        rs := { n = Array.length queries; ms = 1000. *. wall; kernel } :: !rs;
        closed := List.rev_append (check replies) !closed
      done;
      let st = Workload.rng seed 17 and next_sql = query_stream w ~seed in
      let windows =
        List.init (max 1 (truncate (0.6 *. seconds))) (fun _ ->
            let kernel = before_round () in
            ( kernel,
              Serve.open_loop srv ~st ~rate:open_loop_rate ~seconds:1. ~next_sql
                ~check:(check_reply expected) ))
      in
      let opened = List.concat_map snd windows in
      let all = !closed @ opened in
      let answered =
        List.filter_map
          (fun c -> if c.Serve.ok then Some (c.Serve.estimated_ms, c.Serve.measured_ms) else None)
          all
      in
      let attempted = List.length all in
      { attempted;
        failed = !failures;
        metrics =
          end_to_end ~rounds:!rs
            ~latencies:
              (List.map
                 (fun (kernel, cs) ->
                   List.map (fun c -> (scaled ~kernel c.Serve.latency_ms, c.Serve.latency_ms)) cs)
                 windows)
            ~answered ~setups ~attempted ~failed:!failures;
        kernels = List.map fst windows @ List.map (fun r -> r.kernel) !rs })

(* The server from outside, over a warm mediator: one closed-loop pass over
   the corpus, then an open loop at half the rate that pass sustained
   (serve-feedback: its own open-loop rate). Returns the checked replies of
   both and the rate. *)
let server_pass (w : Workload.t) ~seed ~seconds ~expected med =
  let srv = Serve.start med in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let replies, wall = Serve.closed_round srv w.Workload.corpus in
      let rate =
        if w.Workload.served then open_loop_rate
        else 0.5 *. float_of_int (List.length replies) /. wall
      in
      let closed = List.map (check_reply expected) replies in
      ( closed,
        Serve.open_loop srv ~st:(Workload.rng seed 19) ~rate
          ~seconds:(Float.max 0.5 (0.3 *. seconds))
          ~next_sql:(query_stream w ~seed) ~check:(check_reply expected),
        rate ))

(* --- tracing on ---------------------------------------------------------- *)

let rec submits = function
  | Disco_algebra.Plan.Submit _ -> 1
  | p -> List.fold_left (fun acc c -> acc + submits c) 0 (Disco_algebra.Plan.children p)

let rec materialized_rows = function
  | Physical.Pmaterialized { count; _ } -> count
  | Physical.Pscan _ -> 0
  | Physical.Pfilter (c, _) | Physical.Pproject (c, _) | Physical.Psort (c, _)
  | Physical.Pdedup c | Physical.Paggregate (c, _) ->
    materialized_rows c
  | Physical.Pindex_join { outer; _ } -> materialized_rows outer
  | Physical.Pnested_join (l, r, _) | Physical.Punion (l, r) ->
    materialized_rows l + materialized_rows r

(* Model-side counters of one mediator, read before and after each query. *)
type counters = {
  opt : Optimizer.stats;
  cache : Plancache.counters;
  generation : int;
  records : int;
  buf_hits : int;
  buf_misses : int;
}

let counters med wrappers =
  let sum f = List.fold_left (fun acc w -> acc + f w.Wrapper.buffer) 0 wrappers in
  { opt = Mediator.optimizer_stats med;
    cache = Plancache.counters (Mediator.plancache med);
    generation = Registry.generation (Mediator.registry med);
    records = List.length (History.records (Mediator.history med));
    buf_hits = sum Disco_storage.Buffer.hits;
    buf_misses = sum Disco_storage.Buffer.misses }

let deltas c0 c1 =
  let d f = float_of_int (f c1 - f c0) in
  [ ("optimizer.plans_considered", d (fun c -> c.opt.Optimizer.plans_considered));
    ("optimizer.formula_evals", d (fun c -> c.opt.Optimizer.formula_evals));
    ("optimizer.csg_cmp_pairs", d (fun c -> c.opt.Optimizer.csg_cmp_pairs));
    ("optimizer.dp_entries", d (fun c -> c.opt.Optimizer.dp_entries));
    ("plancache.hits", d (fun c -> c.cache.Plancache.hits));
    ("plancache.misses", d (fun c -> c.cache.Plancache.misses));
    ("plancache.stale_per_query", d (fun c -> c.cache.Plancache.stale));
    ("plancache.evictions_per_query", d (fun c -> c.cache.Plancache.evictions));
    ("registry.generation_bumps", d (fun c -> c.generation));
    ("history.records", d (fun c -> c.records));
    ("storage.buffer_hits", d (fun c -> c.buf_hits));
    ("storage.page_misses", d (fun c -> c.buf_misses)) ]

let bits = Int64.bits_of_float

(* The traced replica runs on twin [b]; [Mediator.run_query] runs the same
   queries on twin [a], timed without tracing, and every query's plan, row
   digest and simulated TotalTime bits must agree. For serve-feedback both
   twins alternate between two tenants' histories, as the server does. *)
let traced (w : Workload.t) ~seed ~seconds ~trace_out =
  let a, _ = w.Workload.build () and b, wrappers_b = w.Workload.build () in
  let expected = oracle w a in
  if w.Workload.reference () = None then begin
    (* the oracle ran on [a]; put [b] through the same calls *)
    let again = oracle w b in
    Hashtbl.iter
      (fun sql e ->
        if (Hashtbl.find again sql).Answer.digest <> e.Answer.digest then
          fail "reference answers differ between twins: %s" (short sql))
      expected
  end;
  let tenants med = Array.init Serve.clients (fun _ -> Mediator.fresh_history med) in
  let tenants_a = tenants a and tenants_b = tenants b in
  let tr = Trace.create () in
  let rep = Trace.replica b in
  let warm = Array.length w.Workload.corpus in
  let untraced_ms = ref [] in
  let sums = Hashtbl.create 16 in
  let add k x = Hashtbl.replace sums k (x +. Option.value ~default:0. (Hashtbl.find_opt sums k)) in
  let step sql =
    tr.Trace.query <- tr.Trace.query + 1;
    let q = tr.Trace.query in
    if w.Workload.served then begin
      Mediator.set_history a tenants_a.(q mod Serve.clients);
      Mediator.set_history b tenants_b.(q mod Serve.clients)
    end;
    let c0 = counters b wrappers_b in
    let replica = try Ok (Trace.run tr rep sql) with e -> Error e in
    let c1 = counters b wrappers_b in
    let t0 = now () in
    let reference = try Ok (Mediator.run_query ~verify:true a sql) with e -> Error e in
    let ms = 1000. *. (now () -. t0) in
    match (replica, reference) with
    | Ok r, Ok ans ->
      if
        Disco_algebra.Plan.to_string r.Trace.plan <> Disco_algebra.Plan.to_string ans.Mediator.plan
        || Answer.digest r.Trace.rows <> Answer.digest ans.Mediator.rows
        || bits r.Trace.measured.Run.total_time <> bits ans.Mediator.measured.Run.total_time
      then fail "traced replica and run_query disagree: %s" (short sql)
      else if not (Answer.matches (Hashtbl.find expected sql) r.Trace.rows) then
        fail "wrong answer: %s" (short sql);
      if q > warm then begin
        untraced_ms := ms :: !untraced_ms;
        List.iter (fun (k, x) -> add k x) (deltas c0 c1);
        add "wrapper.submits" (float_of_int (submits r.Trace.plan));
        add "wrapper.rows" (float_of_int (materialized_rows r.Trace.physical));
        add "exec.rows_out" (float_of_int (List.length r.Trace.rows))
      end
    | Error e, _ | _, Error e -> fail "%s: %s" (short sql) (Printexc.to_string e)
  in
  Array.iter step w.Workload.corpus;
  let start = now () in
  let round = ref 0 in
  while !round = 0 || now () -. start < 0.7 *. seconds do
    Gc.full_major ();
    Array.iter step (Workload.round_queries w ~seed ~round:!round);
    incr round
  done;
  let lockstep = tr.Trace.query in
  let layers, traced_ms = Trace.summarize tr ~keep:(fun q -> q > warm) in
  Option.iter (Trace.write tr) trace_out;
  let untraced = Stats.mean !untraced_ms in
  let server_warm, served, rate = server_pass w ~seed ~seconds ~expected a in
  let ok = List.filter (fun c -> c.Serve.ok) served in
  let n = float_of_int (lockstep - warm) in
  let per_query k = Option.value ~default:0. (Hashtbl.find_opt sums k) /. n in
  let ratio a b = a /. (a +. b) in
  let count name = metric name "count/query" (per_query name) in
  let lateness = Stats.percentile 0.95 (List.map (fun c -> c.Serve.lateness_ms) served) in
  { attempted = lockstep + List.length server_warm + List.length served;
    failed = !failures;
    kernels = [ Calib.measure () ];
    metrics =
      List.concat_map
        (fun (l, s) ->
          [ metric (l ^ ".ms") "ms" s.Trace.ms ~note:"median self time per query";
            metric (l ^ ".share") "ratio" s.Trace.share;
            metric (l ^ ".alloc_kw") "kwords" s.Trace.alloc_kw ])
        layers
      @ [ count "optimizer.plans_considered";
          count "optimizer.formula_evals";
          count "optimizer.csg_cmp_pairs";
          count "optimizer.dp_entries";
          metric "plancache.hit_ratio" "ratio"
            (ratio (per_query "plancache.hits") (per_query "plancache.misses"));
          count "plancache.stale_per_query";
          count "plancache.evictions_per_query";
          count "registry.generation_bumps";
          count "history.records";
          count "wrapper.submits";
          count "wrapper.rows";
          metric "storage.buffer_hit_ratio" "ratio"
            (ratio (per_query "storage.buffer_hits") (per_query "storage.page_misses"));
          count "storage.page_misses";
          count "exec.rows_out";
          metric "server.in_server_ms_p50" "ms"
            (Stats.median (List.map (fun c -> c.Serve.in_server_ms) ok))
            ~note:(Printf.sprintf "n=%d at %.1f queries/s" (List.length ok) rate);
          metric "server.wire_ms_p50" "ms" (Stats.median (List.map (fun c -> c.Serve.wire_ms) ok));
          metric "server.gen_lateness_ms_p95" "ms" lateness.Stats.value
            ~note:(Printf.sprintf "n=%d, %d beyond" lateness.Stats.samples lateness.Stats.beyond);
          metric "trace.overhead_ratio" "ratio" ((traced_ms /. untraced) -. 1.)
            ~note:(Printf.sprintf "traced %.3f ms vs untraced %.3f ms per query" traced_ms untraced) ] }

let run (w : Workload.t) ~seed ~seconds ~trace ~trace_out =
  if trace then traced w ~seed ~seconds ~trace_out
  else if w.Workload.served then served w ~seed ~seconds
  else in_process w ~seed ~seconds
