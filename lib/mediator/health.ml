(* Per-source health tracking for the mediator's submit policy.

   Each source carries a consecutive-failure circuit breaker: after
   [breaker_threshold] consecutive exhausted submit attempts the circuit
   opens for [breaker_cooldown_ms] of simulated time, during which the
   optimizer excludes the source from planning. Once the cooldown elapses
   the next availability check admits a single half-open probe — exactly
   one caller wins admission, concurrent callers are refused until the
   probe settles; a successful submit closes the circuit, a failed one
   reopens it for another cooldown. All times are simulated ms, supplied
   by the caller (the mediator owns the clock). *)

type policy = {
  timeout_ms : float;         (* per-attempt bound on injected anomalies *)
  max_attempts : int;         (* submits per subplan, including the first *)
  backoff_base_ms : float;    (* wait before the first retry *)
  backoff_factor : float;     (* multiplier per further retry *)
  breaker_threshold : int;    (* consecutive failures that open the circuit *)
  breaker_cooldown_ms : float;(* open duration before a half-open probe *)
}

let default_policy =
  { timeout_ms = 10_000.;
    max_attempts = 3;
    backoff_base_ms = 250.;
    backoff_factor = 2.;
    breaker_threshold = 3;
    breaker_cooldown_ms = 60_000. }

type state = Closed | Open of { until : float } | Half_open of { probing : bool }

type entry = {
  mutable state : state;
  mutable consecutive_failures : int;
  mutable successes : int;
  mutable failures : int;   (* exhausted attempt budgets, not single attempts *)
  mutable retries : int;
  mutable probes : int;     (* half-open probes admitted *)
  (* simulated time past which an admitted-but-unsettled probe is presumed
     lost (its query died between planning and submit) and a new probe may
     be admitted; meaningful only in [Half_open { probing = true }] *)
  mutable probe_lost_at : float;
  mutable last_error : string option;
}

type t = {
  policy : policy;
  entries : (string, entry) Hashtbl.t;
  (* guards the table and every per-source entry: a server worker reports
     outcomes while a query runs and reader threads render the health
     report at the same time; each
     operation is a short read-modify-write, so one lock suffices and keeps
     the counters and breaker transitions exact *)
  lock : Mutex.t;
}

let create ?(policy = default_policy) () =
  { policy; entries = Hashtbl.create 8; lock = Mutex.create () }

let policy t = t.policy

(* caller holds [t.lock] *)
let entry t source =
  match Hashtbl.find_opt t.entries source with
  | Some e -> e
  | None ->
    let e =
      { state = Closed;
        consecutive_failures = 0;
        successes = 0;
        failures = 0;
        retries = 0;
        probes = 0;
        probe_lost_at = 0.;
        last_error = None }
    in
    Hashtbl.add t.entries source e;
    e

let state t source = Mutex.protect t.lock (fun () -> (entry t source).state)

(* caller holds [t.lock]: admit the caller as the in-flight probe *)
let admit_probe t e ~now =
  e.state <- Half_open { probing = true };
  e.probes <- e.probes + 1;
  e.probe_lost_at <- now +. t.policy.breaker_cooldown_ms;
  true

let available t ~now source =
  Mutex.protect t.lock (fun () ->
      let e = entry t source in
      match e.state with
      | Closed -> true
      | Open { until } when now >= until ->
        (* cooldown elapsed: admit exactly this caller as the probe; its
           outcome settles the circuit, everyone else is refused meanwhile *)
        admit_probe t e ~now
      | Open _ -> false
      | Half_open { probing = false } ->
        (* a previously admitted probe was returned unused — hand the slot
           to this caller *)
        admit_probe t e ~now
      | Half_open { probing = true } when now >= e.probe_lost_at ->
        (* the in-flight probe never settled (its query died between
           planning and submit): presume it lost after a further cooldown
           and admit a fresh one, so the source is not stuck half-open *)
        admit_probe t e ~now
      | Half_open { probing = true } -> false)

let release_probe t source =
  Mutex.protect t.lock (fun () ->
      let e = entry t source in
      match e.state with
      | Half_open { probing = true } ->
        e.state <- Half_open { probing = false }
      | Closed | Open _ | Half_open { probing = false } -> ())

let retry_at t source =
  Mutex.protect t.lock (fun () ->
      match (entry t source).state with
      | Open { until } -> until
      | Closed | Half_open _ -> 0.)

let on_success t source =
  Mutex.protect t.lock (fun () ->
      let e = entry t source in
      e.successes <- e.successes + 1;
      e.consecutive_failures <- 0;
      e.state <- Closed)

let on_failure t ~now source ~reason =
  Mutex.protect t.lock (fun () ->
      let e = entry t source in
      e.failures <- e.failures + 1;
      e.consecutive_failures <- e.consecutive_failures + 1;
      e.last_error <- Some reason;
      let open_until = now +. t.policy.breaker_cooldown_ms in
      match e.state with
      | Half_open _ ->
        (* the probe failed: straight back to open *)
        e.state <- Open { until = open_until }
      | Closed when e.consecutive_failures >= t.policy.breaker_threshold ->
        e.state <- Open { until = open_until }
      | Closed | Open _ -> ())

let note_retry t source =
  Mutex.protect t.lock (fun () ->
      let e = entry t source in
      e.retries <- e.retries + 1)

type row = {
  source : string;
  row_state : state;
  ok : int;
  failed : int;
  retried : int;
  consecutive : int;
  probed : int;
  error : string option;
}

let report t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.fold
    (fun source e acc ->
      { source;
        row_state = e.state;
        ok = e.successes;
        failed = e.failures;
        retried = e.retries;
        consecutive = e.consecutive_failures;
        probed = e.probes;
        error = e.last_error }
      :: acc)
    t.entries []
  |> List.sort (fun a b -> String.compare a.source b.source)

let pp_state ppf = function
  | Closed -> Fmt.string ppf "closed"
  | Open { until } -> Fmt.pf ppf "open(until %.0fms)" until
  | Half_open { probing = true } -> Fmt.string ppf "half-open(probing)"
  | Half_open { probing = false } -> Fmt.string ppf "half-open"
