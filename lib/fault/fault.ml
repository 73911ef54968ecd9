(* Deterministic fault injection for the wrapper/mediator boundary.

   A [profile] describes how one source misbehaves — latency spikes,
   transient errors, stall (timeout) windows and hard unavailability
   intervals — entirely in simulated clock time, so a run is a pure function
   of (data seed, fault seed, profile, workload): the same configuration
   replays the same spikes, the same failures and the same recoveries.

   An [injector] is a profile installed for one source. Every [decide] call
   consumes a fixed number of PRNG draws whatever the outcome, so the random
   stream stays aligned across branches and runs are reproducible even when
   interval membership changes which branch is taken. *)

open Disco_common

type profile = {
  seed : int;               (* fault randomness; independent of the data seed *)
  spike_prob : float;       (* chance a successful answer carries a spike *)
  spike_ms : float;         (* spike magnitude: uniform in [0, spike_ms) *)
  transient_prob : float;   (* chance an attempt fails with a transient error *)
  transient_ms : float;     (* latency before a transient error surfaces *)
  stall_prob : float;       (* chance an attempt hangs past any timeout *)
  outages : (float * float) list;  (* hard unavailability [start, stop), sim ms *)
  stalls : (float * float) list;   (* timeout windows [start, stop), sim ms *)
}

let none =
  { seed = 0;
    spike_prob = 0.;
    spike_ms = 0.;
    transient_prob = 0.;
    transient_ms = 40.;
    stall_prob = 0.;
    outages = [];
    stalls = [] }

type outcome =
  | Respond of float   (* answer arrives, [extra] ms late (0 = healthy) *)
  | Fail_after of float (* transient error surfacing after this many ms *)
  | Stall              (* no answer within any timeout *)
  | Refuse             (* hard unavailable: immediate connection error *)

type t = {
  profile : profile;
  source : string;
  rng : Rng.t;
}

let install profile ~source =
  { profile;
    source;
    (* derive the per-source stream from the profile seed and the source
       name, so two sources sharing a profile still fail independently *)
    rng = Rng.create ~seed:(profile.seed lxor Hashtbl.hash source) }

let profile t = t.profile
let source t = t.source

let in_window now windows =
  List.exists (fun (start, stop) -> now >= start && now < stop) windows

let decide t ~now =
  let p = t.profile in
  if in_window now p.outages then Refuse
  else if in_window now p.stalls then Stall
  else begin
    (* fixed draw order and count, independent of the outcome *)
    let u_transient = Rng.float t.rng 1. in
    let u_stall = Rng.float t.rng 1. in
    let u_spike = Rng.float t.rng 1. in
    let spike = Rng.float t.rng (Float.max p.spike_ms 1e-9) in
    if u_transient < p.transient_prob then Fail_after p.transient_ms
    else if u_stall < p.stall_prob then Stall
    else if u_spike < p.spike_prob then Respond spike
    else Respond 0.
  end

(* --- Profile spec parsing (the CLI's --fault-profile) ----------------------

   Grammar (whitespace-free):

     spec     ::= entry (';' entry)*
     entry    ::= SOURCE ':' field (',' field)*
     field    ::= 'seed=' INT
                | 'spike=' PROB '@' MS      latency spikes
                | 'err=' PROB ['@' MS]      transient errors
                | 'stall=' PROB             probabilistic stalls
                | 'outage=' MS '-' MS       hard unavailability interval
                | 'stallwin=' MS '-' MS     timeout window

   e.g.  "web:err=0.3@40,spike=0.2@500,seed=7;files:outage=0-5000" *)

let parse_error spec msg =
  Fmt.invalid_arg "bad fault profile %S: %s" spec msg

let parse_float spec s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> parse_error spec (Fmt.str "not a number: %S" s)

let parse_range spec s =
  match String.index_opt s '-' with
  | Some i ->
    ( parse_float spec (String.sub s 0 i),
      parse_float spec (String.sub s (i + 1) (String.length s - i - 1)) )
  | None -> parse_error spec (Fmt.str "expected START-STOP, got %S" s)

let parse_field spec profile field =
  match String.index_opt field '=' with
  | None -> parse_error spec (Fmt.str "expected key=value, got %S" field)
  | Some i ->
    let key = String.sub field 0 i in
    let value = String.sub field (i + 1) (String.length field - i - 1) in
    let prob_at () =
      match String.index_opt value '@' with
      | Some j ->
        ( parse_float spec (String.sub value 0 j),
          Some (parse_float spec (String.sub value (j + 1) (String.length value - j - 1))) )
      | None -> (parse_float spec value, None)
    in
    (match key with
     | "seed" ->
       (match int_of_string_opt value with
        | Some s -> { profile with seed = s }
        | None -> parse_error spec (Fmt.str "not an integer seed: %S" value))
     | "spike" ->
       let prob, ms = prob_at () in
       { profile with
         spike_prob = prob;
         spike_ms = Option.value ~default:profile.spike_ms ms }
     | "err" ->
       let prob, ms = prob_at () in
       { profile with
         transient_prob = prob;
         transient_ms = Option.value ~default:profile.transient_ms ms }
     | "stall" -> { profile with stall_prob = parse_float spec value }
     | "outage" -> { profile with outages = profile.outages @ [ parse_range spec value ] }
     | "stallwin" -> { profile with stalls = profile.stalls @ [ parse_range spec value ] }
     | other -> parse_error spec (Fmt.str "unknown field %S" other))

let split_on c s = String.split_on_char c s |> List.filter (fun s -> s <> "")

let parse_spec spec : (string * profile) list =
  List.map
    (fun entry ->
      match String.index_opt entry ':' with
      | None -> parse_error spec (Fmt.str "expected SOURCE:fields, got %S" entry)
      | Some i ->
        let source = String.sub entry 0 i in
        let fields =
          split_on ',' (String.sub entry (i + 1) (String.length entry - i - 1))
        in
        (source, List.fold_left (parse_field spec) none fields))
    (split_on ';' spec)
