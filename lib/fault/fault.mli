(** Deterministic fault injection for the wrapper/mediator boundary.

    A {!profile} describes how one source misbehaves — latency spikes,
    transient errors, stall windows, hard unavailability intervals — in
    simulated clock time. Installing a profile on a source yields an
    injector whose decisions are a pure function of (profile seed, source
    name, decision index, simulated now): the same configuration replays
    the same faults, which is what makes retry/backoff behaviour testable
    and benchable. *)

type profile = {
  seed : int;               (** fault randomness; independent of the data seed *)
  spike_prob : float;       (** chance a successful answer carries a spike *)
  spike_ms : float;         (** spike magnitude: uniform in [0, spike_ms) *)
  transient_prob : float;   (** chance an attempt fails with a transient error *)
  transient_ms : float;     (** latency before a transient error surfaces *)
  stall_prob : float;       (** chance an attempt hangs past any timeout *)
  outages : (float * float) list;  (** hard unavailability [start, stop), sim ms *)
  stalls : (float * float) list;   (** timeout windows [start, stop), sim ms *)
}

val none : profile
(** All probabilities zero, no windows: behaviourally inert. An injector
    built from [none] must leave every submit bit-identical to running with
    no injector at all. *)

type outcome =
  | Respond of float    (** answer arrives, this many ms late (0 = healthy) *)
  | Fail_after of float (** transient error surfacing after this many ms *)
  | Stall               (** no answer within any timeout *)
  | Refuse              (** hard unavailable: immediate connection error *)

type t
(** A profile installed for one source, with its own PRNG stream. *)

val install : profile -> source:string -> t
(** The injector's stream is seeded from [profile.seed] and [source], so
    sources sharing a profile still fail independently. *)

val decide : t -> now:float -> outcome
(** The fate of one submit attempt starting at simulated time [now].
    Outage windows dominate stall windows dominate the probabilistic draws.
    Each call outside a window consumes a fixed number of PRNG draws
    regardless of the branch taken, keeping runs reproducible. *)

val profile : t -> profile
val source : t -> string

val parse_spec : string -> (string * profile) list
(** Parse a CLI fault spec:
    [SOURCE:key=val,...;SOURCE:key=val,...] with fields [seed=N],
    [spike=P@MS], [err=P[@MS]], [stall=P], [outage=A-B], [stallwin=A-B]
    (the last two repeatable). E.g.
    ["web:err=0.3@40,spike=0.2@500,seed=7;files:outage=0-5000"].
    @raise Invalid_argument on malformed input. *)
