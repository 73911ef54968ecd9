(** A shared fixed pool of OCaml 5 domains with a fork/join helper.

    The pool exists to parallelize two embarrassingly parallel hot spots of
    the mediator — plan-space search and wrapper scatter-gather — without
    perturbing their sequential semantics. The design invariants callers
    rely on:

    - {b Slot determinism.} {!run} executes task [i] on slot [i mod p]
      (slot 0 is the calling domain, which participates). Within a slot,
      tasks run in increasing index order. Results come back as an array
      indexed by task, so any reduction the caller performs in index order
      is independent of the interleaving across slots.
    - {b Exception determinism.} If several tasks raise, the exception from
      the lowest-numbered slot is re-raised after the barrier; the others
      are dropped. All slots always run to completion (a slot that has
      already failed skips its remaining tasks).
    - {b Reentrancy.} A task that calls {!run} again executes the nested
      tasks inline on its own domain — the pool never deadlocks on nested
      fork/join, it just loses the nested parallelism.
    - {b Shared workers.} Worker domains are process-global, spawned on
      demand up to the largest degree requested, reused across pools, and
      joined at process exit. Concurrent {!run} calls from different
      domains serialize on the worker set. *)

type t
(** A pool handle: a requested degree of parallelism over the shared
    worker set. Handles are cheap — no domain is spawned until {!run}
    actually needs one. *)

val create : int -> t
(** [create n] is a pool of degree [max 1 (min n max_domains)]. *)

val degree : t -> int

val max_domains : int
(** Upper clamp on any pool degree (64). *)

val env_domains : unit -> int
(** The degree requested by the [DISCO_DOMAINS] environment variable,
    clamped to [1 .. max_domains]; [1] when unset or unparsable. *)

val run : t -> (int -> 'a) -> int -> 'a array
(** [run t f n] evaluates [f 0 .. f (n-1)] across [min (degree t) n]
    domains and returns [[| f 0; ...; f (n-1) |]]. See the invariants
    above. [f] must not assume anything about which domain it runs on
    beyond slot determinism; cross-task mutable state must be sharded by
    slot or protected by the caller. *)

val chunk : int -> 'a list -> 'a list array
(** [chunk p xs] splits [xs] into [min p (length xs)] contiguous chunks
    (empty input gives an empty array) whose sizes differ by at most one,
    earlier chunks larger. Concatenating the chunks in index order yields
    [xs] — the helper parallel loops use to keep chunked iteration in the
    same order as the sequential fold they replace. *)

val shutdown : unit -> unit
(** Join all spawned worker domains. Automatically registered with
    [at_exit]; safe to call more than once (subsequent {!run}s respawn
    workers as needed). *)
