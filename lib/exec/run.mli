(** The measuring evaluator: executes a physical plan over the simulated
    storage engine and accounts simulated time — IO through the buffer pool,
    CPU per predicate, materialization per object touched, delivery per
    result. The resulting measured cost vectors play the role of the paper's
    "real measurements of an object database system" (§5); they are also what
    the historical-cost extension feeds back into the cost model.

    Every query runs on the batched engine, which streams columnar
    {!Batch.t} chunks with predicates compiled once per batch ({!Bpred}).
    The original tuple-at-a-time interpreter stays only as the reference
    engine: the differential suites and the benchmark's answer oracle select
    it through [?mode] or {!set_default_mode}. Both replay the same
    buffer-pool accesses and charge simulated time through shared cost
    formulas, so rows and simulated costs are bit-identical between engines;
    only [wall_ms] — the real clock on the engine itself — differs. *)

open Disco_storage

type env = {
  engine : Costs.engine;
  buffer : Buffer.t;
  hash_join : bool;
      (** the mediator's composition engine hashes equi-joins over
          materialized subresults; the simulated 1997-era sources do not *)
  adts : Adt.t list;
      (** ADT operation implementations available to this engine (paper §7);
          shipped to the mediator at registration, like cost rules *)
}

(** Which engine executes the plan. [Batched] is the production engine;
    [Tuple_at_a_time] is kept only as the reference engine that tests and
    the benchmark's answer oracle compare against. *)
type mode = Tuple_at_a_time | Batched of { batch_size : int }

val default_batch_size : int
(** 1024 rows per batch. *)

val default_mode : unit -> mode
(** [Batched { batch_size = default_batch_size }] unless a reference run
    changed it with {!set_default_mode}. *)

val set_default_mode : mode -> unit
(** For reference runs only: the differential suites and the benchmark's
    answer oracle switch to [Tuple_at_a_time] and restore the default
    afterwards. *)

type result = {
  rows : Tuple.t list;
  first : float;  (** simulated ms until the first object *)
  total : float;  (** simulated ms until completion *)
  wall_ms : float;  (** real elapsed ms of the engine itself *)
}

(** The measured counterpart of the estimator's five cost variables, plus
    the real clock. *)
type vector = {
  count : float;
  size : float;
  time_first : float;
  time_next : float;
  total_time : float;
  wall_ms : float;
}

val vector_of_result : result -> vector

val to_cost_vars : vector -> (Disco_costlang.Ast.cost_var * float) list

val pp_vector : Format.formatter -> vector -> unit

type failure_reason = Timeout | Transient | Unavailable

(** Why a subplan submitted to a wrapper did not come back. Produced by the
    mediator's submit policy once its retry budget for the attempt is spent;
    typed so callers can replan around the failed source or report precisely
    instead of swallowing a generic exception. *)
type submit_failure = {
  source : string;
  attempts : int;        (** submits tried, including the failing one *)
  elapsed_ms : float;    (** simulated ms burnt across all attempts *)
  reason : failure_reason;  (** of the final attempt *)
}

exception Submit_error of submit_failure

val reason_to_string : failure_reason -> string
val pp_submit_failure : Format.formatter -> submit_failure -> unit

val run : ?mode:mode -> env -> Physical.t -> result
(** Execute a physical plan, producing rows and simulated times. [mode]
    defaults to {!default_mode}; pass [Tuple_at_a_time] only to get the
    reference result. Both engines produce the same rows in the same order
    and bit-identical simulated times.

    Concurrency contract: [run] mutates [env.buffer] (the buffer pool's
    replacement state), so a given [env] must be driven from one domain at
    a time and two evaluations over the same [env] are order-dependent.
    This is why the mediator's scatter-gather path parallelizes {e
    upstream} of [run]: wrapper subplans execute concurrently in their own
    wrappers (each with its own [env]) during translation to {!Physical.t},
    arrive here as {!Physical.Pmaterialized} leaves — rows plus the
    simulated times already charged — and the mediator-side composition
    that [run] performs stays single-domain and deterministic. *)

val measure : ?mode:mode -> env -> Physical.t -> Tuple.t list * vector
(** {!run} followed by {!vector_of_result}. In batched mode the vector's
    count and size come from incrementally-carried totals rather than a
    walk over the result rows. *)

(** {1 Batched execution}

    The batched result keeps rows in columnar form; a result is a list of
    batches (unions legally mix schemas in one stream), every batch
    non-empty, concatenated row order equal to the tuple engine's. *)

type batched_result = {
  batches : Batch.t list;
  bcount : int;   (** total rows across [batches] *)
  bbytes : int;   (** total {!Tuple.byte_size} across [batches] *)
  bfirst : float;
  btotal : float;
  bwall_ms : float;
}

val run_batched : ?batch_size:int -> env -> Physical.t -> batched_result
(** Execute with the batched engine, keeping the columnar result. Same
    concurrency contract as {!run}. *)

val rows_of_batched : batched_result -> Tuple.t list

val vector_of_batched : batched_result -> vector
(** Built from the carried [bcount]/[bbytes] — O(#batches), not O(rows). *)
