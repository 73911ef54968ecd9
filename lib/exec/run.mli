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
    only [wall_ms] — the real clock on the engine itself — differs.

    A table is its columns ({!Disco_storage.Table.col}, which is
    {!Batch.col}), and base-table access in the batched engine copies no
    stored row: a full scan accesses each page in order and emits the
    table's columns as one zero-copy batch; an index scan walks the index's
    posting spans, accesses each posting's page in posting order (the
    reference engine's sequence) and emits its positions [bsz] at a time as
    selection vectors over the columns ({!Batch.pick}), a residual
    narrowing each one; an index join looks each outer key up (unboxed
    when the outer column is [Ints], boxed otherwise), accesses the
    postings' pages in the same order, and gathers the (outer row, stored
    row) pairs column by column every [bsz] pairs. The
    reference engine accesses the same pages in the same order and boxes
    each row it reads from the columns by position
    ({!Disco_storage.Table.fetch}).

    The batched engine's composition kernels (sort, hash join, aggregate)
    address their inputs by row id over key columns extracted once per input
    (unboxed when the key's column is [Ints] in every batch, boxed
    otherwise) and write sort and join outputs column by column. They keep the
    reference's semantics exactly: sorts are stable and compare keys as
    [Constant.compare] does; each left row's join matches come newest build
    row first, whichever side the table is built on, and the candidate
    count that enters the cost is the same; groups come in first-seen order
    and every aggregate folds a group's rows newest first; and a sort key is
    resolved only for rows whose comparisons reach it, so a sort over at
    most one row, or whose ties never reach an unresolvable key, raises
    nothing. *)

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
    replacement state), so a given [env] must be driven from one thread at
    a time and two evaluations over the same [env] are order-dependent.
    Wrapper subplans execute in their own wrappers (each with its own
    [env]) during the mediator's translation to {!Physical.t} and arrive
    here as {!Physical.Pmaterialized} leaves — the wrapper engine's batches
    plus the simulated times already charged. A batch is read-only once
    {!run_batched} returns it: no engine writes to an emitted batch or to
    the column arrays it shares (with a table or with another batch), so
    the mediator's composition reads it without copying. *)

val measure : ?mode:mode -> ?limit:int -> env -> Physical.t -> Tuple.t list * vector
(** {!run} followed by {!vector_of_result}, keeping the first [limit] rows
    (all by default). In batched mode the vector's count and size come
    from incrementally-carried totals rather than a walk over the result
    rows, so they count every row whatever [limit] is, and only the kept
    rows are boxed ({!rows_of_batched}). The mediator calls it once per
    query, for the final answer, with the query's LIMIT; wrapper results
    stay in batch form ({!run_batched}). *)

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

val run_batched : ?mode:mode -> env -> Physical.t -> batched_result
(** Execute, keeping the result in batch form: the one entry point that
    returns batches, and what a wrapper hands the mediator. [mode] defaults
    to {!default_mode}. The batched engine returns its own batches; the
    reference engine's rows are chunked into one batch per run of rows
    sharing an attribute array. Either way {!rows_of_batched} gives back
    {!run}'s rows in order, and counts, bytes and simulated times are
    bit-identical between modes. A {!Physical.Pmaterialized} input costs
    the batched engine O(#batches): its batches are passed on as they
    are. Same concurrency contract as {!run}. *)

val rows_of_batched : ?limit:int -> batched_result -> Tuple.t list
(** The first [limit] rows (all by default), in order. Rows are boxed in
    one pass from the last kept row back to the first ({!Batch.rows_onto}),
    each consed once; rows past [limit] are not boxed. *)

val vector_of_batched : batched_result -> vector
(** Built from the carried [bcount]/[bbytes] — O(#batches), not O(rows). *)
