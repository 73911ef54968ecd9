(** Physical plans and access-path selection for one execution engine.

    A wrapper translates the logical subplan it receives into a physical plan
    over its stored tables: selections over base scans choose between a full
    scan and an index scan using the engine's true costs (the wrapper knows
    its own engine — which is precisely why its exported cost rules beat the
    mediator's generic model), and joins choose index-nested-loop when the
    inner input is a base scan with an index on the join attribute. *)

open Disco_common
open Disco_algebra
open Disco_storage

type access =
  | Full_scan
  | Index_scan of { attr : string; op : Cmp.t; value : Constant.t }

type t =
  | Pscan of { table : Table.t; binding : string; access : access; residual : Pred.t }
  | Pfilter of t * Pred.t
  | Pproject of t * string list
  | Psort of t * (string * Plan.order) list
  | Pnested_join of t * t * Pred.t
  | Pindex_join of {
      outer : t;
      table : Table.t;      (** inner base table *)
      binding : string;
      outer_attr : string;  (** qualified attribute of the outer tuple *)
      inner_attr : string;  (** unqualified inner attribute (indexed) *)
      residual : Pred.t;
    }
  | Punion of t * t
  | Pdedup of t
  | Paggregate of t * Plan.aggregate
  | Pmaterialized of { batches : Batch.t list; count : int; first : float; total : float }
      (** An already-computed input (a wrapper subresult at the mediator),
          with the simulated times spent producing it. [batches] are the
          wrapper engine's own columnar output, handed over as they are
          (see {!Run.run_batched}); they are read-only from then on. [count]
          must equal the total length of [batches]; it is carried so
          pretty-printing a plan never walks materialized data. *)

val pp : Format.formatter -> t -> unit

val index_scan_cost : Costs.engine -> Table.t -> clustered:bool -> int -> float
(** Estimated cost of fetching [k] matches through an index: probe + touched
    pages (contiguous when clustered, Yao otherwise) + materialization. *)

val full_scan_cost : Costs.engine -> Table.t -> matches:int -> float

val of_logical : engine:Costs.engine -> find_table:(string -> Table.t) -> Plan.t -> t
(** Translate a logical subplan (no [submit] nodes — raises
    {!Disco_common.Err.Plan_error} on one) into a physical plan.
    Width-only projections over an inner scan do not hide its indexes from
    join planning. *)
