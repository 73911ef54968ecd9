(** Default selectivity estimation, exposed to cost formulas as the context
    function [sel(P)]: classical System-R style estimates over the derived
    statistics of a node's inputs (paper §2.3). *)

open Disco_common
open Disco_algebra

val of_cmp : Derive.t list -> string -> Pred.cmp -> Constant.t -> float
(** Selectivity of [attr op const] against the inputs' statistics: histogram
    CDF when the attribute carries one (DESIGN.md §11), otherwise [1 /
    CountDistinct] for equality and min/max interpolation for ranges. *)

val of_attr_cmp : Derive.t list -> string -> string -> Pred.cmp -> float
(** Join selectivity: histogram bucket overlap when both attributes carry
    histograms of the same kind, otherwise [1 /
    Max(CountDistinct(A), CountDistinct(B))]. Note: the paper's §2.3 text
    says 1/Min; we follow the standard System-R 1/Max (see DESIGN.md
    deviations). *)

val default_apply : float
(** Selectivity assumed for an ADT operation when the wrapper exports none
    (0.25). *)

val of_pred : ?apply_sel:(string -> float option) -> Derive.t list -> Pred.t -> float
(** Selectivity of an arbitrary predicate; conjunction multiplies,
    disjunction adds with overlap correction, negation complements;
    [apply_sel] supplies wrapper-exported selectivities of ADT operations.
    Always in [[0, 1]]. *)

val indexed : Derive.t list -> Pred.t -> float
(** 1.0 when the predicate is a simple comparison whose attribute carries an
    index in the first input — the guard of the generic index-scan
    formulas. *)

val rindexed : Derive.t list -> Pred.t -> float
(** 1.0 when the predicate is an attribute equality whose second (inner)
    input side is indexed — the guard of the generic index-join formula. *)
