(** Equi-depth histograms over attribute values.

    Built at registration time from wrapper-exported samples (or full table
    scans) and refreshed by the §4.3 feedback loop, histograms replace the
    uniform-distribution assumption behind range and equality selectivities.
    Values map to a float {e key}: numerics through
    {!Disco_common.Constant.to_float_opt}, strings through their first two
    bytes — the same lexical interpolation {!Disco_common.Constant.fraction}
    uses. Buckets hold roughly equal counts; lookups interpolate linearly
    within a bucket.

    The representation is transparent so tests can assert structural
    invariants (ascending non-overlapping buckets, counts summing to the
    total). *)

open Disco_common

type kind = Numeric | Textual

type bucket = {
  lo : float;        (** smallest key in the bucket *)
  hi : float;        (** largest key in the bucket *)
  count : float;     (** objects falling in [[lo, hi]] *)
  distinct : float;  (** distinct keys in [[lo, hi]] *)
}

type t = private {
  kind : kind;
  buckets : bucket array;  (** non-empty; ascending, non-overlapping *)
  total : float;           (** sum of bucket counts *)
}

val buckets : t -> bucket list
val total : t -> float

val key : t -> Constant.t -> float option
(** Key of a constant under this histogram's kind; [None] when the constant
    is not comparable in that domain. *)

val of_values : ?buckets:int -> ?seed:int -> Constant.t list -> t option
(** Build an equi-depth histogram from raw column values. The kind is decided
    by the first non-null value; values of the other kind are dropped. [None]
    on an empty (or all-null) column. Columns larger than 1024 values are
    subsampled deterministically with {!Disco_common.Rng} under
    [seed] (default 0), so builds are cheap and reproducible. [buckets]
    bounds the bucket count (default 32). *)

val sel_cmp : t -> Cmp.t -> Constant.t -> float option
(** [sel_cmp t cmp c] is the fraction of objects satisfying [attr cmp c],
    in [[0, 1]]. Exact at the extremes: [sel_cmp t Le max = 1.] and
    [sel_cmp t Lt min = 0.]. [None] when [c] does not map into the
    histogram's key domain (callers fall back to uniform interpolation). *)

val narrow_le : t -> Constant.t -> t option
(** Restrict to objects with key at most the constant's key; [None] when
    nothing survives, [Some t] unchanged when the constant has no key. Used
    by [Derive] to propagate range predicates. *)

val narrow_ge : t -> Constant.t -> t option

val join_eq : t -> t -> float option
(** Selectivity of an equi-join between two attributes from their histograms:
    the probability that a random pair of objects agree on a key, summed over
    overlapping buckets. [None] on kind mismatch. *)

val pp : Format.formatter -> t -> unit
