(** A small deterministic PRNG (splitmix64), so that data generation, benches
    and property tests are reproducible without touching the global [Random]
    state. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)]. Raises [Invalid_argument] when
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** A uniformly random element of a non-empty array. *)
