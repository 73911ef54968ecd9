(** An LRU buffer pool. The executor routes every page access through it; a
    miss counts one physical IO. Repeated accesses to resident pages are
    free, which is what makes measured index-scan IO follow the number of
    {e distinct} pages touched (Yao) rather than the number of objects.

    The replacement policy is exact LRU: on a miss with [capacity] pages
    resident, the least recently accessed page is evicted. An access
    allocates nothing, and the pool's memory is bounded by its capacity
    (O(capacity) words, plus one entry per distinct table name), however
    many accesses it serves. *)

type t

val create : capacity:int -> t
(** Pool with room for [capacity] pages (at least 1). *)

val clear : t -> unit
(** Evict everything and reset the counters (a cold cache). *)

val access : t -> table:string -> page:int -> bool
(** Access a page; [true] means a miss (the caller charges one IO). Pages of
    different tables are distinct. *)

val resident : t -> int
val hits : t -> int
val misses : t -> int
