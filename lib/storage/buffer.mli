(** An LRU buffer pool. The executor routes every page access through it; a
    miss counts one physical IO. Repeated accesses to resident pages are
    free, which is what makes measured index-scan IO follow the number of
    {e distinct} pages touched (Yao) rather than the number of objects.

    The replacement policy is exact LRU: on a miss with [capacity] pages
    resident, the least recently accessed page is evicted. A page's slot is
    found through one array per table, indexed by page, which doubles (at
    least) to cover the highest page accessed. The pool's memory is
    O(capacity) words, plus one entry per distinct table name and at most
    two words per page up to the highest page accessed of each table it
    has served, however many accesses it serves; an access allocates only
    to grow those arrays. *)

type t

val create : capacity:int -> t
(** Pool with room for [capacity] pages (at least 1). *)

val clear : t -> unit
(** Evict everything and reset the counters (a cold cache). *)

val access : t -> table:string -> page:int -> bool
(** Access a page; [true] means a miss (the caller charges one IO). Pages of
    different tables are distinct; a table's pages are numbered from 0.
    @raise Invalid_argument on a negative page. *)

val resident : t -> int
val hits : t -> int
val misses : t -> int
