(** A reproducible federation of four heterogeneous sources, used by tests,
    examples and benchmarks. Each source exercises a different point of the
    paper's spectrum of cost-information export (§1: "from nothing to
    everything"):

    - [relstore] — relational engine; exports {e partial} rules (an accurate
      scan rule and a fast-LAN submit rule; selections and joins fall back to
      the generic model).
    - [objstore] — ObjectStore-like engine; exports {e complete} rules,
      including the Yao-formula index-scan rule of Fig 13 and an index-join
      rule that prices non-indexed joins prohibitively (this engine has no
      sort-merge join).
    - [files] — flat-file source; exports {e statistics only}: pure
      generic-model / calibration behaviour.
    - [web] — remote source behind a slow network; exports a [submit] rule
      overriding the mediator's uniform-communication assumption. *)

val objstore_rules : string
(** The complete rule export of the object store. *)

val lang_match : Disco_exec.Adt.t
(** The files source's expensive ADT operation (200 ms/call language
    detection, selectivity 0.25), usable in queries as
    [lang_match(d.lang, "en")]. *)

type sizes = {
  employees : int;
  departments : int;
  projects : int;
  tasks : int;
  documents : int;
  listings : int;
}

val default_sizes : sizes
val small_sizes : sizes
(** A reduced data set for tests and examples. *)

val make : ?seed:int -> ?sizes:sizes -> unit -> Wrapper.t list
(** Generate the federation deterministically: [relstore], [objstore],
    [files], [web], in that order. *)

(** {1 Synthetic wide federations}

    Join-enumeration workloads for the scalability experiments (DESIGN.md
    §15): [n] single-collection sources [s0 .. s{n-1}], each holding
    [Rel{i}(id, fk, grp, v)], with rotating engines
    (relational / objectstore / flat-file), a LAN/WAN mix, and every third
    source exporting [capabilities scan;] (no pushed selections or joins).
    The join graph over them is one of four shapes. *)

(** [Chain] joins [r{i+1}.fk = r{i}.id]; [Star] joins every satellite's
    [fk] to [r0.id]; [Clique] is a chain backbone plus [grp = grp] edges
    between every remaining pair; [Random_edges k] is a random spanning
    tree plus [k] random extra [grp] edges. *)
type shape = Chain | Star | Clique | Random_edges of int

val shape_to_string : shape -> string

val synthetic_edges :
  shape:shape -> n:int -> seed:int -> (int * int * [ `Fk | `Grp ]) list
(** The join graph's edge list, deterministic in (shape, n, seed) —
    {!synthetic} and {!synthetic_sql} called with the same parameters agree
    on it. *)

val synthetic : ?seed:int -> ?rows:int -> n:int -> unit -> Wrapper.t list
(** The [n] wrappers (the data does not depend on the shape — only the
    query text does). [rows] tuples per relation (default 200). *)

val synthetic_sql : ?seed:int -> shape:shape -> n:int -> unit -> string
(** The n-way join query over the shape's edges, with a [v > 500]
    selection on every fourth relation. *)
