(** The OO7 benchmark database [CDN93], as used in the paper's validation
    (§5): AtomicParts with the exact parameters of the index-scan experiment
    — 70000 objects of 56 bytes on 1000 pages (4096-byte pages, 96 % fill),
    uniformly distributed ids, an unclustered index on [id] — plus the
    CompositeParts / Connections / Documents structure around them.

    Ids are assigned uniformly and rows are shuffled before paging, so an
    index scan in id order touches pages in random order: the measured page
    count follows Yao's formula — the non-linearity of the paper's
    Figure 12. *)

open Disco_storage

type config = {
  atomic_parts : int;
  composite_parts : int;       (** AtomicPart.partOf fan-in *)
  connections_per_part : int;
  documents : int;
  seed : int;
}

val paper_config : config
(** The paper's §5 parameters (70000 atomic parts). *)

val small_config : config
(** A reduced configuration for tests. *)

val make_tables : config -> Table.t list
(** AtomicPart, CompositePart (clustered on id), Connection, Document —
    deterministic for a given config. *)

val make_source :
  ?config:config -> ?with_rules:bool -> ?buffer_pages:int -> unit ->
  Disco_wrapper.Wrapper.t
(** The ObjectStore-backed OO7 source. [with_rules] (default true) controls
    whether the wrapper exports the Yao cost rules (the paper's proposal) or
    only statistics (the baseline calibrating approach of [GST96]). *)

val cold_cache : Disco_wrapper.Wrapper.t -> unit
(** Reset the wrapper's buffer pool between measurements. *)

val queries : config -> (string * Disco_algebra.Plan.t) list
(** The OO7 query workload [CDN93] (the subset expressible in the mediator
    algebra, scaled to the configured database): exact-match and range index
    scans, path joins, and a full scan. *)
