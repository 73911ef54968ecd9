(* Cross-query plan cache: plan-search results and whole-plan entries in
   one generation-stamped table (contract in plancache.mli).

   Eviction is FIFO under a fixed capacity: mediator workloads re-run recent
   query shapes, and FIFO keeps the bookkeeping O(1) without touching
   entries on hit. *)

open Disco_algebra
open Disco_core

type var = Disco_costlang.Ast.cost_var

(* A search key holds every spec field the search reads; [can_join] is left
   out because registration, which sets it, moves the generation. *)
type key =
  | Plan_cost of var * Plan.t
  | Search of var * Optimizer.base list * (string * string * Pred.t) list

module Tbl = Hashtbl.Make (struct
  type t = key

  let base_equal (a : Optimizer.base) (b : Optimizer.base) =
    a.ref_ = b.ref_ && Pred.equal a.pred b.pred && a.project = b.project
    && a.can_select = b.can_select && a.can_project = b.can_project

  let join_equal (a1, b1, p1) (a2, b2, p2) = a1 = a2 && b1 = b2 && Pred.equal p1 p2

  let equal k1 k2 =
    match k1, k2 with
    | Plan_cost (v1, p1), Plan_cost (v2, p2) -> v1 = v2 && Plan.equal p1 p2
    | Search (v1, b1, j1), Search (v2, b2, j2) ->
      v1 = v2 && List.equal base_equal b1 b2 && List.equal join_equal j1 j2
    | _ -> false

  let comb acc x = (acc * 31) + x

  let hash = function
    | Plan_cost (v, p) -> comb (Hashtbl.hash v) (Plan.hash p)
    | Search (v, bases, joins) ->
      (* relations, selections and join predicates: enough to spread keys *)
      let base acc (b : Optimizer.base) =
        comb (comb acc (Hashtbl.hash b.ref_)) (Pred.hash b.pred)
      in
      let join acc (_, _, p) = comb acc (Pred.hash p) in
      List.fold_left join (List.fold_left base (Hashtbl.hash v) bases) joins
      land max_int
end)

type estimates = {
  revision : int;
  root : (var * (float * Estimator.provenance)) list;
  submits : (float * float) option array;
}

type entry = {
  cost : float;
  verified : bool;
  estimates : estimates option;
}

(* A search key holds a join tree, a whole-plan key its entry. *)
type value = Joined of Plan.t | Costed of entry

(* [stamp] is the slot's insertion number, its place in the FIFO [order]. *)
type slot = {
  value : value;
  generation : int;
  stamp : int;
}

(* immutable, so a snapshot handed out is frozen: continuously polling
   consumers (metrics endpoints, the CLI) can never observe a torn state
   where hits + misses ≠ lookups *)
type counters = {
  hits : int;
  misses : int;     (* includes stale lookups *)
  stale : int;      (* entries dropped because the model changed *)
  evictions : int;  (* entries dropped by the capacity bound *)
  entries : int;    (* table size, filled in when a snapshot is taken *)
}

let zero = { hits = 0; misses = 0; stale = 0; evictions = 0; entries = 0 }

type t = {
  capacity : int;
  table : slot Tbl.t;
  (* FIFO order: the key of every live entry under its stamp, and nothing
     else — an entry leaves it with the entry, so it is bounded by the
     table. A re-added key takes a fresh stamp, so it goes to the back.
     [oldest] is at most the smallest live stamp; eviction walks forward
     from it, never back, so its walk is amortized O(1). *)
  order : (int, key) Hashtbl.t;
  mutable oldest : int;
  mutable tick : int;  (* the last stamp handed out *)
  mutable counts : counters;
  (* one lock over table + order + counters + stamps: every operation is a
     short critical section (hash probe, counter bump — no estimation
     work), and a single lock keeps the counters exact under concurrent
     access — hits + misses always equals lookups, an eviction is counted
     exactly once *)
  lock : Mutex.t;
}

let create ?(capacity = 4096) () =
  { capacity = max capacity 1;
    table = Tbl.create 256;
    order = Hashtbl.create 256;
    oldest = 1;
    tick = 0;
    counts = zero;
    lock = Mutex.create () }

let counters t =
  Mutex.protect t.lock (fun () -> { t.counts with entries = Tbl.length t.table })

let size t = Mutex.protect t.lock (fun () -> Tbl.length t.table)

let clear t =
  Mutex.protect t.lock (fun () ->
      Tbl.reset t.table;
      Hashtbl.reset t.order;
      t.oldest <- t.tick + 1;
      t.counts <- zero)

let lookup_key t registry key =
  Mutex.protect t.lock (fun () ->
      match Tbl.find_opt t.table key with
      | Some s when s.generation = Registry.generation registry ->
        t.counts <- { t.counts with hits = t.counts.hits + 1 };
        Some s.value
      | Some s ->
        Tbl.remove t.table key;
        Hashtbl.remove t.order s.stamp;
        let c = t.counts in
        t.counts <- { c with misses = c.misses + 1; stale = c.stale + 1 };
        None
      | None ->
        t.counts <- { t.counts with misses = t.counts.misses + 1 };
        None)

let store_key t registry key value =
  let generation = Registry.generation registry in
  Mutex.protect t.lock (fun () ->
      match Tbl.find_opt t.table key with
      | Some s ->
        (* replace in place, keeping the slot's stamp *)
        Tbl.replace t.table key { s with value; generation }
      | None ->
        (* stamps of dropped entries are gaps; skip them *)
        while Tbl.length t.table >= t.capacity do
          (match Hashtbl.find_opt t.order t.oldest with
           | Some victim ->
             Hashtbl.remove t.order t.oldest;
             Tbl.remove t.table victim;
             t.counts <- { t.counts with evictions = t.counts.evictions + 1 }
           | None -> ());
          t.oldest <- t.oldest + 1
        done;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.order t.tick key;
        Tbl.replace t.table key { value; generation; stamp = t.tick })

(* A whole-plan key only ever holds an entry. *)
let lookup t registry ~objective plan =
  match lookup_key t registry (Plan_cost (objective, plan)) with
  | Some (Costed e) -> Some e
  | Some (Joined _) | None -> None

let store t registry ~objective plan e =
  store_key t registry (Plan_cost (objective, plan)) (Costed e)

let find t registry ~objective plan =
  Option.map (fun e -> e.cost) (lookup t registry ~objective plan)

let add t registry ~objective plan cost =
  store t registry ~objective plan { cost; verified = false; estimates = None }

let search t registry ~objective ~available (spec : Optimizer.spec) run =
  let key = Search (objective, spec.bases, spec.joins) in
  match lookup_key t registry key with
  | Some (Joined plan) ->
    Optimizer.require_available spec ~available;
    `Cached plan
  | Some (Costed _) | None ->
    let ann = run () in
    store_key t registry key (Joined ann.Estimator.node);
    `Searched ann

(* The one validity rule of a record: nothing an estimate reads has been
   written since it was computed. *)
let current registry (e : estimates) = e.revision = Registry.revision registry

let pp_counters ppf t =
  let c = counters t in
  Fmt.pf ppf "hits %d, misses %d (stale %d), evictions %d, entries %d" c.hits
    c.misses c.stale c.evictions c.entries
