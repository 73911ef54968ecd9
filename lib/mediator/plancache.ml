(* Cross-query plan cache: plan-search results and whole-plan costs in one
   generation-stamped table (contract in plancache.mli).

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

(* [plan] is a search entry's join tree, or a whole-plan entry's own plan.
   [verified] and [estimates] are only ever set on whole-plan entries.
   [stamp] is the entry's insertion number, its slot in the FIFO [order]. *)
type entry = {
  plan : Plan.t;
  cost : float;
  generation : int;
  stamp : int;
  verified : bool;
  estimates : estimates option;
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
  table : entry Tbl.t;
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

let lookup t registry key =
  Mutex.protect t.lock (fun () ->
      match Tbl.find_opt t.table key with
      | Some e when e.generation = Registry.generation registry ->
        t.counts <- { t.counts with hits = t.counts.hits + 1 };
        Some e
      | Some e ->
        Tbl.remove t.table key;
        Hashtbl.remove t.order e.stamp;
        let c = t.counts in
        t.counts <- { c with misses = c.misses + 1; stale = c.stale + 1 };
        None
      | None ->
        t.counts <- { t.counts with misses = t.counts.misses + 1 };
        None)

let store t registry key plan cost =
  let generation = Registry.generation registry in
  Mutex.protect t.lock (fun () ->
      match Tbl.find_opt t.table key with
      | Some e ->
        (* refresh in place, keeping the entry's stamp; a verification
           and an estimate record hold only within their generation *)
        let same = e.generation = generation in
        Tbl.replace t.table key
          { e with plan; cost; generation;
                   verified = e.verified && same;
                   estimates = (if same then e.estimates else None) }
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
        Tbl.replace t.table key
          { plan; cost; generation; stamp = t.tick; verified = false;
            estimates = None })

let find t registry ~objective plan =
  Option.map (fun e -> e.cost) (lookup t registry (Plan_cost (objective, plan)))

let add t registry ~objective plan cost =
  store t registry (Plan_cost (objective, plan)) plan cost

let search t registry ~objective ~available (spec : Optimizer.spec) run =
  let key = Search (objective, spec.bases, spec.joins) in
  match lookup t registry key with
  | Some e ->
    Optimizer.require_available spec ~available;
    (e.plan, e.cost)
  | None ->
    let ((plan, cost) as result) = run () in
    store t registry key plan cost;
    result

(* The whole-plan entry of [plan] stamped [generation]. Reading or writing
   its verified flag or estimate record is not a lookup: the counters do
   not move. Call under the lock. *)
let plan_entry t ~generation ~objective plan =
  let key = Plan_cost (objective, plan) in
  match Tbl.find_opt t.table key with
  | Some e when e.generation = generation -> Some (key, e)
  | _ -> None

(* [check] runs outside the lock, and its outcome is recorded only on an
   entry of the generation it was checked at. *)
let ensure_verified t registry ~objective plan check =
  let generation = Registry.generation registry in
  let entry () = plan_entry t ~generation ~objective plan in
  match Mutex.protect t.lock entry with
  | Some (_, e) when e.verified -> ()
  | _ ->
    check ();
    Mutex.protect t.lock (fun () ->
        Option.iter
          (fun (key, e) -> Tbl.replace t.table key { e with verified = true })
          (entry ()))

(* The one validity rule of a record: nothing an estimate reads has been
   written since it was computed. *)
let current registry (e : estimates) = e.revision = Registry.revision registry

let estimates t registry ~objective plan =
  let generation = Registry.generation registry in
  Mutex.protect t.lock (fun () ->
      match plan_entry t ~generation ~objective plan with
      | Some (_, { estimates = Some e; _ }) when current registry e -> Some e
      | _ -> None)

let set_estimates t registry ~objective plan e =
  let generation = Registry.generation registry in
  Mutex.protect t.lock (fun () ->
      Option.iter
        (fun (key, entry) -> Tbl.replace t.table key { entry with estimates = Some e })
        (plan_entry t ~generation ~objective plan))

let pp_counters ppf t =
  let c = counters t in
  Fmt.pf ppf "hits %d, misses %d (stale %d), evictions %d, entries %d" c.hits
    c.misses c.stale c.evictions c.entries
