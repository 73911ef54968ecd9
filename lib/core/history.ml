(* Dynamic cost-formula extensions (paper §4.3.1).

   Two mechanisms make the cost model learn from executed subqueries:

   - [Exact] caching: after a subplan executes, its measured cost vector is
     installed as a query-scope rule that matches that exact subplan. The
     next identical subquery is estimated with the real cost (the HERMES
     style of historical costs).

   - [Adjust] parameter adjustment: instead of storing per-query formulas,
     the ratio measured/estimated TotalTime of each executed subquery updates
     a per-source multiplicative factor by exponential smoothing. The generic
     [submit] rule applies the factor through the [adjust(W)] context
     function, so all formulas sharing the parameter benefit at once — the
     paper's answer to HERMES' proliferation of statistical information. *)

open Disco_costlang
open Disco_algebra

type mode = Off | Exact | Adjust of { smoothing : float }

(* Feedback-driven statistics (§4.3, DESIGN.md §11): estimated vs. measured
   cardinalities of executed subplans maintain per-predicate selectivity
   corrections in the registry, and sustained misestimation (drift) bumps the
   model generation so cached plans are re-planned. *)
type feedback = {
  band : float;       (* drift when est/actual leaves [1/band, band] *)
  consecutive : int;  (* k drifting observations in a row trigger *)
  smoothing : float;  (* EWMA weight of the newest correction *)
}

let default_feedback = { band = 2.0; consecutive = 3; smoothing = 0.5 }

type record = {
  plan : Plan.t;
  source : string;
  measured : (Ast.cost_var * float) list;
  estimated_total : float;
  (* predicted output cardinality when the plan was chosen; kept so a
     snapshot replay re-derives the same selectivity corrections and drift
     streaks the original observations produced *)
  estimated_count : float option;
}

type t = {
  registry : Registry.t;
  mode : mode;
  feedback : feedback option;
  on_drift : source:string -> unit;
  mutable records : record list;  (* newest first *)
  mutable count : int;  (* List.length records, kept by observe and forget *)
  (* consecutive drifting observations per (source, predicate); guarded
     by [lock] — observations arrive sequentially from one query's submits
     today, but the short-lock discipline keeps the subsystem safe if that
     ever changes (same pattern as [Registry]/[Health]). *)
  streaks : int Registry.Pred_tbl.t;
  lock : Mutex.t;
}

let create ?(mode = Off) ?feedback ?(on_drift = fun ~source:_ -> ()) registry =
  { registry;
    mode;
    feedback;
    on_drift;
    records = [];
    count = 0;
    streaks = Registry.Pred_tbl.create 16;
    lock = Mutex.create () }

let mode t = t.mode

let records t = List.rev t.records

let count t = t.count

let newest t n =
  let rec take n acc = function
    | r :: rest when n > 0 -> take (n - 1) (r :: acc) rest
    | _ -> acc
  in
  take n [] t.records

(* The predicate whose selectivity the observation measures: the outermost
   selection of the executed subplan. Joins and bare scans carry no single
   predicate-selectivity signal and do not update corrections or streaks. *)
let rec select_pred (p : Plan.t) =
  match p with
  | Plan.Select (_, pred) -> Some pred
  | Plan.Project (q, _) | Plan.Sort (q, _) | Plan.Dedup q
  | Plan.Submit (_, q) | Plan.Aggregate (q, _) ->
    select_pred q
  | Plan.Scan _ | Plan.Join _ | Plan.Union _ -> None

(* One estimated-vs-actual cardinality observation. Corrections move by
   exponential smoothing toward the factor that would have made the estimate
   exact; drift (ratio outside the band for [consecutive] observations of
   the same predicate) resets the streak, invalidates the model generation —
   the single bump republishing all accumulated corrections to cached
   plans — and hands the source to [on_drift] for histogram recalibration. *)
let feed_cardinality t ~source ~plan ~actual ~estimated =
  match t.feedback with
  | None -> ()
  | Some fb ->
    (match select_pred plan with
     | None -> ()
     | Some pred ->
       let key = (source, pred) in
       let ratio = (estimated +. 1.) /. (actual +. 1.) in
       let old_fix = Registry.sel_fix t.registry ~source pred in
       let target = old_fix /. ratio in
       let fix = (fb.smoothing *. target) +. ((1. -. fb.smoothing) *. old_fix) in
       if Float.is_finite fix && fix > 0. then
         Registry.set_sel_fix t.registry ~source pred fix;
       let drifting = ratio > fb.band || ratio < 1. /. fb.band in
       let fire =
         Mutex.protect t.lock (fun () ->
             let module S = Registry.Pred_tbl in
             if not drifting then begin
               S.replace t.streaks key 0;
               false
             end
             else begin
               let n = 1 + Option.value ~default:0 (S.find_opt t.streaks key) in
               if n >= fb.consecutive then begin
                 S.replace t.streaks key 0;
                 true
               end
               else begin
                 S.replace t.streaks key n;
                 false
               end
             end)
       in
       if fire then begin
         Registry.invalidate t.registry;
         t.on_drift ~source
       end)

(* Feed back the measured costs of an executed wrapper subquery. [plan] is
   the subplan that was submitted (without the submit node itself). *)
let observe ?estimated_count t ~source ~(plan : Plan.t) ~measured ~estimated_total =
  t.records <-
    { plan; source; measured; estimated_total; estimated_count } :: t.records;
  t.count <- t.count + 1;
  (match (estimated_count, List.assoc_opt Ast.Count_object measured) with
   | Some estimated, Some actual when estimated >= 0. && actual >= 0. ->
     feed_cardinality t ~source ~plan ~actual ~estimated
   | _ -> ());
  match t.mode with
  | Off -> ()
  | Exact -> ignore (Registry.add_query_rule t.registry ~source plan measured)
  | Adjust { smoothing } ->
    (match List.assoc_opt Ast.Total_time measured with
     | None -> ()
     | Some real when real <= 0. || estimated_total <= 0. -> ()
     | Some real ->
       let ratio = real /. estimated_total in
       let old_factor = Registry.adjust t.registry ~source in
       (* the estimate already includes the current factor; the raw model
          error is ratio * old_factor *)
       let target = ratio *. old_factor in
       let factor = (smoothing *. target) +. ((1. -. smoothing) *. old_factor) in
       Registry.set_adjust t.registry ~source factor)

let forget t =
  t.records <- [];
  t.count <- 0;
  Mutex.protect t.lock (fun () -> Registry.Pred_tbl.reset t.streaks);
  List.iter
    (fun source ->
      Registry.remove_query_rules t.registry ~source;
      Registry.set_adjust t.registry ~source 1.;
      Registry.clear_sel_fixes t.registry ~source)
    (Disco_catalog.Catalog.source_names (Registry.catalog t.registry))
