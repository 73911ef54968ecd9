(* The traced pass: spans recorded from outside the program, around calls
   into each layer's public functions, kept in memory and written out when
   the run ends.

   [replica] replays [Mediator.run_query]'s sequence step by step, so each
   step can be timed: parse -> resolve -> variants -> plan_of_variant per
   variant -> cost each candidate (through the plan cache, as run_query
   does) -> keep the cheapest, first wins ties -> estimate -> verify
   (memoized per plan and registry generation) -> to_physical ->
   Run.measure -> limit. run_query itself parses and resolves each query
   twice (once itself, once in its plan selection); the replica does it
   once, so the [sql] and [mediator] layers count one parse and one
   resolve. The benchmark runs the replica in lockstep with run_query on a
   twin mediator and fails when they disagree. *)

open Disco_algebra
open Disco_core
open Disco_exec
open Disco_mediator

type span = {
  name : string;
  query : int;
  parent : int;  (** index of the enclosing span, -1 for a query root *)
  start : float;
  stop : float;
  alloc : float;  (** minor-heap words allocated inside the span *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;  (** stack of the spans being recorded *)
  mutable query : int;
  t0 : float;
}

let dummy = { name = ""; query = 0; parent = -1; start = 0.; stop = 0.; alloc = 0. }

let create () =
  { spans = Array.make 4096 dummy; len = 0; open_ = []; query = 0; t0 = Unix.gettimeofday () }

let span tr name f =
  if tr.len = Array.length tr.spans then begin
    let bigger = Array.make (2 * tr.len) dummy in
    Array.blit tr.spans 0 bigger 0 tr.len;
    tr.spans <- bigger
  end;
  let idx = tr.len in
  tr.len <- idx + 1;
  let parent = match tr.open_ with p :: _ -> p | [] -> -1 in
  tr.open_ <- idx :: tr.open_;
  let a0 = Gc.minor_words () in
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      let alloc = Gc.minor_words () -. a0 in
      tr.open_ <- List.tl tr.open_;
      tr.spans.(idx) <- { name; query = tr.query; parent; start; stop; alloc })
    f

(* The layers, named after the modules whose functions the spans wrap. *)
let layers = [ "sql"; "mediator"; "optimizer"; "estimator"; "analysis"; "wrapper"; "exec" ]

type layer = { ms : float; share : float; alloc_kw : float }

(* Per-layer self time (a span's duration minus its children's; children
   run one after another inside their parent) and allocation, over the
   queries whose id satisfies [keep]. *)
let summarize tr ~keep =
  let child_ms = Array.make tr.len 0. and child_alloc = Array.make tr.len 0. in
  for i = 0 to tr.len - 1 do
    let s = tr.spans.(i) in
    if s.parent >= 0 then begin
      child_ms.(s.parent) <- child_ms.(s.parent) +. (s.stop -. s.start);
      child_alloc.(s.parent) <- child_alloc.(s.parent) +. s.alloc
    end
  done;
  (* per query: (query ms, per-layer self ms, per-layer self words) *)
  let per_query = Hashtbl.create 256 in
  let entry q =
    match Hashtbl.find_opt per_query q with
    | Some e -> e
    | None ->
      let e = (ref 0., Hashtbl.create 8, Hashtbl.create 8) in
      Hashtbl.replace per_query q e;
      e
  in
  let bump tbl k x =
    Hashtbl.replace tbl k (x +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  for i = 0 to tr.len - 1 do
    let s = tr.spans.(i) in
    if keep s.query then begin
      let total, ms, words = entry s.query in
      let self_ms = 1000. *. (s.stop -. s.start -. child_ms.(i)) in
      if s.parent < 0 then total := !total +. (1000. *. (s.stop -. s.start));
      bump ms s.name self_ms;
      bump words s.name (s.alloc -. child_alloc.(i))
    end
  done;
  let queries = Hashtbl.fold (fun _ e acc -> e :: acc) per_query [] in
  let traced_ms = List.fold_left (fun acc (total, _, _) -> acc +. !total) 0. queries in
  let per_layer name =
    let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl name) in
    let ms = List.map (fun (_, m, _) -> get m) queries in
    { ms = Stats.median ms;
      share = List.fold_left ( +. ) 0. ms /. traced_ms;
      alloc_kw = Stats.median (List.map (fun (_, _, w) -> get w /. 1000.) queries) }
  in
  (List.map (fun l -> (l, per_layer l)) layers,
   traced_ms /. float_of_int (max 1 (List.length queries)))

(* One JSON object per span and line; times in ms since the trace began. *)
let write tr path =
  let module J = Disco_server.Json in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to tr.len - 1 do
        let s = tr.spans.(i) in
        output_string oc
          (J.to_string
             (J.Obj
                [ ("span", J.Int i);
                  ("parent", J.Int s.parent);
                  ("query", J.Int s.query);
                  ("name", J.String s.name);
                  ("start_ms", J.Float (1000. *. (s.start -. tr.t0)));
                  ("end_ms", J.Float (1000. *. (s.stop -. tr.t0)));
                  ("alloc_words", J.Float s.alloc) ]));
        output_char oc '\n'
      done)

(* --- the replica ----------------------------------------------------------- *)

module Plan_tbl = Hashtbl.Make (struct
  type t = Plan.t

  let equal = Plan.equal_structural
  let hash = Plan.hash
end)

type replica = {
  med : Mediator.t;
  verified : int Plan_tbl.t;  (** plan -> registry generation it verified at *)
}

let replica med = { med; verified = Plan_tbl.create 64 }

type result = {
  plan : Plan.t;
  estimate : Estimator.ann;
  physical : Physical.t;
  rows : Tuple.t list;
  measured : Run.vector;
}

let var = Disco_costlang.Ast.Total_time

let cached_estimate med plan =
  let reg = Mediator.registry med in
  let fresh () = Option.get (Estimator.var (Estimator.estimate ~require_vars:[ var ] reg plan) var) in
  if not (Mediator.cache_enabled med) then fresh ()
  else
    let cache = Mediator.plancache med in
    match Plancache.find cache reg ~objective:var plan with
    | Some cost -> cost
    | None ->
      let cost = fresh () in
      Plancache.add cache reg ~objective:var plan cost;
      cost

let verify rep plan estimate =
  let reg = Mediator.registry rep.med in
  let gen = Registry.generation reg in
  match Plan_tbl.find_opt rep.verified plan with
  | Some g when g = gen -> ()
  | _ ->
    let module PC = Disco_analysis.Plancheck in
    let pc = PC.check ~ctx:`Mediator reg plan in
    let pb = if PC.errors pc <> [] then [] else Disco_analysis.Planbound.check_ann reg estimate in
    (match PC.errors (pc @ pb) with
     | [] ->
       if Plan_tbl.length rep.verified >= 4096 then Plan_tbl.reset rep.verified;
       Plan_tbl.replace rep.verified plan gen
     | errs -> raise (Mediator.Invalid_plan errs))

(* Availability decided once per source per query, as run_query does. *)
let availability med =
  let memo = Hashtbl.create 4 in
  fun s ->
    match Hashtbl.find_opt memo s with
    | Some b -> b
    | None ->
      let b = Health.available (Mediator.health med) ~now:(Mediator.now med) s in
      Hashtbl.replace memo s b;
      b

let run tr rep text =
  let med = rep.med in
  span tr "query" (fun () ->
      let q = span tr "sql" (fun () -> Disco_sql.Sql.parse text) in
      let available = availability med in
      let r, variants =
        span tr "mediator" (fun () ->
            let r = Mediator.resolve med q in
            Mediator.check_sources_available ~available med r;
            (r, Mediator.variants r))
      in
      let candidates =
        List.map
          (fun v ->
            let plan =
              span tr "optimizer" (fun () ->
                  Mediator.plan_of_variant ~objective:Optimizer.Total_time ~available med v)
            in
            (plan, span tr "estimator" (fun () -> cached_estimate med plan)))
          variants
      in
      let plan =
        match candidates with
        | [] -> raise (Disco_common.Err.Plan_error "no plan")
        | first :: rest ->
          fst (List.fold_left (fun best c -> if snd c < snd best then c else best) first rest)
      in
      let estimate =
        span tr "estimator" (fun () -> Estimator.estimate (Mediator.registry med) plan)
      in
      span tr "analysis" (fun () -> verify rep plan estimate);
      let physical = span tr "wrapper" (fun () -> Mediator.to_physical med plan) in
      let rows, measured =
        span tr "exec" (fun () -> Run.measure (Mediator.mediator_run_env med) physical)
      in
      let rows =
        match r.Mediator.limit with
        | Some n -> List.filteri (fun i _ -> i < n) rows
        | None -> rows
      in
      { plan; estimate; physical; rows; measured })
