(* Warm-restart snapshots.

   What makes a freshly started server "cold" is not the catalog or the
   rules — registration rebuilds those from the wrappers — but the learned
   state the paper's dynamic extensions (§4.3) accumulate from traffic:
   per-tenant history records, the per-source adjustment factors they
   produced, and the simulated clock the breaker cooldowns live on. A
   snapshot captures exactly that; [restore] replays every record through
   [History.observe] on a fresh mediator, re-deriving query-scope rules,
   adjustment factors, selectivity corrections and drift streaks, then
   pins the per-source adjustment factors to their snapshotted values
   (replay is per tenant, so cross-tenant interleaving of Adjust smoothing
   is not reproduced exactly — the pinned factors are).

   The format is a magic line + version, the MD5 digest of the payload,
   then the payload: a [Marshal]ed [state]. Plans and predicates are pure
   data, so marshalling is safe; the magic/version check refuses snapshots
   from other builds instead of crashing on a layout change, and the digest
   refuses a damaged file before [Marshal] reads it ([Marshal] trusts its
   input: a flipped byte can crash the process or load a wrong state). A
   forged file with a matching digest is not caught. *)

open Disco_core
open Disco_mediator

let magic = "disco-snapshot"
let version = 2

type tenant_state = {
  tenant : string;
  records : History.record list;  (* oldest first, as History.records *)
}

type state = {
  saved_at : float;    (* Unix time of the save *)
  clock_ms : float;    (* the mediator's simulated clock *)
  generation : int;    (* registry generation at save, informational *)
  tenants : tenant_state list;
  adjusts : (string * float) list;  (* per-source adjustment factors != 1 *)
}

let capture med ~(tenants : (string * History.t) list) : state =
  let registry = Mediator.registry med in
  { saved_at = Unix.gettimeofday ();
    clock_ms = Mediator.now med;
    generation = Registry.generation registry;
    tenants =
      List.map
        (fun (tenant, h) -> { tenant; records = History.records h })
        (List.sort (fun (a, _) (b, _) -> String.compare a b) tenants);
    adjusts =
      List.filter_map
        (fun source ->
          let f = Registry.adjust registry ~source in
          if f <> 1. then Some (source, f) else None)
        (Registry.sources registry) }

let save ~path (s : state) =
  let payload = Marshal.to_string s [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc magic;
  output_char oc '\n';
  output_binary_int oc version;
  Digest.output oc (Digest.string payload);
  output_string oc payload;
  close_out oc;
  Sys.rename tmp path  (* atomic replace: a crash never truncates the old one *)

let load ~path : (state, string) result =
  if not (Sys.file_exists path) then Error "no snapshot file"
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error "truncated snapshot"
        | line when line <> magic -> Error "not a disco snapshot"
        | _ -> (
          match input_binary_int ic with
          | exception End_of_file -> Error "truncated snapshot"
          | v when v <> version ->
            Error (Printf.sprintf "snapshot version %d, expected %d" v version)
          | _ -> (
            match Digest.input ic with
            | exception End_of_file -> Error "truncated snapshot"
            | digest ->
              let payload = In_channel.input_all ic in
              if not (String.equal (Digest.string payload) digest) then
                Error "corrupt snapshot payload (digest mismatch)"
              else
                match (Marshal.from_string payload 0 : state) with
                | s -> Ok s
                | exception _ -> Error "corrupt snapshot payload")))

(* Replay one tenant's records into a history partition, oldest first. *)
let replay_tenant (h : History.t) (ts : tenant_state) =
  List.iter
    (fun (r : History.record) ->
      History.observe ?estimated_count:r.History.estimated_count h
        ~source:r.History.source ~plan:r.History.plan ~measured:r.History.measured
        ~estimated_total:r.History.estimated_total)
    ts.records

let restore med ~(fresh_tenant : string -> History.t) (s : state) :
    (string * History.t) list =
  let tenants =
    List.map
      (fun ts ->
        let h = fresh_tenant ts.tenant in
        replay_tenant h ts;
        (ts.tenant, h))
      s.tenants
  in
  (* pin the registry-level factors to their snapshotted values: replay
     re-derived close approximations, this makes them exact *)
  let registry = Mediator.registry med in
  List.iter (fun (source, f) -> Registry.set_adjust registry ~source f) s.adjusts;
  Mediator.set_now med s.clock_ms;
  tenants
