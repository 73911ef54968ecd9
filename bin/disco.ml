(* The disco command-line interface: query and inspect the demo federation.

     dune exec bin/disco.exe -- query "select e.name from Employee e limit 5"
     dune exec bin/disco.exe -- explain "select * from Department d"
     dune exec bin/disco.exe -- registration web
     dune exec bin/disco.exe -- sources *)

open Cmdliner
open Disco_core
open Disco_exec
open Disco_wrapper
open Disco_mediator

(* --- shared options ---------------------------------------------------------- *)

let small_arg =
  let doc = "Use the small demo data set (fast)." in
  Arg.(value & flag & info [ "small" ] ~doc)

let seed_arg =
  let doc = "Seed for the deterministic data generator." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let history_arg =
  let doc = "Historical-cost mode: off, exact or adjust." in
  Arg.(value & opt string "off" & info [ "history" ] ~doc)

let no_rules_arg =
  let doc = "Register wrappers without their cost rules (generic model only)." in
  Arg.(value & flag & info [ "no-rules" ] ~doc)

let no_cache_arg =
  let doc =
    "Disable the plan cache; every query runs its plan search and every \
     plan is re-estimated from scratch."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let stats_arg =
  let doc =
    "Enable feedback-driven statistics: harvest wrapper samples into \
     equi-depth histograms at registration and fold observed cardinalities \
     back into per-predicate selectivity corrections (off by default; the \
     off path is bit-identical to builds without the subsystem)."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let fault_arg =
  let doc =
    "Install fault-injection profiles, e.g. \
     $(b,web:err=0.3@40,spike=0.2@500;files:outage=0-5000). Fields: seed=N, \
     spike=P@MS, err=P[@MS], stall=P, outage=A-B, stallwin=A-B (times in \
     simulated ms)."
  in
  Arg.(value & opt (some string) None & info [ "fault-profile" ] ~docv:"SPEC" ~doc)

let history_mode = function
  | "off" -> History.Off
  | "exact" -> History.Exact
  | "adjust" -> History.Adjust { smoothing = 0.6 }
  | other -> Fmt.failwith "unknown history mode %S (off|exact|adjust)" other

let objective_arg =
  let doc = "Optimization objective: total (complete answer) or first (first object)." in
  Arg.(value & opt string "total" & info [ "objective" ] ~doc)

let objective_of = function
  | "total" -> Optimizer.Total_time
  | "first" -> Optimizer.First_tuple
  | other -> Fmt.failwith "unknown objective %S (total|first)" other

(* The demo data set every command loads: --small and --seed. *)
let data_term = Term.(const (fun small seed -> (small, seed)) $ small_arg $ seed_arg)

let demo_wrappers (small, seed) =
  Demo.make ~seed ~sizes:(if small then Demo.small_sizes else Demo.default_sizes) ()

let make_mediator ?(history = "off") ?(no_rules = false) ?(no_cache = false)
    ?(stats = false) ?fault data =
  let wrappers = demo_wrappers data in
  let wrappers =
    if no_rules then List.map Wrapper.without_rules wrappers else wrappers
  in
  let stats_mode =
    if stats then Mediator.Stats_feedback History.default_feedback
    else Mediator.Stats_off
  in
  let med =
    Mediator.create ~history_mode:(history_mode history) ~cache:(not no_cache)
      ~stats_mode ()
  in
  List.iter (Mediator.register med) wrappers;
  (match fault with
   | None -> ()
   | Some spec ->
     List.iter
       (fun (source, profile) ->
         match List.find_opt (fun w -> w.Wrapper.name = source) wrappers with
         | Some w -> Wrapper.install_fault w profile
         | None -> Fmt.failwith "fault profile names unknown source %S" source)
       (Disco_fault.Fault.parse_spec spec));
  (med, wrappers)

(* The mediator of query, explain, analyze and serve: the demo federation
   under every mediator option. It is built on demand, inside the command's
   error handler, so a bad option value exits 1 like any handled error. *)
let mediator_term =
  let make data history no_rules no_cache stats fault () =
    make_mediator ~history ~no_rules ~no_cache ~stats ?fault data
  in
  Term.(
    const make $ data_term $ history_arg $ no_rules_arg $ no_cache_arg $ stats_arg
    $ fault_arg)

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"The query.")

let handle f =
  match Disco_common.Err.guard f with
  | Ok () -> 0
  | Error msg ->
    Fmt.epr "error: %s@." msg;
    1

(* --- query -------------------------------------------------------------------- *)

let query_cmd =
  let run mediator objective sql =
    handle (fun () ->
        let med, _ = mediator () in
        let a = Mediator.run_query ~objective:(objective_of objective) med sql in
        List.iter (fun row -> Fmt.pr "%a@." Tuple.pp_with_names row) a.Mediator.rows;
        Fmt.pr "-- %d rows, measured %a@."
          (List.length a.Mediator.rows)
          Run.pp_vector a.Mediator.measured;
        Fmt.pr "-- estimated TotalTime %.1f ms@."
          (Estimator.total_time a.Mediator.estimate);
        if a.Mediator.replans > 0 then begin
          Fmt.pr "-- recovered after %d replan(s):@." a.Mediator.replans;
          List.iter
            (fun f -> Fmt.pr "--   %a@." Run.pp_submit_failure f)
            a.Mediator.recovered
        end;
        if Mediator.cache_enabled med then
          Fmt.pr "-- plan cache: %a@." Plancache.pp_counters (Mediator.plancache med))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a query against the demo federation.")
    Term.(const run $ mediator_term $ objective_arg $ sql_arg)

(* --- explain ------------------------------------------------------------------- *)

let explain_cmd =
  let run mediator sql =
    handle (fun () ->
        let med, _ = mediator () in
        print_string (Mediator.explain med sql))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the chosen plan with per-node cost estimates and the scope of \
          the rule that produced each one.")
    Term.(const run $ mediator_term $ sql_arg)

(* --- analyze ------------------------------------------------------------------- *)

let analyze_cmd =
  let run mediator sql =
    handle (fun () ->
        let med, _ = mediator () in
        print_string (Mediator.analyze med sql))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Execute a query and compare estimated vs measured costs per subquery.")
    Term.(const run $ mediator_term $ sql_arg)

(* --- registration ----------------------------------------------------------------- *)

let registration_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Wrapper name (relstore, objstore, files, web).")
  in
  let run data source =
    handle (fun () ->
        match List.find_opt (fun w -> w.Wrapper.name = source) (demo_wrappers data) with
        | Some w -> print_endline (Wrapper.registration_text w)
        | None -> Fmt.failwith "unknown source %S" source)
  in
  Cmd.v
    (Cmd.info "registration"
       ~doc:
         "Print the cost-communication-language text a wrapper exports at \
          registration (schemas, statistics, cost rules).")
    Term.(const run $ data_term $ source)

(* --- check, lint, verify: the static checks -------------------------------------- *)

module Finding = Disco_analysis.Finding
module Json = Disco_server.Json

let check_cmd =
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Wrapper name (relstore, objstore, files, web).")
  in
  let run data source =
    handle (fun () ->
        match List.find_opt (fun w -> w.Wrapper.name = source) (demo_wrappers data) with
        | None -> Fmt.failwith "unknown source %S" source
        | Some w ->
          let findings =
            Disco_analysis.Check.check_source (Wrapper.registration_decl w)
          in
          if findings = [] then Fmt.pr "%s: export is clean@." source
          else List.iter (Fmt.pr "%a@." Finding.pp) findings)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically check a wrapper's registration export (rules, interfaces).")
    Term.(const run $ data_term $ source)

let fail_on_arg =
  let doc =
    "Exit non-zero when a finding at $(docv) or above is present: \
     $(b,error) fails on errors only, $(b,warning) also on warnings."
  in
  Arg.(
    value
    & opt (some (enum [ ("error", `Error); ("warning", `Warning) ])) None
    & info [ "fail-on" ] ~docv:"SEVERITY" ~doc)

let json_arg =
  let doc = "Write the findings as a JSON array to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

(* lint and verify report through one path: a line per finding, a count
   line after [summary], the JSON artifact, then the [--fail-on] gate. *)
let report ~what ~summary ~fail_on ~json findings =
  List.iter (Fmt.pr "%a@." Finding.pp) findings;
  let count s = List.length (Finding.of_severity s findings) in
  Fmt.pr "-- %s%d finding(s): %d error(s), %d warning(s), %d info@." summary
    (List.length findings) (count Finding.Error) (count Finding.Warning)
    (count Finding.Info);
  Option.iter
    (fun path ->
      let json = List.map Disco_server.Protocol.json_of_finding findings in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Json.List json) ^ "\n")))
    json;
  let nerrors = count Finding.Error and nwarnings = count Finding.Warning in
  match fail_on with
  | Some `Error when nerrors > 0 ->
    Fmt.failwith "%s failed (--fail-on error): %d error(s)" what nerrors
  | Some `Warning when nerrors + nwarnings > 0 ->
    Fmt.failwith "%s failed (--fail-on warning): %d error(s), %d warning(s)"
      what nerrors nwarnings
  | _ -> ()

(* The oo7 example export, blended into its own fresh model. *)
let oo7_registry config =
  let registry = Registry.create (Disco_catalog.Catalog.create ()) in
  Generic.register registry;
  let src = Disco_oo7.Oo7.make_source ~config ~with_rules:true () in
  ignore (Registry.register_source_decl registry (Wrapper.registration_decl src));
  registry

let lint_cmd =
  let run data no_rules fail_on json =
    handle (fun () ->
        let module A = Disco_analysis.Analyzer in
        (* the demo federation: generic model blended with the four wrapper
           exports (lint runs over every registered source, "default" and
           "mediator" included) *)
        let med, _ = make_mediator ~no_rules data in
        let demo = A.analyze (Mediator.registry med) in
        let oo7 =
          A.analyze_source (oo7_registry Disco_oo7.Oo7.small_config) ~source:"oo7"
        in
        report ~what:"lint" ~summary:"" ~fail_on ~json (demo @ oo7))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze the blended cost model of the demo federation \
          and the oo7 export: interval abstract interpretation (division by \
          zero, NaN, negative costs), rule shadowing and dead rules, \
          coverage of the five cost variables, and dependency cycles.")
    Term.(const run $ data_term $ no_rules_arg $ fail_on_arg $ json_arg)

let verify_cmd =
  let run data no_rules stats fail_on json =
    handle (fun () ->
        (* demo federation: optimize a representative query corpus and verify
           every chosen plan — typed well-formedness plus estimate bounds *)
        let med, _ = make_mediator ~stats ~no_rules data in
        let corpus =
          [ "select e.name from Employee e where e.salary > 5000";
            "select e.name, e.age from Employee e where e.age >= 30 order by e.age";
            "select e.name, d.city from Employee e, Department d \
             where e.dept_id = d.id and d.budget > 100000";
            "select p.id, t.hours from Project p, Task t \
             where t.project_id = p.id order by t.hours";
            "select d.id, count(*) as n from Employee e, Department d \
             where e.dept_id = d.id group by d.id";
            "select doc.doc_id from Document doc where doc.bytes > 1000";
            "select l.rating, e.name from Listing l, Employee e where l.emp_id = e.id";
            "select p.id, doc.doc_id from Project p, Document doc \
             where doc.project_id = p.id and p.cost > 100" ]
        in
        let tag label fs =
          List.map (fun (f : Finding.t) -> { f with where = label ^ "/" ^ f.where }) fs
        in
        let demo =
          List.concat_map
            (fun sql ->
              let plan, _ = Mediator.plan_query med sql in
              tag sql (Mediator.verify_plan med plan))
            corpus
        in
        (* oo7: the example export's own query workload, verified as the
           wrapper executes it (wrapper-side placement rules) *)
        let config = Disco_oo7.Oo7.small_config in
        let queries = Disco_oo7.Oo7.queries config in
        let oo7 =
          let registry = oo7_registry config in
          List.concat_map
            (fun (label, plan) ->
              tag ("oo7:" ^ label)
                (Disco_analysis.Plancheck.check ~ctx:(`Wrapper "oo7") registry plan
                 @ Disco_analysis.Planbound.check ~source:"oo7" registry plan))
            queries
        in
        report ~what:"verify"
          ~summary:
            (Fmt.str "verified %d demo plan(s), %d oo7 plan(s); "
               (List.length corpus) (List.length queries))
          ~fail_on ~json (demo @ oo7))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify whole plans over the demo and oo7 federations: \
          typed well-formedness of every optimizer-chosen plan (attribute \
          binding, operand and join-key types, projection shape, placement \
          and capabilities) plus interval cardinality/cost-bound validation \
          of its estimates (NaN, negative, divergent, non-monotone).")
    Term.(
      const run $ data_term $ no_rules_arg $ stats_arg $ fail_on_arg $ json_arg)

(* --- sources --------------------------------------------------------------------- *)

let sources_cmd =
  let run data =
    handle (fun () ->
        let med, wrappers = make_mediator data in
        List.iter
          (fun w ->
            Fmt.pr "source %s:@." w.Wrapper.name;
            List.iter
              (fun name ->
                let e =
                  Disco_catalog.Catalog.extent_stats (Mediator.catalog med)
                    ~source:w.Wrapper.name name
                in
                Fmt.pr "  %s %a@." name Disco_catalog.Stats.pp_extent e)
              (Wrapper.table_names w);
            Fmt.pr "  registered rules: %d@."
              (Registry.rule_count (Mediator.registry med) ~source:w.Wrapper.name))
          wrappers)
  in
  Cmd.v
    (Cmd.info "sources" ~doc:"List registered sources, collections and rule counts.")
    Term.(const run $ data_term)

(* --- health ---------------------------------------------------------------------- *)

let health_cmd =
  let probes_arg =
    let doc = "Probe submits per source." in
    Arg.(value & opt int 3 & info [ "probes" ] ~doc)
  in
  let run data fault probes =
    handle (fun () ->
        let med, wrappers = make_mediator ?fault data in
        (* probe each source with real submits (scan of its first collection)
           so timeouts, retries and breaker transitions actually happen *)
        List.iter
          (fun w ->
            match Wrapper.table_names w with
            | [] -> ()
            | collection :: _ ->
              let probe =
                Disco_algebra.Plan.Submit
                  ( w.Wrapper.name,
                    Disco_algebra.Plan.Scan
                      { Disco_algebra.Plan.source = w.Wrapper.name;
                        collection;
                        binding = "p" } )
              in
              for _ = 1 to probes do
                try ignore (Mediator.to_physical med probe)
                with Run.Submit_error _ -> ()
              done)
          wrappers;
        Fmt.pr "source     state                 ok  fail  retries  consec  probes  last error@.";
        List.iter
          (fun (r : Health.row) ->
            Fmt.pr "%-10s %-20s %3d  %4d  %7d  %6d  %6d  %s@." r.Health.source
              (Fmt.str "%a" Health.pp_state r.Health.row_state)
              r.Health.ok r.Health.failed r.Health.retried r.Health.consecutive
              r.Health.probed
              (Option.value ~default:"-" r.Health.error))
          (Health.report (Mediator.health med));
        Fmt.pr "-- simulated clock: %.0f ms@." (Mediator.now med))
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe each source with real submits under the configured fault \
          profiles and print the per-source health table (state, outcomes, \
          retries, circuit breaker).")
    Term.(const run $ data_term $ fault_arg $ probes_arg)

(* --- serve / metrics -------------------------------------------------------------- *)

module Server = Disco_server.Server
module Client = Disco_server.Client

let socket_arg =
  let doc = "Unix-domain socket path (ignored when --port is given)." in
  Arg.(value & opt string "/tmp/disco.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let host_arg =
  let doc = "TCP host to bind or connect to (with --port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "Serve over TCP on $(docv) instead of the unix socket." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let addr_of socket host port =
  match port with
  | Some port -> Server.Tcp { host; port }
  | None -> Server.Unix_socket socket

let serve_cmd =
  let queue_arg =
    let doc =
      "Admission-queue depth: queries beyond it are rejected immediately \
       with $(b,queue_full) (the backpressure point)."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Worker threads draining the admission queue." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-query deadline (wall-clock ms from receipt) for queries \
       that set none; expired-in-queue queries are rejected unexecuted."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let snapshot_arg =
    let doc =
      "Snapshot file for warm restarts: per-tenant histories, adjustment \
       factors and the simulated clock are restored on start and saved on \
       shutdown."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"PATH" ~doc)
  in
  let snapshot_every_arg =
    let doc = "Executed queries between periodic snapshots (0 disables)." in
    Arg.(value & opt int 32 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let no_verify_arg =
    let doc =
      "Disable whole-plan verification at query admission (on by default: \
       an invalid chosen plan is rejected with a typed protocol error)."
    in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let run mediator socket host port queue workers deadline snapshot snapshot_every
      no_verify =
    handle (fun () ->
        let med, _ = mediator () in
        let config =
          { Server.addr = addr_of socket host port;
            queue_depth = queue;
            workers;
            default_deadline_ms = deadline;
            snapshot_path = snapshot;
            snapshot_every;
            verify = not no_verify }
        in
        let srv = Server.create ~config med in
        Server.start srv;
        let shutdown _ = Server.stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        Server.wait srv)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent multi-tenant federation server: line-delimited \
          JSON queries over a unix or TCP socket, bounded admission with \
          backpressure, per-tenant history partitions, a shared plan cache, \
          /health and /metrics endpoints, and snapshot-based warm restarts.")
    Term.(
      const run $ mediator_term $ socket_arg $ host_arg $ port_arg $ queue_arg
      $ workers_arg $ deadline_arg $ snapshot_arg $ snapshot_every_arg
      $ no_verify_arg)

let metrics_cmd =
  let json_flag =
    let doc = "Print the raw JSON instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let iget path j = Option.value ~default:0 (Json.int_member path j) in
  let fget path j = Option.value ~default:0. (Json.float_member path j) in
  let run socket host port json =
    handle (fun () ->
        let c = Client.connect (addr_of socket host port) in
        let m = Client.metrics c in
        let h = Client.health c in
        Client.close c;
        if json then begin
          print_endline (Json.to_string m);
          print_endline (Json.to_string h)
        end
        else begin
          let server = Option.value ~default:Json.Null (Json.member "server" m) in
          let adm = Option.value ~default:Json.Null (Json.member "admission" m) in
          let pc = Option.value ~default:Json.Null (Json.member "plancache" m) in
          let st = Option.value ~default:Json.Null (Json.member "stats" m) in
          Fmt.pr "server    up %.1fs  received %d  admitted %d  completed %d  \
                  degraded %d  failed %d  in-flight %d@."
            (fget "uptime_s" server) (iget "received" server)
            (iget "admitted" server) (iget "completed" server)
            (iget "degraded" server) (iget "failed" server)
            (iget "in_flight" server);
          Fmt.pr "rejected  queue_full %d  deadline %d@."
            (iget "rejected_queue" server)
            (iget "rejected_deadline" server);
          let lat = Option.value ~default:Json.Null (Json.member "latency" server) in
          Fmt.pr "latency   p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  max %.1f ms  \
                  (%d samples)@."
            (fget "p50_ms" lat) (fget "p95_ms" lat) (fget "p99_ms" lat)
            (fget "max_ms" lat) (iget "samples" lat);
          Fmt.pr "admission depth %d  queued %d  pushed %d  rejected %d  popped %d@."
            (iget "depth" adm) (iget "queued" adm) (iget "pushed" adm)
            (iget "rejected" adm) (iget "popped" adm);
          Fmt.pr "plancache hits %d  misses %d  stale %d  evictions %d  entries %d@."
            (iget "hits" pc) (iget "misses" pc) (iget "stale" pc)
            (iget "evictions" pc) (iget "entries" pc);
          Fmt.pr "stats     generation %d  history records %d  tenants %d@."
            (iget "generation" st) (iget "history_records" st) (iget "tenants" st);
          let opt = Option.value ~default:Json.Null (Json.member "optimizer" m) in
          Fmt.pr "optimizer threshold %d  plans %d  aborted %d  csg-cmp \
                  pairs %d  dp entries %d@."
            (iget "enum_threshold" opt) (iget "plans_considered" opt)
            (iget "plans_aborted" opt) (iget "csg_cmp_pairs" opt)
            (iget "dp_entries" opt);
          (match Json.member "sources" h with
           | Some (Json.List sources) ->
             Fmt.pr "health    clock %.0f ms@." (fget "clock_ms" h);
             List.iter
               (fun s ->
                 let state =
                   match Json.member "state" s with
                   | Some (Json.String st) -> st
                   | Some (Json.Obj ((k, _) :: _)) -> k
                   | _ -> "?"
                 in
                 Fmt.pr "  %-10s %-10s ok %d  failed %d  retried %d  probes %d@."
                   (Option.value ~default:"?" (Json.string_member "source" s))
                   state (iget "ok" s) (iget "failed" s) (iget "retried" s)
                   (iget "probes" s))
               sources
           | _ -> ())
        end)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running server's /metrics and /health and print latency \
          percentiles, admission counters, plan-cache rates and per-source \
          breaker states.")
    Term.(const run $ socket_arg $ host_arg $ port_arg $ json_flag)

let () =
  (* warnings (a refused snapshot, a failed snapshot write, lint warnings at
     registration) go to stderr; stdout carries command output only. serve
     logs from its worker and accept threads. *)
  Logs_threaded.enable ();
  Logs.set_reporter (Logs_fmt.reporter ~dst:Fmt.stderr ());
  Logs.set_level (Some Logs.Warning);
  let info =
    Cmd.info "disco" ~version:"1.0.0"
      ~doc:
        "A mediator over heterogeneous data sources with an extensible, \
         blended cost model (reproduction of Naacke, Gardarin and Tomasic)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ query_cmd; explain_cmd; analyze_cmd; registration_cmd; check_cmd;
            lint_cmd; verify_cmd; sources_cmd; health_cmd; serve_cmd; metrics_cmd ]))
