(* Federation walkthrough: what the wrappers actually export at registration
   time, and how the blended cost model changes the optimizer's decisions
   compared to the generic-only model.

     dune exec examples/federation.exe *)

open Disco_core
open Disco_wrapper
open Disco_mediator

let hr () = print_endline (String.make 72 '-')

let () =
  let wrappers = Demo.make ~sizes:Demo.small_sizes () in

  (* 1. What a wrapper ships to the mediator during registration: the
     cost-communication-language text of paper §3 — interfaces with
     cardinality sections, plus cost rules. *)
  hr ();
  print_endline "Registration text exported by the 'web' wrapper:";
  hr ();
  let web = List.find (fun w -> w.Wrapper.name = "web") wrappers in
  print_endline (Wrapper.registration_text web);

  (* 2. Two mediators over the same data: one receives the wrappers' cost
     rules, the other only their statistics (the calibrating baseline). *)
  let blended = Mediator.create () in
  List.iter (Mediator.register blended) wrappers;
  let generic = Mediator.create () in
  List.iter
    (Mediator.register generic)
    (List.map Wrapper.without_rules (Demo.make ~sizes:Demo.small_sizes ()));

  (* 3. The strategy-mismatch query (bench T2/Q4): the generic model assumes
     every source implements a cheap sort-merge join; the object store only
     has nested-loop and index joins, and its exported rule says so. *)
  let query =
    "select t.id from Task t, Project p \
     where t.hours = p.hours_budget and t.id <= 50 and p.id <= 10"
  in
  hr ();
  Fmt.pr "Query: %s@." query;
  hr ();
  let show label med =
    let plan, cost = Mediator.plan_query med query in
    Fmt.pr "%s cost model chooses (estimated %.0f ms):@.%a@." label cost
      Disco_algebra.Plan.pp_indented plan
  in
  show "GENERIC" generic;
  show "BLENDED" blended;

  (* 4. Execute both mediators' choices and compare the simulated time. *)
  let run label med =
    let a = Mediator.run_query med query in
    Fmt.pr "%s plan measured: %a@." label Disco_exec.Run.pp_vector a.Mediator.measured;
    a.Mediator.measured.Disco_exec.Run.total_time
  in
  let tg = run "GENERIC" generic in
  let tb = run "BLENDED" blended in
  Fmt.pr "speedup from wrapper cost rules: %.2fx@." (tg /. tb);

  (* 5. Where each estimate came from: the explain output annotates every
     node with the scope of the rule that priced it. *)
  hr ();
  print_endline "Blended explain (note wrapper/collection scopes):";
  hr ();
  print_string (Mediator.explain blended query);
  (* provenance of a single estimate *)
  let plan, _ = Mediator.plan_query blended query in
  let ann = Estimator.estimate (Mediator.registry blended) plan in
  (match Estimator.provenance ann Disco_costlang.Ast.Total_time with
   | Some p ->
     Fmt.pr "root TotalTime priced by a %s-scope rule of source %S@."
       (Scope.to_string p.Estimator.rule_scope)
       p.Estimator.rule_source
   | None -> ());

  (* 6. Static analysis of the blended model: the same lint pass that backs
     [disco lint] and that [Mediator.register] logs, run in-process. The
     demo exports are deliberately clean — every finding is informational
     (shadowed defaults, min-combined ties, partial coverage with generic
     fallback). A wrapper whose rules can divide by zero or drive a cost
     negative still registers, since only the registration check
     ([Disco_analysis.Check]) refuses an export; lint reports it, and
     [disco lint --fail-on error] fails on it. *)
  hr ();
  print_endline "Lint findings over the blended model:";
  hr ();
  let module F = Disco_analysis.Finding in
  let findings = Disco_analysis.Analyzer.analyze (Mediator.registry blended) in
  let count sev = List.length (F.of_severity sev findings) in
  List.iter (fun f -> Fmt.pr "%a@." F.pp f)
    (List.filter (fun f -> f.F.severity <> F.Info) findings);
  Fmt.pr "%d findings: %d errors, %d warnings, %d info@."
    (List.length findings) (count F.Error) (count F.Warning) (count F.Info)
