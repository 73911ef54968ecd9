(* The benchmark's four workloads. Each one is a query corpus plus the
   federation it runs against, both generated from the run's seed; why each
   workload exists is recorded in README.md and BENCHMARK.json. *)

open Disco_core
open Disco_wrapper
open Disco_mediator

type t = {
  corpus : string array;  (** the distinct queries, in seeded order *)
  copies : int;  (** copies of the corpus in one round *)
  round_s : float;
      (** a round's wall seconds on the reference host, checks and
          collection included: a run of S seconds measures S / round_s
          rounds, the same work on every commit *)
  served : bool;  (** run through an in-process [disco serve] *)
  build : unit -> Mediator.t * Wrapper.t list;
      (** data generation and registration: the set-up the benchmark times *)
  reference : unit -> Mediator.t option;
      (** a separate mediator for the answer oracle, for workloads that write
          model state; [None] runs the oracle on the timed mediator *)
}

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* One round's query sequence: [copies] of the corpus, shuffled by a stream
   that depends only on the seed and the round number. *)
let round_queries w ~seed ~round =
  let a = Array.concat (List.init w.copies (fun _ -> w.corpus)) in
  shuffle (rng seed (1000 + round)) a;
  a

let mediator ?history_mode ?stats_mode wrappers =
  let med = Mediator.create ?history_mode ?stats_mode () in
  List.iter (Mediator.register med) wrappers;
  (med, wrappers)

(* --- oo7-paper ------------------------------------------------------------ *)

(* The paper's §5 mix over one OO7 source: an exact match, id range scans of
   0.1, 1 and 10 %, a low-selectivity buildDate scan, a Document to
   CompositePart join, and 2-, 3- and 4-way path joins from AtomicPart.
   Ranges are one-sided with fixed selectivities (ids are a permutation of
   1..n, buildDate is uniform on [0, 1000)): a range the seed placed would
   change both the cost and the estimate's error from seed to seed. The
   seed picks the data and the exact-match key. Nine queries, an odd
   count: with an even one the median latency and q-error fall between
   two query kinds and jump between them from run to run. *)
let oo7_corpus ~seed (cfg : Disco_oo7.Oo7.config) =
  let n = cfg.Disco_oo7.Oo7.atomic_parts in
  let ids frac = max 1 (int_of_float (float_of_int n *. frac)) in
  let id_range frac =
    Printf.sprintf "select a.id, a.buildDate from AtomicPart a where a.id <= %d" (ids frac)
  in
  [| Printf.sprintf "select a.id, a.x, a.y from AtomicPart a where a.id = %d"
       (1 + Random.State.int (rng seed 7) n);
     id_range 0.001;
     id_range 0.01;
     id_range 0.1;
     "select a.id from AtomicPart a where a.buildDate >= 100";
     Printf.sprintf
       "select d.id, p.buildDate from Document d, CompositePart p \
        where d.partId = p.id and d.id <= %d"
       (max 1 (cfg.Disco_oo7.Oo7.documents / 10));
     Printf.sprintf
       "select a.id, c.toId from AtomicPart a, Connection c \
        where c.fromId = a.id and a.id <= %d" (ids 0.01);
     "select a.id, d.title from AtomicPart a, CompositePart p, Document d \
      where a.partOf = p.id and d.partId = p.id and a.buildDate < 10";
     "select a.id, d.id from AtomicPart a, Connection c, CompositePart p, Document d \
      where c.fromId = a.id and a.partOf = p.id and d.partId = p.id \
      and a.buildDate < 10 and c.length < 50" |]

let oo7 ~seed ~smoke =
  let base = if smoke then Disco_oo7.Oo7.small_config else Disco_oo7.Oo7.paper_config in
  let cfg = { base with Disco_oo7.Oo7.seed } in
  { corpus = oo7_corpus ~seed cfg;
    copies = 2;
    round_s = 0.6;
    served = false;
    build = (fun () -> mediator [ Disco_oo7.Oo7.make_source ~config:cfg () ]);
    reference = (fun () -> None) }

(* --- federation-warm and serve-feedback ----------------------------------- *)

(* The `disco verify` corpus, a 3-way cross-source join, and an ADT query
   whose expensive predicate gives [Mediator.variants] two placements. No
   LIMIT without ORDER BY: every answer is plan-independent. *)
let federation_corpus =
  [| "select e.name from Employee e where e.salary > 5000";
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
      where doc.project_id = p.id and p.cost > 100";
     "select e.name, p.id from Employee e, Department d, Project p \
      where e.dept_id = d.id and p.dept_id = d.id and d.budget > 450000 \
      and e.age < 25";
     "select doc.doc_id from Project p, Document doc \
      where p.cost < 5300 and doc.project_id = p.id and lang_match(doc.lang, \"en\")" |]

let federation ~seed ~smoke =
  let sizes = if smoke then Demo.small_sizes else Demo.default_sizes in
  let corpus = Array.copy federation_corpus in
  shuffle (rng seed 11) corpus;
  { corpus;
    copies = 4;
    round_s = 0.6;
    served = false;
    build = (fun () -> mediator (Demo.make ~seed ~sizes ()));
    reference = (fun () -> None) }

let serve ~seed ~smoke =
  let w = federation ~seed ~smoke:true in
  { w with
    copies = (if smoke then 2 else 10);
    round_s = 0.2;
    served = true;
    build =
      (fun () ->
        mediator
          ~history_mode:(History.Adjust { smoothing = 0.5 })
          ~stats_mode:(Mediator.Stats_feedback History.default_feedback)
          (Demo.make ~seed ~sizes:Demo.small_sizes ()));
    reference =
      (fun () -> Some (fst (mediator (Demo.make ~seed ~sizes:Demo.small_sizes ())))) }

(* --- wide-join -------------------------------------------------------------- *)

(* The n-way join over [Demo.synthetic_edges], with each foreign-key edge
   read parent-to-child ([r{a}.fk = r{b}.id]): ids are unique, so every
   join keeps at most one partner per row and answers stay non-empty on
   any tree shape ([Demo.synthetic_sql] reads the edges the other way, and
   its stars come back empty). Selections on every eighth relation. *)
let wide_sql ~seed ~shape ~n =
  let edges = Demo.synthetic_edges ~shape ~n ~seed in
  let joins =
    List.map
      (fun (a, b, kind) ->
        match kind with
        | `Fk -> Printf.sprintf "r%d.fk = r%d.id" a b
        | `Grp -> Printf.sprintf "r%d.grp = r%d.grp" a b)
      edges
  in
  let selects =
    List.filter_map
      (fun i -> if i mod 8 = 2 then Some (Printf.sprintf "r%d.v > 300" i) else None)
      (List.init n Fun.id)
  in
  Printf.sprintf "select r0.id, r%d.v from %s where %s" (n - 1)
    (String.concat ", " (List.init n (fun i -> Printf.sprintf "Rel%d r%d" i i)))
    (String.concat " and " (joins @ selects))

(* A fixed pool: slot i fixes the shape (chain, star, random edges), the
   width (17..24 relations) and the graph. The seed picks the data and the
   order: pools of random graphs drawn per seed differed by a fifth in
   planner work, more than the bounds allow. *)
let wide ~seed ~smoke =
  let sources = 24 in
  let pool = if smoke then 3 else 16 in
  let corpus =
    Array.init pool (fun i ->
        let shape =
          match i mod 3 with 0 -> Demo.Chain | 1 -> Demo.Star | _ -> Demo.Random_edges 1
        in
        wide_sql ~seed:i ~shape ~n:(sources - 7 + (i * 5 mod 8)))
  in
  shuffle (rng seed 13) corpus;
  { corpus;
    copies = 1;
    round_s = 0.55;
    served = false;
    build = (fun () -> mediator (Demo.synthetic ~seed ~rows:50 ~n:sources ()));
    reference = (fun () -> None) }

let all =
  [ ("oo7-paper", oo7); ("federation-warm", federation); ("wide-join", wide);
    ("serve-feedback", serve) ]

let names = List.map fst all
let make name ~seed ~smoke = Option.map (fun w -> w ~seed ~smoke) (List.assoc_opt name all)
