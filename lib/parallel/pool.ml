let max_domains = 64

type t = { degree : int }

let create n = { degree = max 1 (min n max_domains) }
let degree t = t.degree

let env_domains () =
  match Sys.getenv_opt "DISCO_DOMAINS" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> max 1 (min n max_domains)
     | None -> 1)

(* One shared worker set for the whole process. A worker owns a mailbox
   (mutex + condition + job slot); the master hands it a thunk and waits for
   the slot to empty again. Workers are spawned lazily up to the largest
   degree any [run] has needed and joined at exit. *)

type mailbox = {
  m : Mutex.t;
  cv : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
}

type worker = { box : mailbox; domain : unit Domain.t }

(* Serializes worker spawning and fork/join rounds: only one [run] at a time
   owns the worker set. Nested calls never take it (they run inline). *)
let client_lock = Mutex.create ()
let workers : worker list ref = ref []

let worker_loop (b : mailbox) =
  let continue = ref true in
  while !continue do
    Mutex.lock b.m;
    while b.job = None && not b.stop do
      Condition.wait b.cv b.m
    done;
    if b.stop then begin
      Mutex.unlock b.m;
      continue := false
    end
    else begin
      let f = Option.get b.job in
      Mutex.unlock b.m;
      (* [f] traps its own exceptions; a raise here would kill the worker. *)
      (try f () with _ -> ());
      Mutex.lock b.m;
      b.job <- None;
      Condition.broadcast b.cv;
      Mutex.unlock b.m
    end
  done

let spawn_worker () =
  let box =
    { m = Mutex.create (); cv = Condition.create (); job = None; stop = false }
  in
  { box; domain = Domain.spawn (fun () -> worker_loop box) }

(* Ensure at least [n] workers exist; caller holds [client_lock]. Returns
   the first [n] in a stable order so slot [s] always maps to the same
   worker within a round. *)
let ensure_workers n =
  while List.length !workers < n do
    workers := !workers @ [ spawn_worker () ]
  done;
  Array.of_list !workers

let submit w f =
  let b = w.box in
  Mutex.lock b.m;
  b.job <- Some f;
  Condition.broadcast b.cv;
  Mutex.unlock b.m

let await w =
  let b = w.box in
  Mutex.lock b.m;
  while b.job <> None do
    Condition.wait b.cv b.m
  done;
  Mutex.unlock b.m

let shutdown () =
  Mutex.lock client_lock;
  let ws = !workers in
  workers := [];
  Mutex.unlock client_lock;
  List.iter
    (fun w ->
      let b = w.box in
      Mutex.lock b.m;
      b.stop <- true;
      Condition.broadcast b.cv;
      Mutex.unlock b.m)
    ws;
  List.iter (fun w -> Domain.join w.domain) ws

let () = at_exit shutdown

(* True inside a pool task: a nested [run] must execute inline rather than
   wait on workers that may themselves be waiting on it. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let run t f n =
  if n <= 0 then [||]
  else
    let p = min t.degree n in
    if p <= 1 || Domain.DLS.get in_task then Array.init n f
    else begin
      let results = Array.make n None in
      let errors = Array.make p None in
      let run_slot slot =
        Domain.DLS.set in_task true;
        let i = ref slot in
        while !i < n do
          (match errors.(slot) with
           | Some _ -> () (* slot already failed: skip its remaining tasks *)
           | None -> (
             try results.(!i) <- Some (f !i)
             with e ->
               errors.(slot) <- Some (e, Printexc.get_raw_backtrace ())));
          i := !i + p
        done;
        Domain.DLS.set in_task false
      in
      Mutex.lock client_lock;
      let ws =
        match ensure_workers (p - 1) with
        | ws -> ws
        | exception e ->
          Mutex.unlock client_lock;
          raise e
      in
      for s = 1 to p - 1 do
        submit ws.(s - 1) (fun () -> run_slot s)
      done;
      run_slot 0;
      for s = 1 to p - 1 do
        await ws.(s - 1)
      done;
      Mutex.unlock client_lock;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        errors;
      Array.map
        (function
          | Some v -> v
          | None -> assert false)
        results
    end

let chunk p xs =
  let len = List.length xs in
  if len = 0 then [||]
  else begin
    let p = max 1 (min p len) in
    let base = len / p and extra = len mod p in
    let chunks = Array.make p [] in
    let rest = ref xs in
    for c = 0 to p - 1 do
      let size = base + if c < extra then 1 else 0 in
      let taken = ref [] in
      for _ = 1 to size do
        match !rest with
        | x :: tl ->
          taken := x :: !taken;
          rest := tl
        | [] -> assert false
      done;
      chunks.(c) <- List.rev !taken
    done;
    chunks
  end
