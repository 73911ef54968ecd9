(* Bounded admission queue: the server's backpressure point.

   [try_push] never blocks — when the queue is at depth, the job is
   refused immediately and the client gets a structured rejection instead
   of unbounded latency (the queue saturates exactly when the executor
   cannot keep up). [pop] blocks until a job or until [close]; a closed
   queue drains before reporting exhaustion, so accepted work is never
   dropped. Counters follow the immutable-snapshot discipline. *)

type counters = { pushed : int; rejected : int; popped : int }

type 'a t = {
  depth : int;
  q : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable pushed : int;
  mutable rejected : int;
  mutable popped : int;
}

let create ~depth =
  { depth = max 1 depth;
    q = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    pushed = 0;
    rejected = 0;
    popped = 0 }

let depth t = t.depth

let try_push t x =
  Mutex.protect t.lock (fun () ->
      if t.closed || Queue.length t.q >= t.depth then begin
        t.rejected <- t.rejected + 1;
        false
      end
      else begin
        Queue.push x t.q;
        t.pushed <- t.pushed + 1;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Mutex.protect t.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.q) then begin
          let x = Queue.pop t.q in
          t.popped <- t.popped + 1;
          Some x
        end
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.lock;
          wait ()
        end
      in
      wait ())

let close t =
  Mutex.protect t.lock (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = Mutex.protect t.lock (fun () -> Queue.length t.q)

let counters t =
  Mutex.protect t.lock (fun () ->
      { pushed = t.pushed; rejected = t.rejected; popped = t.popped })
