(* An LRU buffer pool. The executor routes every page access through it; a
   miss counts one physical IO. This is what makes repeated accesses to the
   same page cheaper than the naive one-IO-per-object model.

   The pool is an exact LRU kept in slot arrays. Slot [s] holds one resident
   page: its table's interned id ([tid]) and page number ([page]), and its
   neighbours in an intrusive doubly linked recency list ([prev] towards the
   most recent slot at [head], [next] towards the least recent at [tail]).
   An open-addressing table with linear probing maps (table id, page) to
   slot + 1, 0 marking an empty position. A hit relinks one slot; a miss on
   a full pool reuses the tail slot. No access allocates, and the pool's
   size is bounded by its capacity however many accesses it serves. The
   slot arrays double up to [capacity] as pages arrive, so a pool that only
   ever holds a few pages stays small. *)

type t = {
  capacity : int;
  names : (string, int) Hashtbl.t;  (* table name -> interned id *)
  mutable last_name : string;  (* the name interned last and its id; *)
  mutable last_id : int;       (* -1 before the first access *)
  mutable tid : int array;
  mutable page : int array;
  mutable prev : int array;  (* -1 at the head *)
  mutable next : int array;  (* -1 at the tail *)
  mutable used : int;        (* slots 0 .. used-1 hold resident pages *)
  mutable head : int;        (* most recently used slot, -1 when empty *)
  mutable tail : int;        (* least recently used slot, -1 when empty *)
  mutable table : int array;  (* power-of-two size, at least twice the slots *)
  mutable bits : int;         (* log2 of the table's size *)
  mutable hits : int;
  mutable misses : int;
}

let initial_slots = 16

let create ~capacity =
  let capacity = max capacity 1 in
  let n = min capacity initial_slots in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do incr bits done;
  { capacity;
    names = Hashtbl.create 4;
    last_name = "";
    last_id = -1;
    tid = Array.make n 0;
    page = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    used = 0;
    head = -1;
    tail = -1;
    table = Array.make (1 lsl !bits) 0;
    bits = !bits;
    hits = 0;
    misses = 0 }

let clear t =
  Array.fill t.table 0 (Array.length t.table) 0;
  t.used <- 0;
  t.head <- -1;
  t.tail <- -1;
  t.hits <- 0;
  t.misses <- 0

(* Scans and index joins access one table many times in a row, so the last
   name is compared physically before the intern table is consulted. *)
let intern t name =
  if t.last_id >= 0 && name == t.last_name then t.last_id
  else begin
    let id =
      match Hashtbl.find t.names name with
      | id -> id
      | exception Not_found ->
        let id = Hashtbl.length t.names in
        Hashtbl.add t.names name id;
        id
    in
    t.last_name <- name;
    t.last_id <- id;
    id
  end

(* Fibonacci hashing: the top [bits] bits of the key times an odd constant. *)
let home t tid page = ((page lxor (tid lsl 32)) * 0x9E3779B97F4A7C1) lsr (63 - t.bits)

(* Table position of (tid, page), or of the empty position ending its probe. *)
let find t tid page =
  let mask = Array.length t.table - 1 in
  let i = ref (home t tid page) in
  let e = ref t.table.(!i) in
  while !e <> 0 && not (t.tid.(!e - 1) = tid && t.page.(!e - 1) = page) do
    i := (!i + 1) land mask;
    e := t.table.(!i)
  done;
  !i

(* Empty position [i0] by backward shift: each later entry of the probe run
   moves into the hole unless its home lies cyclically in (hole, entry]. *)
let delete_at t i0 =
  let tbl = t.table in
  let mask = Array.length tbl - 1 in
  let hole = ref i0 and j = ref ((i0 + 1) land mask) in
  while tbl.(!j) <> 0 do
    let s = tbl.(!j) - 1 in
    let h = home t t.tid.(s) t.page.(s) in
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      tbl.(!hole) <- tbl.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  tbl.(!hole) <- 0

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

(* Double the slot arrays (up to [capacity]) and rehash into a table twice
   their size. *)
let grow t =
  let n = Array.length t.tid in
  let n' = min t.capacity (2 * n) in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.tid <- extend t.tid 0;
  t.page <- extend t.page 0;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  while 1 lsl t.bits < 2 * n' do t.bits <- t.bits + 1 done;
  t.table <- Array.make (1 lsl t.bits) 0;
  for s = 0 to t.used - 1 do
    t.table.(find t t.tid.(s) t.page.(s)) <- s + 1
  done

(* Access a page; returns [true] when the access missed (one IO for the
   caller to charge). *)
let access t ~table ~page : bool =
  let tid = intern t table in
  let e = t.table.(find t tid page) in
  if e <> 0 then begin
    t.hits <- t.hits + 1;
    let s = e - 1 in
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    false
  end
  else begin
    t.misses <- t.misses + 1;
    let s =
      if t.used < t.capacity then begin
        if t.used = Array.length t.tid then grow t;
        t.used <- t.used + 1;
        t.used - 1
      end
      else begin
        let s = t.tail in
        unlink t s;
        delete_at t (find t t.tid.(s) t.page.(s));
        s
      end
    in
    t.tid.(s) <- tid;
    t.page.(s) <- page;
    t.table.(find t tid page) <- s + 1;
    push_front t s;
    true
  end

let resident t = t.used
let hits t = t.hits
let misses t = t.misses
