(* An LRU buffer pool. The executor routes every page access through it; a
   miss counts one physical IO. This is what makes repeated accesses to the
   same page cheaper than the naive one-IO-per-object model.

   The pool is an exact LRU kept in slot arrays. Slot [s] holds one resident
   page: its table's interned id ([tid]) and page number ([page]), and its
   neighbours in an intrusive doubly linked recency list ([prev] towards the
   most recent slot at [head], [next] towards the least recent at [tail]).
   A table's pages are numbered 0 .. page_count - 1, so (table, page) maps to
   its slot through one [int array] per interned table, indexed by page:
   slot + 1, 0 marking a page that is not resident. A hit relinks one slot;
   a miss on a full pool reuses the tail slot. No access allocates except to
   grow a page array, and the slot arrays double up to [capacity] as pages
   arrive, so a pool that only ever holds a few pages stays small. *)

type t = {
  capacity : int;
  names : (string, int) Hashtbl.t;  (* table name -> interned id *)
  mutable last_name : string;  (* the name interned last and its id; *)
  mutable last_id : int;       (* -1 before the first access *)
  mutable slot_of : int array array;  (* interned id -> page -> slot + 1 *)
  mutable tid : int array;
  mutable page : int array;
  mutable prev : int array;  (* -1 at the head *)
  mutable next : int array;  (* -1 at the tail *)
  mutable used : int;        (* slots 0 .. used-1 hold resident pages *)
  mutable head : int;        (* most recently used slot, -1 when empty *)
  mutable tail : int;        (* least recently used slot, -1 when empty *)
  mutable hits : int;
  mutable misses : int;
}

let initial_slots = 16

let create ~capacity =
  let capacity = max capacity 1 in
  let n = min capacity initial_slots in
  { capacity;
    names = Hashtbl.create 4;
    last_name = "";
    last_id = -1;
    slot_of = [||];
    tid = Array.make n 0;
    page = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    used = 0;
    head = -1;
    tail = -1;
    hits = 0;
    misses = 0 }

let clear t =
  for s = 0 to t.used - 1 do
    t.slot_of.(t.tid.(s)).(t.page.(s)) <- 0
  done;
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
        t.slot_of <- Array.append t.slot_of [| [||] |];
        id
    in
    t.last_name <- name;
    t.last_id <- id;
    id
  end

(* Table [tid]'s page array, doubled (at least) to cover [page]: an
   ascending scan copies O(pages) words in all. *)
let pages_upto t tid page =
  let a = t.slot_of.(tid) in
  if page < Array.length a then a
  else begin
    let a' = Array.make (max (page + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    t.slot_of.(tid) <- a';
    a'
  end

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

(* Double the slot arrays, up to [capacity]. *)
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
  t.next <- extend t.next (-1)

(* Access a page; returns [true] when the access missed (one IO for the
   caller to charge). *)
let access t ~table ~page : bool =
  if page < 0 then invalid_arg "Buffer.access: negative page";
  let tid = intern t table in
  let pages = pages_upto t tid page in
  let e = Array.unsafe_get pages page in
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
        t.slot_of.(t.tid.(s)).(t.page.(s)) <- 0;
        s
      end
    in
    t.tid.(s) <- tid;
    t.page.(s) <- page;
    Array.unsafe_set pages page (s + 1);
    push_front t s;
    true
  end

let resident t = t.used
let hits t = t.hits
let misses t = t.misses
