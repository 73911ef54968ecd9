(* The calibration kernel: a fixed piece of allocation-heavy work (strings,
   list cells, a hash table, a sort), timed before every round. This host's
   speed drifts by more than the bounds the benchmark enforces, so each
   round's time is also reported scaled by the kernel time measured just
   before it. Of three kernels tried (an integer loop over a small array,
   random reads over 32 MB, this one), this one's scaled figures varied
   least from run to run. *)

(* The kernel's typical time on the host the bounds were set on (2-core
   x86-64 container, OCaml 5.1.1): calibrated figures read as ms on that
   host. *)
let ref_ms = 50.

let kernel () =
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 1 to 75_000 do
    let s = string_of_int (i * 7919) in
    l := (i, s) :: !l;
    Hashtbl.replace h s i
  done;
  let sorted = List.sort (fun (_, a) (_, b) -> String.compare a b) !l in
  ignore (Sys.opaque_identity (List.fold_left (fun acc (_, s) -> acc + Hashtbl.find h s) 0 sorted))

(* One kernel run, in ms. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  1000. *. (Unix.gettimeofday () -. t0)
