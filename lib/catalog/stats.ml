(* Statistics exported by wrappers during registration (paper §3.2).

   [extent] corresponds to the [cardinality extent(...)] method: number of
   objects, total size in bytes, average object size. [attribute] corresponds
   to [cardinality attribute(...)]: index presence, distinct count, min and
   max values. *)

open Disco_common

type extent = {
  count_objects : int;  (* CountObject *)
  total_size : int;     (* TotalSize, bytes *)
  object_size : int;    (* ObjectSize, average bytes per object *)
}

type attribute = {
  indexed : bool;              (* Indexed *)
  count_distinct : int;        (* CountDistinct *)
  min : Constant.t;            (* Min *)
  max : Constant.t;            (* Max *)
  histogram : Histogram.t option;  (* value distribution, when sampled *)
}

let extent ~count_objects ~total_size ~object_size =
  { count_objects; total_size; object_size }

let attribute ?(indexed = false) ~count_distinct ~min ~max () =
  { indexed; count_distinct; min; max; histogram = None }

(* Defaults used when a wrapper exports nothing (paper §6: "In case they are
   not provided, standard values are given, as usual"). *)
let default_extent = { count_objects = 1000; total_size = 100_000; object_size = 100 }

let default_attribute =
  { indexed = false;
    count_distinct = 10;
    min = Constant.Null;
    max = Constant.Null;
    histogram = None }

let pp_extent ppf e =
  Fmt.pf ppf "{objects=%d; size=%dB; objsize=%dB}" e.count_objects e.total_size
    e.object_size

let pp_attribute ppf a =
  Fmt.pf ppf "{indexed=%b; distinct=%d; min=%a; max=%a%a}" a.indexed a.count_distinct
    Constant.pp a.min Constant.pp a.max
    (Fmt.option (fun ppf h -> Fmt.pf ppf "; %a" Histogram.pp h))
    a.histogram

(* Compute attribute statistics from actual column values; wrappers use this
   to implement their cardinality methods over generated data. *)
let attribute_of_values ?(indexed = false) (values : Constant.t list) =
  match values with
  | [] -> { default_attribute with indexed }
  | v0 :: rest ->
    let module S = Set.Make (struct
      type t = Constant.t
      let compare = Constant.compare
    end) in
    let distinct, min, max =
      List.fold_left
        (fun (set, mn, mx) v ->
          ( S.add v set,
            (if Constant.compare v mn < 0 then v else mn),
            if Constant.compare v mx > 0 then v else mx ))
        (S.singleton v0, v0, v0) rest
    in
    { indexed; count_distinct = S.cardinal distinct; min; max; histogram = None }
