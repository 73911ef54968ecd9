(* Tests for lib/common: constants, comparison operators, PRNG. *)

open Disco_common

let check_float = Alcotest.(check (float 1e-9))

(* --- Constant ---------------------------------------------------------- *)

let test_compare_numeric () =
  Alcotest.(check bool) "int < int" true (Constant.compare (Int 1) (Int 2) < 0);
  Alcotest.(check bool) "int = float" true (Constant.compare (Int 2) (Float 2.0) = 0);
  Alcotest.(check bool) "float < int" true (Constant.compare (Float 1.5) (Int 2) < 0);
  Alcotest.(check bool) "int > float" true (Constant.compare (Int 3) (Float 2.5) > 0)

let test_compare_ranks () =
  (* null < bool < numeric < string *)
  Alcotest.(check bool) "null < bool" true (Constant.compare Null (Bool false) < 0);
  Alcotest.(check bool) "bool < int" true (Constant.compare (Bool true) (Int 0) < 0);
  Alcotest.(check bool) "int < string" true (Constant.compare (Int 999) (String "a") < 0)

let test_equal_coercion () =
  Alcotest.(check bool) "2 = 2.0" true (Constant.equal (Int 2) (Float 2.0));
  Alcotest.(check bool) "2.0 = 2" true (Constant.equal (Float 2.0) (Int 2));
  Alcotest.(check bool) "2 <> 3.0" false (Constant.equal (Int 2) (Float 3.0));
  Alcotest.(check bool) "strings" true (Constant.equal (String "x") (String "x"));
  Alcotest.(check bool) "null = null" true (Constant.equal Null Null);
  Alcotest.(check bool) "null <> 0" false (Constant.equal Null (Int 0))

let test_to_float () =
  Alcotest.(check (option (float 0.))) "int" (Some 5.) (Constant.to_float_opt (Int 5));
  Alcotest.(check (option (float 0.))) "bool" (Some 1.) (Constant.to_float_opt (Bool true));
  Alcotest.(check (option (float 0.))) "string" None (Constant.to_float_opt (String "5"));
  Alcotest.(check (option (float 0.))) "null" None (Constant.to_float_opt Null)

let test_fraction_numeric () =
  let f v = Constant.fraction ~min:(Constant.Int 0) ~max:(Constant.Int 100) (Constant.Int v) in
  check_float "middle" 0.5 (Option.get (f 50));
  check_float "low clamp" 0.0 (Option.get (f (-10)));
  check_float "high clamp" 1.0 (Option.get (f 200));
  check_float "quarter" 0.25 (Option.get (f 25))

let test_fraction_degenerate () =
  (* min = max: no information, returns 0.5 *)
  check_float "degenerate" 0.5
    (Option.get (Constant.fraction ~min:(Constant.Int 7) ~max:(Constant.Int 7) (Constant.Int 7)));
  Alcotest.(check (option (float 0.))) "null bounds" None
    (Constant.fraction ~min:Constant.Null ~max:Constant.Null (Constant.Int 1))

let test_fraction_string () =
  let frac v =
    Constant.fraction ~min:(Constant.String "Adiba") ~max:(Constant.String "Valduriez")
      (Constant.String v)
  in
  let a = Option.get (frac "Adiba") and v = Option.get (frac "Valduriez") in
  check_float "min is 0" 0.0 a;
  check_float "max is 1" 1.0 v;
  let m = Option.get (frac "Naacke") in
  Alcotest.(check bool) "interior" true (m > 0. && m < 1.)

let test_byte_size () =
  Alcotest.(check int) "int" 8 (Constant.byte_size (Int 5));
  Alcotest.(check int) "string" 5 (Constant.byte_size (String "hello"));
  Alcotest.(check int) "null" 1 (Constant.byte_size Null)

(* --- Cmp ---------------------------------------------------------------- *)

let test_cmp_eval () =
  let t op a b = Cmp.eval op (Constant.Int a) (Constant.Int b) in
  Alcotest.(check bool) "eq" true (t Cmp.Eq 3 3);
  Alcotest.(check bool) "ne" true (t Cmp.Ne 3 4);
  Alcotest.(check bool) "lt" true (t Cmp.Lt 3 4);
  Alcotest.(check bool) "le" true (t Cmp.Le 4 4);
  Alcotest.(check bool) "gt" false (t Cmp.Gt 3 4);
  Alcotest.(check bool) "ge" true (t Cmp.Ge 4 4)

let test_cmp_flip () =
  (* a op b <=> b (flip op) a *)
  let ops = [ Cmp.Eq; Cmp.Ne; Cmp.Lt; Cmp.Le; Cmp.Gt; Cmp.Ge ] in
  List.iter
    (fun op ->
      for a = -2 to 2 do
        for b = -2 to 2 do
          Alcotest.(check bool)
            (Fmt.str "flip %a %d %d" Cmp.pp op a b)
            (Cmp.eval op (Constant.Int a) (Constant.Int b))
            (Cmp.eval (Cmp.flip op) (Constant.Int b) (Constant.Int a))
        done
      done)
    ops

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 3.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (arr <> Array.init 100 Fun.id)

(* --- qcheck properties ----------------------------------------------------- *)

let constant_gen =
  QCheck2.Gen.(
    oneof
      [ return Constant.Null;
        map (fun b -> Constant.Bool b) bool;
        map (fun i -> Constant.Int i) (int_range (-1000) 1000);
        map (fun f -> Constant.Float f) (float_range (-1000.) 1000.);
        map (fun s -> Constant.String s) (string_size (int_range 0 8)) ])

let prop_compare_antisym =
  QCheck2.Test.make ~name:"Constant.compare antisymmetric" ~count:500
    QCheck2.Gen.(pair constant_gen constant_gen)
    (fun (a, b) ->
      let ab = Constant.compare a b and ba = Constant.compare b a in
      (ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0))

let prop_compare_transitive =
  QCheck2.Test.make ~name:"Constant.compare transitive" ~count:500
    QCheck2.Gen.(triple constant_gen constant_gen constant_gen)
    (fun (a, b, c) ->
      let sorted = List.sort Constant.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Constant.compare x y <= 0 && Constant.compare y z <= 0 && Constant.compare x z <= 0
      | _ -> false)

let prop_equal_consistent_with_compare =
  QCheck2.Test.make ~name:"equal consistent with compare (numeric/string)" ~count:500
    QCheck2.Gen.(pair constant_gen constant_gen)
    (fun (a, b) ->
      if Constant.equal a b then Constant.compare a b = 0 else true)

let prop_fraction_bounds =
  QCheck2.Test.make ~name:"fraction in [0,1] when defined" ~count:500
    QCheck2.Gen.(triple constant_gen constant_gen constant_gen)
    (fun (min, max, v) ->
      match Constant.fraction ~min ~max v with
      | None -> true
      | Some f -> f >= 0. && f <= 1.)

let prop_fraction_monotone =
  QCheck2.Test.make ~name:"fraction monotone in v" ~count:500
    QCheck2.Gen.(triple (int_range 0 100) (int_range 0 100) (int_range 0 100))
    (fun (v1, v2, _) ->
      let lo, hi = (Constant.Int 0, Constant.Int 100) in
      let f v = Option.get (Constant.fraction ~min:lo ~max:hi (Constant.Int v)) in
      if v1 <= v2 then f v1 <= f v2 else f v1 >= f v2)

(* [Constant.to_string] renders each constructor directly; it must match
   the [Format] rendering byte for byte, special floats and escapes too. *)
let prop_to_string_matches_pp =
  let special =
    [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 1e300; -1e-300; 1e-310;
      Float.min_float; 4.9e-324; Float.max_float; 0.1; 1.; 123456789.; -2.5e-7 ]
  in
  QCheck2.Test.make ~name:"to_string = Fmt rendering" ~count:1000
    QCheck2.Gen.(
      oneof
        [ map (fun i -> Constant.Int i) int;
          map (fun i -> Constant.Int i) (oneofl [ 0; -1; max_int; min_int ]);
          map (fun f -> Constant.Float f) float;
          map (fun f -> Constant.Float f) (oneofl special);
          map (fun s -> Constant.String s) (string_size ~gen:char (int_range 0 40));
          map (fun s -> Constant.String s)
            (oneofl [ ""; "\""; "a\\b"; "tab\there"; "\n\r"; "caf\xc3\xa9"; "\x00\xff" ]);
          map (fun b -> Constant.Bool b) bool;
          pure Constant.Null ])
    (fun c -> String.equal (Constant.to_string c) (Fmt.str "%a" Constant.pp c))

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compare_antisym;
      prop_compare_transitive;
      prop_equal_consistent_with_compare;
      prop_fraction_bounds;
      prop_fraction_monotone;
      prop_to_string_matches_pp ]

let () =
  Alcotest.run "common"
    [ ( "constant",
        [ Alcotest.test_case "numeric compare" `Quick test_compare_numeric;
          Alcotest.test_case "cross-type ranks" `Quick test_compare_ranks;
          Alcotest.test_case "equality coercion" `Quick test_equal_coercion;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "fraction numeric" `Quick test_fraction_numeric;
          Alcotest.test_case "fraction degenerate" `Quick test_fraction_degenerate;
          Alcotest.test_case "fraction string" `Quick test_fraction_string;
          Alcotest.test_case "byte_size" `Quick test_byte_size ] );
      ( "cmp",
        [ Alcotest.test_case "eval" `Quick test_cmp_eval;
          Alcotest.test_case "flip" `Quick test_cmp_flip ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation ] );
      ("properties", qcheck) ]
