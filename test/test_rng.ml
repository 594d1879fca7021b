(* Tests for the deterministic PRNG and the random variates. *)

module Rng = Ics_prelude.Rng
module Variate = Ics_prelude.Variate

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  checkb "different seeds differ" true (!same < 4)

let test_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  for _ = 1 to 32 do
    check Alcotest.int64 "copy tracks original" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_split_independence () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  (* The child stream should not simply replay the parent's. *)
  let clashes = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 parent = Rng.next_int64 child then incr clashes
  done;
  checkb "child stream distinct" true (!clashes < 4)

let test_float_bounds () =
  let rng = Rng.create 11L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng 3.5 in
    checkb "0 <= x" true (x >= 0.0);
    checkb "x < bound" true (x < 3.5)
  done

let test_float_mean () =
  let rng = Rng.create 13L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "uniform mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_int_bounds () =
  let rng = Rng.create 17L in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    checkb "in range" true (x >= 0 && x < 7)
  done

let test_int_covers_range () =
  let rng = Rng.create 19L in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iteri (fun i hit -> checkb (Printf.sprintf "value %d reached" i) true hit) seen

let test_bool_fairness () =
  let rng = Rng.create 23L in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  checkb "fair coin" true (Float.abs (ratio -. 0.5) < 0.02)

let test_shuffle_permutation () =
  let rng = Rng.create 29L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_moves_elements () =
  let rng = Rng.create 31L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let fixed = ref 0 in
  Array.iteri (fun i x -> if i = x then incr fixed) a;
  checkb "not identity" true (!fixed < 20)

let test_pick () =
  let rng = Rng.create 37L in
  for _ = 1 to 100 do
    let x = Rng.pick rng [ 1; 2; 3 ] in
    checkb "picked member" true (List.mem x [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng []))

let test_exponential_mean () =
  let rng = Rng.create 41L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Variate.exponential rng ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  checkb "exponential mean" true (Float.abs (mean -. 2.5) < 0.05)

let test_exponential_positive () =
  let rng = Rng.create 43L in
  for _ = 1 to 10_000 do
    checkb "positive" true (Variate.exponential rng ~mean:1.0 >= 0.0)
  done;
  Alcotest.check_raises "bad mean" (Invalid_argument "Variate.exponential: mean <= 0")
    (fun () -> ignore (Variate.exponential rng ~mean:0.0))

let test_uniform_bounds () =
  let rng = Rng.create 47L in
  for _ = 1 to 10_000 do
    let x = Variate.uniform rng ~lo:2.0 ~hi:5.0 in
    checkb "in [lo,hi)" true (x >= 2.0 && x < 5.0)
  done;
  Alcotest.(check (float 1e-9)) "degenerate" 3.0 (Variate.uniform rng ~lo:3.0 ~hi:3.0)

let test_normal_moments () =
  let rng = Rng.create 53L in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Variate.normal rng ~mean:10.0 ~stddev:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  checkb "normal mean" true (Float.abs (mean -. 10.0) < 0.1);
  checkb "normal variance" true (Float.abs (var -. 4.0) < 0.2)

let qcheck_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0,bound)" ~count:500
    QCheck.(pair (int_bound 10_000) pos_float)
    (fun (seed, bound) ->
      QCheck.assume (bound > 1e-6 && Float.is_finite bound);
      let rng = Rng.create (Int64.of_int seed) in
      let x = Rng.float rng bound in
      x >= 0.0 && x < bound)

let qcheck_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create (Int64.of_int seed) in
      let x = Rng.int rng bound in
      x >= 0 && x < bound)

let suites =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "float mean" `Quick test_float_mean;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int covers range" `Quick test_int_covers_range;
        Alcotest.test_case "bool fairness" `Quick test_bool_fairness;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_elements;
        Alcotest.test_case "pick" `Quick test_pick;
        QCheck_alcotest.to_alcotest qcheck_float_in_bounds;
        QCheck_alcotest.to_alcotest qcheck_int_in_bounds;
      ] );
    ( "variate",
      [
        Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
        Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
        Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
        Alcotest.test_case "normal moments" `Quick test_normal_moments;
      ] );
  ]
