(* Tests for summary statistics and table rendering. *)

module Stats = Ics_prelude.Stats
module Table = Ics_prelude.Table

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checkfa msg ~eps a b = Alcotest.(check (float eps)) msg a b

let test_empty () =
  let s = Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  checkb "mean NaN" true (Float.is_nan s.Stats.mean)

let test_single () =
  let s = Stats.summarize [ 4.2 ] in
  Alcotest.(check int) "count" 1 s.Stats.count;
  checkf "mean" 4.2 s.Stats.mean;
  checkf "stddev" 0.0 s.Stats.stddev;
  checkf "p50" 4.2 s.Stats.p50;
  checkf "min=max" s.Stats.min s.Stats.max

let test_known_values () =
  let s = Stats.summarize [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checkf "mean" 5.0 s.Stats.mean;
  (* Sample stddev with n-1 denominator: sqrt(32/7). *)
  checkfa "stddev" ~eps:1e-9 (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  checkf "min" 2.0 s.Stats.min;
  checkf "max" 9.0 s.Stats.max

let test_percentile_interpolation () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "p0" 10.0 (Stats.percentile sorted 0.0);
  checkf "p100" 40.0 (Stats.percentile sorted 1.0);
  checkf "p50 interpolated" 25.0 (Stats.percentile sorted 0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 0.5))

let test_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkb "empty mean NaN" true (Float.is_nan (Stats.mean []))

let test_acc_matches_batch () =
  let data = List.init 1000 (fun i -> Float.of_int ((i * 7919) mod 100) /. 3.0) in
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) data;
  let s = Stats.summarize data in
  checkfa "mean" ~eps:1e-9 s.Stats.mean (Stats.Acc.mean acc);
  checkfa "stddev" ~eps:1e-9 s.Stats.stddev (Stats.Acc.stddev acc);
  checkf "min" s.Stats.min (Stats.Acc.min acc);
  checkf "max" s.Stats.max (Stats.Acc.max acc);
  Alcotest.(check int) "count" s.Stats.count (Stats.Acc.count acc)

let test_nan_rejected () =
  Alcotest.check_raises "summarize_array NaN"
    (Invalid_argument "Stats.summarize_array: NaN sample") (fun () ->
      ignore (Stats.summarize_array [| 1.0; Float.nan; 2.0 |]));
  let s = Stats.Samples.create () in
  Alcotest.check_raises "Samples.add NaN"
    (Invalid_argument "Stats.Samples.add: NaN sample") (fun () ->
      Stats.Samples.add s Float.nan)

let test_samples_matches_list () =
  (* The unboxed buffer must summarize identically to the list path,
     including across internal growth (capacity 2 forces doubling). *)
  let data = List.init 999 (fun i -> Float.of_int ((i * 131) mod 577) /. 7.0) in
  let s = Stats.Samples.create ~capacity:2 () in
  List.iter (Stats.Samples.add s) data;
  Alcotest.(check int) "length" 999 (Stats.Samples.length s);
  let a = Stats.Samples.summarize s in
  let b = Stats.summarize data in
  checkf "mean" b.Stats.mean a.Stats.mean;
  checkf "stddev" b.Stats.stddev a.Stats.stddev;
  checkf "p50" b.Stats.p50 a.Stats.p50;
  checkf "p99" b.Stats.p99 a.Stats.p99;
  checkf "min" b.Stats.min a.Stats.min;
  checkf "max" b.Stats.max a.Stats.max;
  Alcotest.(check int) "to_array order" 999
    (Array.length (Stats.Samples.to_array s))

let test_negative_zero_sort () =
  (* Array.sort compare on floats mis-sorts -0.0 vs 0.0 boxes; Float.compare
     orders them consistently and the summary must not care. *)
  let s = Stats.summarize_array [| 0.0; -0.0; 1.0 |] in
  checkf "min" 0.0 s.Stats.min;
  checkf "max" 1.0 s.Stats.max

let test_ci_shrinks () =
  let narrow = Stats.summarize (List.init 1000 (fun i -> Float.of_int (i mod 10))) in
  let wide = Stats.summarize (List.init 10 (fun i -> Float.of_int i)) in
  checkb "more samples, tighter CI" true
    (narrow.Stats.ci95_half_width < wide.Stats.ci95_half_width)

let qcheck_mean_bounded =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun l ->
      let s = Stats.summarize l in
      s.Stats.mean >= s.Stats.min -. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let qcheck_percentiles_monotone =
  QCheck.Test.make ~name:"p50 <= p90 <= p99" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1000.0))
    (fun l ->
      let s = Stats.summarize l in
      s.Stats.p50 <= s.Stats.p90 +. 1e-9 && s.Stats.p90 <= s.Stats.p99 +. 1e-9)

let qcheck_stddev_nonneg =
  QCheck.Test.make ~name:"stddev >= 0" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 60) (float_bound_inclusive 100.0))
    (fun l -> (Stats.summarize l).Stats.stddev >= 0.0)

(* Table *)

let test_table_rows () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "1.500"; "2.250" ];
  Alcotest.(check (list (list string))) "rows" [ [ "1"; "2" ]; [ "1.500"; "2.250" ] ]
    (Table.rows t);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~title:"t" ~columns:[ "x"; "note" ] in
  Table.add_row t [ "1"; "plain" ];
  Table.add_row t [ "2"; "with,comma" ];
  Table.add_row t [ "3"; "with\"quote" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv"
    "x,note\n1,plain\n2,\"with,comma\"\n3,\"with\"\"quote\"\n" csv

let test_table_pp_contains () =
  let t = Table.create ~title:"demo" ~columns:[ "col" ] in
  Table.add_row t [ "val" ];
  let s = Format.asprintf "%a" Table.pp t in
  checkb "has title" true (Test_util.contains s "demo" && Test_util.contains s "val")

let suites =
  [
    ( "stats",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "single" `Quick test_single;
        Alcotest.test_case "known values" `Quick test_known_values;
        Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "acc matches batch" `Quick test_acc_matches_batch;
        Alcotest.test_case "ci shrinks" `Quick test_ci_shrinks;
        Alcotest.test_case "nan rejected" `Quick test_nan_rejected;
        Alcotest.test_case "samples buffer matches list" `Quick test_samples_matches_list;
        Alcotest.test_case "negative zero" `Quick test_negative_zero_sort;
        QCheck_alcotest.to_alcotest qcheck_mean_bounded;
        QCheck_alcotest.to_alcotest qcheck_percentiles_monotone;
        QCheck_alcotest.to_alcotest qcheck_stddev_nonneg;
      ] );
    ( "table",
      [
        Alcotest.test_case "rows" `Quick test_table_rows;
        Alcotest.test_case "csv escaping" `Quick test_table_csv;
        Alcotest.test_case "pretty printing" `Quick test_table_pp_contains;
      ] );
  ]
