(* The stage split and the report arithmetic on hand-built inputs. *)

module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id
module Analysis = Ics_bench_suite.Analysis
module Report = Ics_bench_suite.Report
module Metrics = Ics_bench_suite.Metrics
module Workloads = Ics_bench_suite.Workloads

let m0 = Msg_id.make ~origin:0 ~seq:0
let m1 = Msg_id.make ~origin:1 ~seq:0

let trace events =
  let t = Trace.create () in
  List.iter (fun (time, pid, kind) -> Trace.record t ~time ~pid kind) events;
  t

let floats = Alcotest.(array (float 1e-9))

(* Stage arrays come out in delivery order. *)
let test_exact_stages () =
  let t =
    trace
      [
        (10.0, 0, Trace.Abroadcast m0);
        (10.0, 0, Trace.Rdeliver m0);
        (12.0, 1, Trace.Rdeliver m0);
        (13.0, 2, Trace.Rdeliver m0);
        (14.0, 0, Trace.Propose (1, [ m0 ]));
        (15.0, 1, Trace.Propose (1, [ m0 ]));
        (20.0, 0, Trace.Decide (1, [ m0 ]));
        (20.0, 0, Trace.Adeliver m0);
        (21.0, 1, Trace.Decide (1, [ m0 ]));
        (21.0, 1, Trace.Adeliver m0);
        (22.0, 2, Trace.Decide (1, [ m0 ]));
        (23.0, 2, Trace.Adeliver m0);
      ]
  in
  let s = Analysis.split ~n:3 t in
  Alcotest.(check int) "completed" 3 s.Analysis.completed;
  Alcotest.(check int) "undelivered" 0 s.Analysis.undelivered;
  Alcotest.check floats "e2e" [| 10.0; 11.0; 13.0 |] s.Analysis.e2e;
  Alcotest.check floats "propose wait" [| 4.0; 4.0; 4.0 |] s.Analysis.propose_wait;
  Alcotest.check floats "decide ends at the instance's first Decide" [| 6.0; 6.0; 6.0 |]
    s.Analysis.decide;
  Alcotest.check floats "commit wait" [| 0.0; 1.0; 3.0 |] s.Analysis.commit_wait;
  Alcotest.check floats "disseminate" [| 0.0; 2.0; 3.0 |] s.Analysis.disseminate;
  Alcotest.(check (float 1e-12)) "stage means sum to the e2e mean" 0.0 (Analysis.sum_error s)

(* Ring dissemination announces ids before payloads: p2 learns the
   decision before it holds m0, so the payload wait lands in commit_wait
   while dissemination runs past the decision. *)
let test_ring_announce () =
  let t =
    trace
      [
        (0.0, 0, Trace.Abroadcast m0);
        (0.0, 0, Trace.Rdeliver m0);
        (1.0, 0, Trace.Propose (1, [ m0 ]));
        (3.0, 0, Trace.Decide (1, [ m0 ]));
        (3.0, 0, Trace.Adeliver m0);
        (4.0, 2, Trace.Decide (1, [ m0 ]));
        (9.0, 2, Trace.Rdeliver m0);
        (9.0, 2, Trace.Adeliver m0);
      ]
  in
  let s = Analysis.split ~n:3 t in
  Alcotest.check floats "commit wait holds the payload wait" [| 0.0; 6.0 |]
    s.Analysis.commit_wait;
  Alcotest.check floats "dissemination ends after the decision" [| 0.0; 9.0 |]
    s.Analysis.disseminate;
  Alcotest.check floats "decide" [| 2.0; 2.0 |] s.Analysis.decide;
  Alcotest.(check int) "p1 never delivered: owed, so undelivered" 1 s.Analysis.undelivered;
  Alcotest.(check (float 1e-12)) "sum identity" 0.0 (Analysis.sum_error s)

(* Pipelined instances can decide out of order; the instance that orders
   m is the lowest one holding it, and t1 is that instance's first
   Propose, not an earlier Propose of another instance. *)
let test_lowest_instance () =
  let t =
    trace
      [
        (0.0, 0, Trace.Abroadcast m0);
        (1.0, 1, Trace.Propose (2, [ m0 ]));
        (2.0, 0, Trace.Propose (1, [ m0 ]));
        (5.0, 0, Trace.Decide (2, [ m0 ]));
        (7.0, 0, Trace.Decide (1, [ m0 ]));
        (7.0, 0, Trace.Adeliver m0);
      ]
  in
  let s = Analysis.split ~n:1 t in
  Alcotest.check floats "propose wait" [| 2.0 |] s.Analysis.propose_wait;
  Alcotest.check floats "decide" [| 5.0 |] s.Analysis.decide

(* An undecided message is a failure to count, not a sample to drop; a
   crashed origin's message nobody correct delivered is excused. *)
let test_undelivered () =
  let m2 = Msg_id.make ~origin:2 ~seq:0 in
  let t =
    trace
      [
        (0.0, 0, Trace.Abroadcast m0);
        (1.0, 0, Trace.Propose (1, [ m0 ]));
        (2.0, 0, Trace.Decide (1, [ m0 ]));
        (2.0, 0, Trace.Adeliver m0);
        (2.0, 1, Trace.Decide (1, [ m0 ]));
        (2.0, 1, Trace.Adeliver m0);
        (3.0, 1, Trace.Abroadcast m1);
        (3.0, 1, Trace.Rdeliver m1);
        (4.0, 2, Trace.Abroadcast m2);
        (5.0, 2, Trace.Crash);
      ]
  in
  let s = Analysis.split ~n:3 t in
  Alcotest.(check int) "completed" 2 s.Analysis.completed;
  Alcotest.(check int) "m1 owed at p0 and p1; m2 excused" 2 s.Analysis.undelivered;
  Alcotest.(check int) "only delivered pairs are samples" 2 (Array.length s.Analysis.e2e)

let test_due_and_window () =
  let t =
    trace
      [
        (3.0, 0, Trace.Abroadcast m0);
        (4.0, 0, Trace.Propose (1, [ m0 ]));
        (6.0, 0, Trace.Decide (1, [ m0 ]));
        (6.0, 0, Trace.Adeliver m0);
      ]
  in
  let s = Analysis.split ~due:(fun _ -> 1.0) ~n:1 t in
  Alcotest.check floats "latency runs from the due time" [| 5.0 |] s.Analysis.e2e;
  Alcotest.check floats "lateness lands in propose wait" [| 3.0 |] s.Analysis.propose_wait;
  let s = Analysis.split ~measured:(fun t0 -> t0 >= 5.0) ~n:1 t in
  Alcotest.(check int) "outside the window" 0 s.Analysis.completed

let test_failover () =
  let m k = Msg_id.make ~origin:1 ~seq:k in
  let t =
    trace
      [
        (90.0, 1, Trace.Adeliver (m 0));
        (95.0, 1, Trace.Adeliver (m 1));
        (100.0, 0, Trace.Crash);
        (220.0, 1, Trace.Suspect 0);
        (225.0, 2, Trace.Suspect 0);
        (230.0, 1, Trace.Decide (3, [ m 2 ]));
        (232.0, 1, Trace.Adeliver (m 2));
        (240.0, 1, Trace.Adeliver (m 3));
        (301.0, 1, Trace.Adeliver (m 4));
        (900.0, 1, Trace.Adeliver (m 5));
      ]
  in
  let f = Analysis.failover ~n:3 ~victim:0 ~arrivals_end:300.0 t in
  Alcotest.(check (float 1e-9)) "gap spans the crash" 137.0 f.Analysis.gap_ms;
  Alcotest.(check (float 1e-9)) "detect" 120.0 f.Analysis.detect_ms;
  Alcotest.(check (float 1e-9)) "recover" 10.0 f.Analysis.recover_ms

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let s = Report.stat (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 s.Report.q1;
  Alcotest.(check (float 1e-12)) "median" 5.5 s.Report.median;
  Alcotest.(check (float 1e-12)) "q3" 8.25 s.Report.q3

let st ?(reps = 5) median spread =
  { Report.median; q1 = median *. (1.0 -. spread); q3 = median *. (1.0 +. spread); reps }

let test_verdicts () =
  let verdict ?(better = Metrics.Lower) ?(exact = false) base next =
    Report.verdict_name (snd (Report.judge ~better ~bound:0.1 ~exact ~base ~next))
  in
  let check = Alcotest.(check string) in
  check "same" "same" (verdict (st 1.0 0.01) (st 1.01 0.01));
  check "worse" "worse" (verdict (st 1.0 0.01) (st 1.2 0.01));
  check "better" "better" (verdict (st 1.0 0.01) (st 0.8 0.01));
  check "higher is better: a drop is worse" "worse"
    (verdict ~better:Metrics.Higher (st 1.0 0.01) (st 0.8 0.01));
  check "noisy base, small move" "unresolved" (verdict (st 1.0 0.2) (st 1.0 0.01));
  check "noisy base, overlapping ranges" "unresolved" (verdict (st 1.0 0.2) (st 1.15 0.01));
  check "noisy base, new range wholly worse" "worse" (verdict (st 1.0 0.2) (st 1.5 0.1));
  check "noisy samples, many of them" "same" (verdict (st ~reps:64 1.0 0.2) (st 1.0 0.01));
  check "noisy new, new range wholly better" "better" (verdict (st 1.0 0.05) (st 0.5 0.3));
  check "exact: any worsening counts" "worse" (verdict ~exact:true (st 1.0 0.0) (st 1.001 0.3));
  check "exact: any improvement counts" "better" (verdict ~exact:true (st 1.0 0.0) (st 0.999 0.3));
  check "exact: equal" "same" (verdict ~exact:true (st 1.0 0.3) (st 1.0 0.0))

(* Records of every end-to-end metric at value 1 on the given workloads,
   as (name, gates passed, attempted, failed). *)
let record ?(seed = 1) ?(cores = 2) workloads =
  {
    Report.r_host = { Report.cores; ocaml = "5.1.1" };
    r_seed = seed;
    r_workloads =
      List.map (fun (w, ok, tried, lost) -> (w, { Report.ok; tried; lost })) workloads;
    r_e2e =
      List.concat_map
        (fun (w, _, _, _) ->
          List.map (fun (m : Metrics.e2e) -> ((w, m.Metrics.e_name), st 1.0 0.01)) Metrics.end_to_end)
        workloads;
  }

let set_e2e r key v =
  { r with Report.r_e2e = List.map (fun (k, s) -> if k = key then (k, v) else (k, s)) r.Report.r_e2e }

let test_compare () =
  let code = Alcotest.(check int) in
  let sim = ("sim-steady", true, 100, 0) and live = ("live-open", true, 100, 0) in
  let base = record [ live; sim ] in
  code "identical records" 0 (Report.compare_records base base);
  code "other host" 2 (Report.compare_records base (record ~cores:4 [ live; sim ]));
  code "workload missing from NEW" 1 (Report.compare_records base (record [ sim ]));
  code "workload missing from BASE" 1 (Report.compare_records (record [ sim ]) base);
  code "metric missing from NEW" 1
    (Report.compare_records base
       {
         base with
         Report.r_e2e =
           List.filter (fun (k, _) -> k <> ("live-open", Metrics.setup)) base.Report.r_e2e;
       });
  code "NEW failed a gate" 1
    (Report.compare_records base (record [ live; ("sim-steady", false, 100, 0) ]));
  code "NEW failed a larger share" 1
    (Report.compare_records base (record [ live; ("sim-steady", true, 100, 1) ]));
  let slower = set_e2e base ("sim-steady", Metrics.latency_p50) (st 1.01 0.01) in
  code "virtual latency at one seed is exact" 1 (Report.compare_records base slower);
  code "across seeds it has a bound" 0
    (Report.compare_records base { slower with Report.r_seed = 2 });
  code "live latency has a bound" 0
    (Report.compare_records base (set_e2e base ("live-open", Metrics.latency_p50) (st 1.01 0.01)))

(* One bound per workload for every end-to-end metric, at most 25 %, and
   set-up time's the largest. *)
let test_bounds () =
  let setup = Metrics.bound (Option.get (Metrics.find_e2e Metrics.setup)) in
  List.iter
    (fun (m : Metrics.e2e) ->
      Alcotest.(check int) m.Metrics.e_name (List.length Metrics.workloads)
        (List.length m.Metrics.bounds);
      Alcotest.(check bool) (m.Metrics.e_name ^ " at most 25 %") true (Metrics.bound m <= 0.25);
      Alcotest.(check bool) (m.Metrics.e_name ^ " not above setup_s") true
        (Metrics.bound m <= setup))
    Metrics.end_to_end

let test_open_cells_allowed () =
  Alcotest.(check int) "64 cells" 5 (Workloads.open_cells_allowed 64);
  Alcotest.(check int) "one cell" 1 (Workloads.open_cells_allowed 1)

let () =
  Alcotest.run "bench-suite"
    [
      ( "stages",
        [
          Alcotest.test_case "exact stage values" `Quick test_exact_stages;
          Alcotest.test_case "ring announce" `Quick test_ring_announce;
          Alcotest.test_case "lowest instance orders" `Quick test_lowest_instance;
          Alcotest.test_case "undelivered counted" `Quick test_undelivered;
          Alcotest.test_case "due time and window" `Quick test_due_and_window;
          Alcotest.test_case "failover" `Quick test_failover;
        ] );
      ( "report",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "open failover cells allowed" `Quick test_open_cells_allowed;
        ] );
    ]
