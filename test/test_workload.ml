(* Tests for the workload generator, experiment runner and figure
   definitions. *)

module Stack = Ics_core.Stack
module Experiment = Ics_workload.Experiment
module Figures = Ics_workload.Figures
module Stats = Ics_prelude.Stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let fast_config =
  {
    Stack.abcast_indirect with
    Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.2 };
    fd_kind = Stack.Oracle 50.0;
  }

let small_load =
  { Experiment.throughput = 200.0; body_bytes = 10; duration = 2_000.0; warmup = 500.0 }

let test_run_produces_samples () =
  let r = Experiment.run fast_config small_load in
  checkb "samples collected" true (r.Experiment.measured > 0);
  checkb "latency positive" true (r.Experiment.latency.Stats.mean > 0.0);
  checkb "quiescent" true r.Experiment.quiescent;
  (* Roughly throughput * duration arrivals (Poisson, so loose bounds). *)
  let expected = 200.0 *. 2.0 in
  checkb "arrival count plausible" true
    (float_of_int r.Experiment.abroadcasts > expected *. 0.6
    && float_of_int r.Experiment.abroadcasts < expected *. 1.4)

let test_warmup_filters_samples () =
  (* All processes deliver every message: measured = deliveries of
     messages created in the window only. *)
  let r = Experiment.run fast_config small_load in
  checkb "measured < all deliveries" true
    (r.Experiment.measured < 3 * r.Experiment.abroadcasts);
  (* Sanity: every measured message is delivered by all 3 processes. *)
  checkb "multiple of n for quiescent runs" true (r.Experiment.measured mod 3 = 0)

let test_run_is_deterministic () =
  let a = Experiment.run ~seed:7L fast_config small_load in
  let b = Experiment.run ~seed:7L fast_config small_load in
  Alcotest.(check (float 1e-12)) "same mean" a.Experiment.latency.Stats.mean
    b.Experiment.latency.Stats.mean;
  checki "same messages" a.Experiment.sent_messages b.Experiment.sent_messages;
  let c = Experiment.run ~seed:8L fast_config small_load in
  checkb "different seed differs" true
    (c.Experiment.sent_messages <> a.Experiment.sent_messages
    || c.Experiment.latency.Stats.mean <> a.Experiment.latency.Stats.mean)

let test_run_with_check () =
  let r = Experiment.run ~check:true fast_config small_load in
  match r.Experiment.verdict with
  | None -> Alcotest.fail "expected a verdict"
  | Some v -> Test_util.assert_clean_verdict "workload run" v

let test_run_seeds_pools () =
  let r = Experiment.run_seeds ~seeds:[ 1L; 2L; 3L ] fast_config small_load in
  let single = Experiment.run ~seed:1L fast_config small_load in
  checkb "pooled count larger" true (r.Experiment.measured > single.Experiment.measured);
  checkb "pooled mean finite" true (Float.is_finite r.Experiment.latency.Stats.mean)

(* Per-layer traffic pools as the sum of the seeds' runs, utilization as
   their mean. *)
let test_run_seeds_pools_layers () =
  let pooled = Experiment.run_seeds ~seeds:[ 1L; 2L ] fast_config small_load in
  let a = Experiment.run ~seed:1L fast_config small_load in
  let b = Experiment.run ~seed:2L fast_config small_load in
  let msgs r = List.map (fun (layer, m, _) -> (layer, m)) r.Experiment.per_layer in
  Alcotest.(check (list (pair string int)))
    "per-layer messages are the sum over seeds"
    (List.map2 (fun (layer, x) (_, y) -> (layer, x + y)) (msgs a) (msgs b))
    (msgs pooled);
  List.iter2
    (fun (name, u) ((_, ua), (_, ub)) ->
      Alcotest.(check (float 1e-12)) (name ^ " utilization is the mean") ((ua +. ub) /. 2.0) u)
    pooled.Experiment.utilization
    (List.combine a.Experiment.utilization b.Experiment.utilization)

let test_run_validation () =
  Alcotest.check_raises "bad throughput" (Invalid_argument "Experiment.run: throughput <= 0")
    (fun () ->
      ignore (Experiment.run fast_config { small_load with Experiment.throughput = 0.0 }));
  Alcotest.check_raises "warmup >= duration"
    (Invalid_argument "Experiment.run: warmup >= duration") (fun () ->
      ignore (Experiment.run fast_config { small_load with Experiment.warmup = 2_000.0 }))

let test_figures_complete () =
  let ids = List.map (fun f -> f.Figures.id) Figures.all in
  checki "16 panels" 16 (List.length ids);
  List.iter
    (fun required -> checkb required true (List.mem required ids))
    [ "fig1a"; "fig1b"; "fig3a"; "fig3b"; "fig4a"; "fig4b"; "fig4c"; "fig4d";
      "fig5a"; "fig5b"; "fig5c"; "fig6a"; "fig6b"; "fig6c"; "fig7a"; "fig7b" ];
  checkb "unknown id" true (Option.is_none (Figures.find "fig99"))

let test_figures_well_formed () =
  List.iter
    (fun f ->
      checkb (f.Figures.id ^ " has two series") true (List.length f.Figures.series = 2);
      checkb (f.Figures.id ^ " has a paper note") true
        (String.length f.Figures.paper_shape > 10);
      match f.Figures.axis with
      | Figures.Message_size sizes -> checkb "sizes nonempty" true (sizes <> [])
      | Figures.Throughput tputs ->
          checkb "tputs positive" true (List.for_all (fun t -> t > 0.0) tputs))
    Figures.all

let test_load_for_scaling () =
  let f = List.hd Figures.all in
  let slow = Figures.load_for f ~x:10.0 in
  let fast = Figures.load_for f ~x:5000.0 in
  ignore fast;
  checkb "slow sweeps run longer" true (slow.Experiment.duration >= 4_000.0);
  let quick = Figures.load_for ~quick:true f ~x:10.0 in
  checkb "quick shrinks" true (quick.Experiment.duration < slow.Experiment.duration)

let test_figure_runs_one_cell () =
  (* Run a tiny custom figure end-to-end through the table machinery. *)
  let fig3a = List.find (fun f -> f.Figures.id = "fig3a") Figures.all in
  let tiny = { fig3a with Figures.axis = Figures.Throughput [ 50.0 ] } in
  let table = Figures.run ~quick:true tiny in
  checki "one row" 1 (List.length (Ics_prelude.Table.rows table));
  match Ics_prelude.Table.rows table with
  | [ row ] ->
      checki "three columns" 3 (List.length row);
      List.iter
        (fun cell -> checkb "cell parses as float" true
            (Float.is_finite (float_of_string (String.split_on_char '*' cell |> List.hd))))
        row
  | _ -> Alcotest.fail "unexpected rows"

let test_registry_ids () =
  let ids = Figures.ids () in
  checki "16 panels + 7 tables" 23 (List.length ids);
  checki "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (e : Figures.entry) ->
      match Figures.find e.Figures.name with
      | Some found -> checkb (e.Figures.name ^ " resolves") true (found == e)
      | None -> Alcotest.failf "%s does not resolve" e.Figures.name)
    Figures.registry

let build_table id =
  let e = Option.get (Figures.find id) in
  e.Figures.build ~quick:true ~seed:1L ~seeds:1 ~progress:ignore

(* abl-quorum runs the same short schedule at any length, so its rows are
   pinned whole. *)
let test_abl_quorum_golden () =
  Alcotest.(check (list (list string)))
    "rows"
    [
      [ "3"; "3"; "0"; "true"; "1" ];
      [ "3"; "3"; "1"; "false"; "0" ];
      [ "4"; "3"; "1"; "true"; "1" ];
      [ "5"; "4"; "1"; "true"; "1" ];
      [ "5"; "4"; "2"; "false"; "0" ];
      [ "6"; "5"; "1"; "true"; "1" ];
      [ "6"; "5"; "2"; "false"; "0" ];
      [ "7"; "5"; "2"; "true"; "1" ];
      [ "7"; "5"; "3"; "false"; "0" ];
    ]
    (Ics_prelude.Table.rows (build_table "abl-quorum"))

let test_abl_network_header () =
  let csv = Ics_prelude.Table.to_csv (build_table "abl-network") in
  Alcotest.(check string)
    "header" "size[B],shared-bus[ms],switched[ms]"
    (List.hd (String.split_on_char '\n' csv))

let test_claims_hold () =
  let verdicts = Ics_workload.Claims.verify ~quick:true () in
  List.iter
    (fun v ->
      if not v.Ics_workload.Claims.holds then
        Alcotest.failf "claim failed: %a" Ics_workload.Claims.pp_verdict v)
    verdicts;
  Alcotest.(check bool) "at least ten claims" true (List.length verdicts >= 10)

let suites =
  [
    ( "experiment",
      [
        Alcotest.test_case "produces samples" `Quick test_run_produces_samples;
        Alcotest.test_case "warmup filters" `Quick test_warmup_filters_samples;
        Alcotest.test_case "deterministic" `Quick test_run_is_deterministic;
        Alcotest.test_case "with checker" `Quick test_run_with_check;
        Alcotest.test_case "seed pooling" `Quick test_run_seeds_pools;
        Alcotest.test_case "seed pooling by layer" `Quick test_run_seeds_pools_layers;
        Alcotest.test_case "validation" `Quick test_run_validation;
      ] );
    ( "figures",
      [
        Alcotest.test_case "complete set" `Quick test_figures_complete;
        Alcotest.test_case "well-formed" `Quick test_figures_well_formed;
        Alcotest.test_case "load scaling" `Quick test_load_for_scaling;
        Alcotest.test_case "one cell end-to-end" `Quick test_figure_runs_one_cell;
        Alcotest.test_case "registry ids resolve" `Quick test_registry_ids;
        Alcotest.test_case "abl-quorum golden rows" `Quick test_abl_quorum_golden;
        Alcotest.test_case "abl-network header" `Quick test_abl_network_header;
        Alcotest.test_case "paper claims hold" `Slow test_claims_hold;
      ] );
  ]
