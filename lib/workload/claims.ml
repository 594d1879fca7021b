module Stack = Ics_core.Stack
module Stats = Ics_prelude.Stats

type verdict = { id : string; statement : string; holds : bool; detail : string }

let pp_verdict ppf v =
  Format.fprintf ppf "[%s] %s — %s (%s)"
    (if v.holds then "PASS" else "FAIL")
    v.id v.statement v.detail

(* One measured latency point, on the load the non-panel tables use. *)
let latency ?(quick = false) ~seed config ~tput ~size =
  let measure_ms = Float.max 3000.0 (300_000.0 /. tput) in
  let load = Figures.study_load ~quick ~tput ~size ~measure_ms in
  (Experiment.run ~seed config load).Experiment.latency.Stats.mean

let verify ?(quick = false) ?(seed = 1L) () =
  let lat = latency ~quick ~seed in
  let ms = Printf.sprintf "%.3f" in
  let verdicts = ref [] in
  let claim id statement holds detail =
    verdicts := { id; statement; holds; detail } :: !verdicts
  in

  (* Figure 1: consensus on messages pays for payload size; indirect does
     not. *)
  let ind0 = lat Stack.abcast_indirect ~tput:100.0 ~size:1 in
  let ind5k = lat Stack.abcast_indirect ~tput:100.0 ~size:5000 in
  let msg0 = lat Stack.abcast_msgs ~tput:100.0 ~size:1 in
  let msg5k = lat Stack.abcast_msgs ~tput:100.0 ~size:5000 in
  claim "fig1.size-sensitivity"
    "consensus on messages degrades with payload size much faster than indirect"
    (msg5k -. msg0 > 2.0 *. (ind5k -. ind0) && msg5k > ind5k)
    (Printf.sprintf "on-messages %s->%s, indirect %s->%s" (ms msg0) (ms msg5k) (ms ind0)
       (ms ind5k));

  let ind25_800 = lat Stack.abcast_indirect ~tput:800.0 ~size:2500 in
  let msg25_800 = lat Stack.abcast_msgs ~tput:800.0 ~size:2500 in
  let ind25_100 = lat Stack.abcast_indirect ~tput:100.0 ~size:2500 in
  let msg25_100 = lat Stack.abcast_msgs ~tput:100.0 ~size:2500 in
  claim "fig1.gap-widens-with-throughput"
    "the on-messages penalty grows with throughput"
    (msg25_800 -. ind25_800 > msg25_100 -. ind25_100)
    (Printf.sprintf "gap %s at 100/s vs %s at 800/s"
       (ms (msg25_100 -. ind25_100))
       (ms (msg25_800 -. ind25_800)));

  (* Figure 3: the rcv overhead exists, grows with throughput and with n. *)
  let ov ~n ~tput =
    lat { Stack.abcast_indirect with Stack.n } ~tput ~size:1
    -. lat { Stack.abcast_ids_faulty with Stack.n } ~tput ~size:1
  in
  let ov3_low = ov ~n:3 ~tput:50.0 in
  let ov3_high = ov ~n:3 ~tput:800.0 in
  claim "fig3.overhead-grows-with-throughput"
    "indirect consensus overhead is nonnegative and grows with throughput (n=3)"
    (ov3_low >= -0.01 && ov3_high > ov3_low)
    (Printf.sprintf "overhead %s at 50/s, %s at 800/s" (ms ov3_low) (ms ov3_high));

  let ov5_700 = ov ~n:5 ~tput:700.0 in
  let ov3_700 = ov ~n:3 ~tput:700.0 in
  claim "fig3.overhead-grows-with-n"
    "the overhead is larger at n=5 than at n=3 (same throughput)"
    (ov5_700 > ov3_700)
    (Printf.sprintf "n=3: %s, n=5: %s at 700/s" (ms ov3_700) (ms ov5_700));

  (* Figure 4: overhead is about throughput, not payload size. *)
  let n5 c = { c with Stack.n = 5 } in
  let ov_size size =
    lat (n5 Stack.abcast_indirect) ~tput:400.0 ~size
    -. lat (n5 Stack.abcast_ids_faulty) ~tput:400.0 ~size
  in
  let ov_small = ov_size 500 in
  let ov_large = ov_size 4000 in
  claim "fig4.overhead-flat-in-size"
    "the overhead does not grow with payload size (both sides exchange only ids)"
    (ov_large < (2.0 *. Float.max ov_small 0.05) +. 0.1)
    (Printf.sprintf "overhead %s at 500B vs %s at 4000B" (ms ov_small) (ms ov_large));

  (* Figures 5-7: indirect+RB beats consensus-on-ids+URB; the gap grows
     with throughput; O(n) RB makes indirect nearly throughput-insensitive. *)
  let s2 c = { c with Stack.setup = Stack.Setup2 } in
  let ind_urb tput =
    ( lat (s2 Stack.abcast_indirect) ~tput ~size:1,
      lat (s2 Stack.abcast_urb) ~tput ~size:1 )
  in
  let i500, u500 = ind_urb 500.0 in
  let i2000, u2000 = ind_urb 2000.0 in
  claim "fig5.indirect-beats-urb"
    "indirect consensus + RB beats plain consensus on ids + URB at every load"
    (i500 < u500 && i2000 < u2000)
    (Printf.sprintf "500/s: %s vs %s; 2000/s: %s vs %s" (ms i500) (ms u500) (ms i2000)
       (ms u2000));
  claim "fig7.urb-degrades-faster"
    "the URB-based stack degrades faster with throughput"
    (u2000 -. u500 > i2000 -. i500)
    (Printf.sprintf "urb +%s, indirect +%s over 500->2000/s" (ms (u2000 -. u500))
       (ms (i2000 -. i500)));

  let relay c = { c with Stack.broadcast = Stack.Fd_relay } in
  let ir500 = lat (s2 (relay Stack.abcast_indirect)) ~tput:500.0 ~size:1 in
  let ir2000 = lat (s2 (relay Stack.abcast_indirect)) ~tput:2000.0 ~size:1 in
  claim "fig7b.on-rb-flattens"
    "with O(n) reliable broadcast the indirect stack is much less affected by throughput"
    (ir2000 -. ir500 < 0.5 *. (u2000 -. u500) && ir2000 < i2000)
    (Printf.sprintf "fd-relay +%s vs urb +%s; %s < %s at 2000/s" (ms (ir2000 -. ir500))
       (ms (u2000 -. u500)) (ms ir2000) (ms i2000));

  (* Section 2.2 / 3.3.2: correctness claims via the scripted scenarios. *)
  let faulty = Scenarios.validity_scenario Scenarios.Faulty_ids in
  let fixed = Scenarios.validity_scenario Scenarios.Indirect in
  claim "s2.2.faulty-violates-validity"
    "unmodified consensus on ids violates AB validity under a crash; indirect does not"
    ((not (Ics_checker.Checker.ok faulty.Scenarios.verdict))
    && Ics_checker.Checker.ok fixed.Scenarios.verdict)
    (Printf.sprintf "faulty: %d violation(s); indirect: clean"
       (List.length faulty.Scenarios.verdict.Ics_checker.Checker.violations));

  let naive = Scenarios.mr_scenario Scenarios.Naive in
  let mr_fixed = Scenarios.mr_scenario Scenarios.Indirect_mr in
  claim "s3.3.2.naive-mr-loses-payloads"
    "the naive MR adaptation violates No loss with a single crash; indirect MR survives"
    ((not (Ics_checker.Checker.ok naive.Scenarios.verdict))
    && Ics_checker.Checker.ok mr_fixed.Scenarios.verdict)
    (Printf.sprintf "naive: %d violation(s); indirect MR: clean"
       (List.length naive.Scenarios.verdict.Ics_checker.Checker.violations));

  (* Section 3.3.3: the resilience boundary of indirect MR, read off four
     of abl-quorum's rows. *)
  let delivered n f = Figures.mr_delivered ~seed ~n ~f in
  claim "s3.3.3.resilience-boundary"
    "indirect MR is live exactly below f < n/3 (blocks at n=3/f=1, lives at n=4/f=1)"
    (delivered 3 1 = 0 && delivered 4 1 = 1 && delivered 7 2 = 1 && delivered 7 3 = 0)
    "n=3/f=1: blocked; n=4/f=1 and n=7/f=2: delivered; n=7/f=3: blocked";

  List.rev !verdicts
