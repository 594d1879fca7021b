(* Tests for batched/pipelined proposals and ring dissemination: batched
   cells must stay checker-green under every fault plan, the flush timer
   must drain sub-batch residues (including at the horizon, lint rule
   P2's discipline), and the batched sim cell must replay
   deterministically and stay pinned.  The batch=1/pipeline=1 default
   reproducing the pre-batching chaos runs is pinned in test_codec. *)

module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Chaos = Ics_workload.Chaos
module Saturation = Ics_workload.Saturation
module Profile = Ics_core.Profile

let checkb = Alcotest.(check bool)

let ideal = Stack.Ideal_lan { delay = 1.0; jitter = 0.2 }

let batched = { Abcast.batch = 4; pipeline = 2; flush_ms = 2.0 }

(* Batching on top of faults: the chaos cells that exercise drops, churn
   and suspicion storms must stay green when several ids ride one
   instance and several instances run concurrently. *)
let test_batched_chaos_green () =
  List.iter
    (fun (stack, plan, seed) ->
      let r = Chaos.run_one ~batching:batched stack plan ~seed in
      checkb
        (Printf.sprintf "batched %s/%s seed %Ld" (Chaos.stack_name stack)
           (Chaos.plan_name plan) seed)
        true (Chaos.passed r))
    [
      (Chaos.Ct_indirect, Chaos.Drop, 2L);
      (Chaos.Ct_indirect, Chaos.Storm, 5L);
      (Chaos.Mr_indirect, Chaos.Mixed, 3L);
      (Chaos.Mr_indirect, Chaos.Storm, 7L);
    ]

(* Two runs of the batched/pipelined/ring saturation cell must produce
   bit-identical traces — determinism does not stop at batch=1. *)
let test_batched_replay_deterministic () =
  match
    Saturation.replay_check ~offered:200.0 ~duration_ms:400.0 ~n:3
      ~batching:batched ~broadcast:Profile.Ring ()
  with
  | Ok _ -> ()
  | Error (a, b) -> Alcotest.failf "batched sim replay diverged: %s vs %s" a b

(* A run-twice check cannot see a change that moves both runs alike, so
   the make saturation-smoke cell (n=5, batch=8/pipeline=2/flush=1 ms,
   ring) is also pinned to its trace digest. *)
let test_saturation_fingerprint_pinned () =
  Alcotest.(check string)
    "saturation-smoke cell" "6b13e6c0cc3dc9c192ad2620fff4fb3b"
    (Saturation.sim_fingerprint ~seed:1L ~n:5
       ~batching:{ Abcast.batch = 8; pipeline = 2; flush_ms = 1.0 }
       ~broadcast:Profile.Ring ())

let delivered stack p = Abcast.delivered_sequence stack.Stack.abcast p

(* Fewer arrivals than [batch]: only the flush timer can open the
   instance, so delivery happening at all is the timer working; the
   checker battery then holds the result to the usual standard. *)
let test_flush_timer_drains_residue () =
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      batching = { Abcast.batch = 64; pipeline = 2; flush_ms = 5.0 };
    }
  in
  let stack =
    Test_util.run_stack config [ (1.0, 0, 16); (1.5, 1, 16); (2.0, 2, 16) ]
  in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d delivered" p)
        3
        (List.length (delivered stack p)))
    [ 0; 1; 2 ];
  Test_util.assert_clean_verdict "flush residue"
    (Checker.check_all_abcast (Test_util.checker_run stack))

(* Arrivals just before the run's horizon, with a flush period that would
   fire past it: the timer must not park them — lint rule P2's deadline
   discipline says flush now instead — so the run still drains. *)
let test_flush_honors_horizon () =
  let horizon = 2_000.0 in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      batching = { Abcast.batch = 64; pipeline = 2; flush_ms = 500.0 };
    }
  in
  let stack =
    Test_util.run_stack ~horizon config
      [ (horizon -. 30.0, 0, 16); (horizon -. 29.0, 1, 16) ]
  in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d delivered" p)
        2
        (List.length (delivered stack p)))
    [ 0; 1; 2 ]

(* Ring dissemination under batching: payloads travel successor to
   successor while ids ride batched pipelined instances, and the full
   battery (incl. strict no-loss) holds. *)
let test_ring_batched_delivers () =
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      broadcast = Stack.Ring;
      batching = batched;
    }
  in
  let stack =
    Test_util.run_stack config (Test_util.burst ~n:3 ~count:5 ~body_bytes:20 ~spacing:3.0)
  in
  let seq p = List.map Ics_net.Msg_id.to_string (delivered stack p) in
  Alcotest.(check int) "all delivered" 15 (List.length (seq 0));
  List.iter
    (fun p -> Alcotest.(check (list string)) "same order" (seq 0) (seq p))
    [ 1; 2 ];
  Test_util.assert_clean_verdict "ring batched"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let suites =
  [
    ( "batching",
      [
        Alcotest.test_case "batched chaos cells green" `Quick test_batched_chaos_green;
        Alcotest.test_case "batched replay deterministic" `Quick
          test_batched_replay_deterministic;
        Alcotest.test_case "flush timer drains residue" `Quick
          test_flush_timer_drains_residue;
        Alcotest.test_case "flush honors horizon" `Quick test_flush_honors_horizon;
        Alcotest.test_case "ring + batching delivers" `Quick test_ring_batched_delivers;
        Alcotest.test_case "saturation fingerprint pinned" `Quick
          test_saturation_fingerprint_pinned;
      ] );
  ]
