(* Tests for the atomic broadcast reduction (Algorithm 1) and the stack
   assembly, including randomized whole-system property tests. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Rng = Ics_prelude.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ideal = Stack.Ideal_lan { delay = 1.0; jitter = 0.2 }

let base config = { config with Stack.setup = ideal; fd_kind = Stack.Oracle 10.0 }

let seq_strings stack p =
  List.map Msg_id.to_string (Abcast.delivered_sequence stack.Stack.abcast p)

let test_single_message () =
  let stack = Test_util.run_stack (base Stack.abcast_indirect) [ (1.0, 0, 10) ] in
  List.iter
    (fun p -> Alcotest.(check (list string)) "delivered" [ "p0#0" ] (seq_strings stack p))
    [ 0; 1; 2 ]

let test_total_order_and_checker () =
  let stack =
    Test_util.run_stack (base Stack.abcast_indirect)
      (Test_util.burst ~n:3 ~count:10 ~body_bytes:50 ~spacing:2.0)
  in
  let s0 = seq_strings stack 0 in
  checki "all messages" 30 (List.length s0);
  List.iter (fun p -> Alcotest.(check (list string)) "same order" s0 (seq_strings stack p)) [ 1; 2 ];
  Test_util.assert_clean_verdict "indirect burst"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let test_all_four_stacks_agree () =
  List.iter
    (fun config ->
      let stack =
        Test_util.run_stack (base config)
          (Test_util.burst ~n:3 ~count:5 ~body_bytes:20 ~spacing:3.0)
      in
      let s0 = seq_strings stack 0 in
      checki "15 messages" 15 (List.length s0);
      List.iter
        (fun p -> Alcotest.(check (list string)) "same order" s0 (seq_strings stack p))
        [ 1; 2 ];
      Test_util.assert_clean_verdict "good-run stack"
        (Checker.check_all_abcast (Test_util.checker_run stack)))
    [ Stack.abcast_indirect; Stack.abcast_msgs; Stack.abcast_ids_faulty; Stack.abcast_urb ]

let test_mr_stack () =
  let config = { (base Stack.abcast_indirect) with Stack.algo = Stack.Mr; n = 4 } in
  let stack =
    Test_util.run_stack config (Test_util.burst ~n:4 ~count:5 ~body_bytes:20 ~spacing:3.0)
  in
  checki "delivered" 20 (List.length (seq_strings stack 0));
  Test_util.assert_clean_verdict "mr stack"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let test_abroadcast_ids_unique () =
  let stack = Stack.create (base Stack.abcast_indirect) in
  let m1 = Stack.abroadcast stack ~src:0 ~body_bytes:1 in
  let m2 = Stack.abroadcast stack ~src:0 ~body_bytes:1 in
  let m3 = Stack.abroadcast stack ~src:1 ~body_bytes:1 in
  checkb "unique" true
    (not (Msg_id.equal m1.Ics_net.App_msg.id m2.Ics_net.App_msg.id));
  checkb "per-origin sequences" true
    (not (Msg_id.equal m1.Ics_net.App_msg.id m3.Ics_net.App_msg.id))

let test_dead_broadcaster_is_noop () =
  let stack = Stack.create (base Stack.abcast_indirect) in
  Engine.crash stack.Stack.engine 0;
  ignore (Stack.abroadcast stack ~src:0 ~body_bytes:1);
  Stack.run stack;
  checki "nothing delivered" 0 (List.length (seq_strings stack 1))

let test_crash_mid_run_prefix () =
  let stack =
    Test_util.run_stack (base Stack.abcast_indirect)
      ~crashes:[ (2, 25.0) ]
      (Test_util.burst ~n:3 ~count:10 ~body_bytes:20 ~spacing:5.0)
  in
  let s0 = seq_strings stack 0 in
  let s2 = seq_strings stack 2 in
  checkb "crashed sequence is a prefix" true
    (List.length s2 <= List.length s0
    && List.for_all2 String.equal s2 (List.filteri (fun i _ -> i < List.length s2) s0));
  Test_util.assert_clean_verdict "crash run"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let test_blocked_head_none_in_good_run () =
  let stack = Test_util.run_stack (base Stack.abcast_indirect) [ (1.0, 0, 5) ] in
  List.iter
    (fun p -> checkb "no blockage" true (Abcast.blocked_head stack.Stack.abcast p = None))
    [ 0; 1; 2 ]

let test_holds_tracks_payloads () =
  let stack = Test_util.run_stack (base Stack.abcast_indirect) [ (1.0, 0, 5) ] in
  let id = Msg_id.make ~origin:0 ~seq:0 in
  List.iter
    (fun p -> checkb "payload held" true (Abcast.holds stack.Stack.abcast p id))
    [ 0; 1; 2 ];
  checkb "unknown id" false (Abcast.holds stack.Stack.abcast 0 (Msg_id.make ~origin:2 ~seq:9))

let test_describe_and_names () =
  let stack = Stack.create (base Stack.abcast_indirect) in
  let d = Stack.describe stack in
  checkb "describe mentions pieces" true
    (Test_util.contains d "indirect" && Test_util.contains d "ct-indirect"
    && Test_util.contains d "n=3");
  let urb = Stack.create (base Stack.abcast_urb) in
  checkb "urb described" true (Test_util.contains (Stack.describe urb) "urb")

let test_engine_mismatch_rejected () =
  let engine = Engine.create ~n:5 () in
  Alcotest.check_raises "mismatch" (Invalid_argument "Stack.create: engine/config n mismatch")
    (fun () -> ignore (Stack.create ~engine (base Stack.abcast_indirect)))

let test_unordered_count_drains () =
  let stack = Test_util.run_stack (base Stack.abcast_indirect) [ (1.0, 0, 5); (2.0, 1, 5) ] in
  List.iter
    (fun p -> checki "unordered drained" 0 (Abcast.unordered_count stack.Stack.abcast p))
    [ 0; 1; 2 ]

(* Randomized whole-system property: for every stack variant, random loads
   with random (resilience-respecting) crashes keep every atomic broadcast
   property.  This is the paper's Algorithm 1 + Algorithm 2/3 safety net. *)

let random_run ~algo ~ordering ~broadcast ~n ~seed =
  let config =
    {
      Stack.n;
      seed = Int64.of_int seed;
      algo;
      ordering;
      broadcast;
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.5 };
      batching = Abcast.no_batching;
      fd_kind = Stack.Oracle 15.0;
      trace = `On;
    }
  in
  let rng = Rng.create (Int64.of_int (seed * 7 + 1)) in
  let msgs = 1 + Rng.int rng 12 in
  let broadcasts =
    List.init msgs (fun i ->
        (Rng.float rng 40.0, Rng.int rng n, Rng.int rng 200) |> fun (t, p, b) ->
        (t, p, b) |> fun x -> ignore i; x)
  in
  let max_f =
    match (algo, ordering) with
    | Stack.Mr, Abcast.Indirect_consensus -> Ics_consensus.Quorum.max_faults_two_thirds ~n
    | _ -> Ics_consensus.Quorum.max_faults_majority ~n
  in
  let crashes =
    if max_f > 0 && Rng.bool rng then [ (Rng.int rng n, Rng.float rng 60.0) ] else []
  in
  let stack = Test_util.run_stack config ~crashes ~horizon:60_000.0 broadcasts in
  (stack, Test_util.checker_run stack)

let qcheck_stack_properties ~name ~algo ~ordering ~broadcast =
  QCheck.Test.make ~name ~count:25
    QCheck.(pair (int_range 3 5) (int_bound 100_000))
    (fun (n, seed) ->
      let _, run = random_run ~algo ~ordering ~broadcast ~n ~seed in
      let verdict = Checker.check_all_abcast run in
      if not (Checker.ok verdict) then
        QCheck.Test.fail_reportf "%a" Checker.pp_verdict verdict
      else true)

let qcheck_ct_indirect =
  qcheck_stack_properties ~name:"abcast[ct-indirect+flood] safe under random crashes"
    ~algo:Stack.Ct ~ordering:Abcast.Indirect_consensus ~broadcast:Stack.Flood

let qcheck_ct_indirect_fd_relay =
  qcheck_stack_properties ~name:"abcast[ct-indirect+fd-relay] safe under random crashes"
    ~algo:Stack.Ct ~ordering:Abcast.Indirect_consensus ~broadcast:Stack.Fd_relay

let qcheck_ct_urb =
  qcheck_stack_properties ~name:"abcast[ct-on-ids+urb] safe under random crashes"
    ~algo:Stack.Ct ~ordering:Abcast.Consensus_on_ids ~broadcast:Stack.Uniform

let qcheck_ct_msgs =
  qcheck_stack_properties ~name:"abcast[ct-on-messages+flood] safe under random crashes"
    ~algo:Stack.Ct ~ordering:Abcast.Consensus_on_messages ~broadcast:Stack.Flood

let qcheck_mr_indirect =
  qcheck_stack_properties ~name:"abcast[mr-indirect+flood] safe under random crashes"
    ~algo:Stack.Mr ~ordering:Abcast.Indirect_consensus ~broadcast:Stack.Flood

let qcheck_mr_msgs =
  qcheck_stack_properties ~name:"abcast[mr-on-messages+flood] safe under random crashes"
    ~algo:Stack.Mr ~ordering:Abcast.Consensus_on_messages ~broadcast:Stack.Flood

let qcheck_lb_indirect =
  qcheck_stack_properties ~name:"abcast[lb-indirect+flood] safe under random crashes"
    ~algo:Stack.Lb ~ordering:Abcast.Indirect_consensus ~broadcast:Stack.Flood

(* Flood's send order on the paper's stack (n = 3, Setup 1, CT indirect,
   200 ms oracle): p1 abroadcasts at 1 ms, so p0, the round-1
   coordinator, receives the payload, relays it to p2 and proposes.
   Returns each process's adelivery times and every frame in the order it
   reached the network. *)
let flood_setup1 ?crash () =
  let engine = Engine.create ~n:3 () in
  let adelivered = Array.make 3 [] in
  let on_deliver p _ = adelivered.(p) <- Engine.now engine :: adelivered.(p) in
  let stack = Stack.create ~engine ~on_deliver Stack.default_config in
  let wire = ref [] in
  Ics_net.Transport.interpose stack.Stack.transport (fun next msg ->
      wire := msg :: !wire;
      next msg);
  Engine.schedule engine ~at:1.0 (fun () ->
      ignore (Stack.abroadcast stack ~src:1 ~body_bytes:100));
  Option.iter (fun at -> Engine.crash_at engine 1 ~at) crash;
  Stack.run ~until:1_000.0 stack;
  (adelivered, List.rev !wire)

let frames_from src wire =
  List.filter_map
    (fun (m : Ics_net.Message.t) ->
      if m.src = src then Some (Ics_net.Layer.name m.layer, m.dst) else None)
    wire

(* The coordinator's proposal to the origin leaves before its relay, and
   on the link to p2 the relay still precedes the proposal. *)
let test_flood_coordinator_order () =
  let _, wire = flood_setup1 () in
  let first3 = List.filteri (fun i _ -> i < 3) (frames_from 0 wire) in
  Alcotest.(check (list (pair string int)))
    "p0: Prop to the origin, relay to p2, Prop to p2"
    [ ("consensus", 1); ("rb", 2); ("consensus", 2) ]
    first3

(* The origin crashes between its two copies: only p0 gets the payload
   from it, and p2 gets it through p0's relay.  Both survivors still
   adeliver in round 1, within 2 ms: the relay reaches p2 ahead of the
   proposal, so p2 never nacks a proposal whose payload it lacks. *)
let test_flood_crash_window () =
  let adelivered, wire = flood_setup1 ~crash:1.15 () in
  Alcotest.(check (list (pair string int)))
    "the origin's copy to p2 dies on its CPU" [ ("rb", 0) ] (frames_from 1 wire);
  List.iter
    (fun p ->
      match adelivered.(p) with
      | [ at ] ->
          checkb (Printf.sprintf "p%d adelivers within 2 ms (at %.3f)" p (at -. 1.0)) true
            (at -. 1.0 < 2.0)
      | l -> Alcotest.failf "p%d adelivered %d times" p (List.length l))
    [ 0; 2 ]

let suites =
  [
    ( "abcast",
      [
        Alcotest.test_case "single message" `Quick test_single_message;
        Alcotest.test_case "total order + checker" `Quick test_total_order_and_checker;
        Alcotest.test_case "all four stacks agree" `Quick test_all_four_stacks_agree;
        Alcotest.test_case "mr stack" `Quick test_mr_stack;
        Alcotest.test_case "unique ids" `Quick test_abroadcast_ids_unique;
        Alcotest.test_case "dead broadcaster" `Quick test_dead_broadcaster_is_noop;
        Alcotest.test_case "crash prefix" `Quick test_crash_mid_run_prefix;
        Alcotest.test_case "no blocked head in good runs" `Quick test_blocked_head_none_in_good_run;
        Alcotest.test_case "holds tracks payloads" `Quick test_holds_tracks_payloads;
        Alcotest.test_case "describe" `Quick test_describe_and_names;
        Alcotest.test_case "engine mismatch" `Quick test_engine_mismatch_rejected;
        Alcotest.test_case "unordered drains" `Quick test_unordered_count_drains;
        Alcotest.test_case "flood: coordinator send order" `Quick test_flood_coordinator_order;
        Alcotest.test_case "flood: origin crash between copies" `Quick test_flood_crash_window;
      ] );
    ( "abcast-properties",
      [
        QCheck_alcotest.to_alcotest qcheck_ct_indirect;
        QCheck_alcotest.to_alcotest qcheck_ct_indirect_fd_relay;
        QCheck_alcotest.to_alcotest qcheck_ct_urb;
        QCheck_alcotest.to_alcotest qcheck_ct_msgs;
        QCheck_alcotest.to_alcotest qcheck_mr_indirect;
        QCheck_alcotest.to_alcotest qcheck_mr_msgs;
        QCheck_alcotest.to_alcotest qcheck_lb_indirect;
      ] );
  ]
