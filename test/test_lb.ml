(* Tests specific to the leader-based (Paxos-style) consensus extension. *)

module Engine = Ics_sim.Engine
module Msg_id = Ics_net.Msg_id
module Fd = Ics_fd.Failure_detector
module Proposal = Ics_consensus.Proposal
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_leader_estimate () =
  let e = Engine.create ~n:4 () in
  let ctl = Fd.manual e in
  let fd = Fd.Control.fd ctl in
  checki "initially p0" 0 (Fd.leader fd ~observer:2);
  Fd.Control.suspect ctl ~observer:2 0;
  checki "skips suspected" 1 (Fd.leader fd ~observer:2);
  Fd.Control.suspect ctl ~observer:2 1;
  checki "skips two" 2 (Fd.leader fd ~observer:2);
  Fd.Control.trust ctl ~observer:2 0;
  checki "trust restores" 0 (Fd.leader fd ~observer:2);
  (* Another observer's view is independent. *)
  checki "independent views" 0 (Fd.leader fd ~observer:3)

let lb_config =
  {
    Stack.abcast_indirect with
    Stack.algo = Stack.Lb;
    setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
    fd_kind = Stack.Oracle 10.0;
  }

let test_lb_stack_good_run () =
  let stack =
    Test_util.run_stack lb_config (Test_util.burst ~n:3 ~count:8 ~body_bytes:100 ~spacing:3.0)
  in
  checki "all delivered" 24 (List.length (Abcast.delivered_sequence stack.Stack.abcast 0));
  Test_util.assert_clean_verdict "lb good run"
    (Checker.check_all_abcast (Test_util.checker_run stack))

(* p0 leads ballot 0 of every instance; killing it forces p1 to take
   over via prepare ballots > 0. *)
let failover_run () =
  Test_util.run_stack lb_config
    ~crashes:[ (0, 15.0) ]
    [ (1.0, 0, 50); (30.0, 1, 50); (40.0, 2, 50) ]

let test_lb_leader_crash_failover () =
  let stack = failover_run () in
  let s1 = Abcast.delivered_sequence stack.Stack.abcast 1 in
  checkb "post-crash messages delivered" true (List.length s1 >= 2);
  Test_util.assert_clean_verdict "lb failover"
    (Checker.check_all_abcast (Test_util.checker_run stack))

(* The failover run's trace digest: no chaos pin covers LB, so this one
   holds its ballots, kicks and decision flood bit-identical. *)
let test_lb_failover_fingerprint_pinned () =
  let stack = failover_run () in
  Alcotest.(check string)
    "lb failover trace" "b14200054522619d46dfb095810d3a77"
    (Ics_sim.Trace.fingerprint (Engine.trace stack.Stack.engine))

let test_lb_non_leader_proposer_kicks () =
  (* Only p2 broadcasts: its proposal must still get ordered even though
     p2 never leads (p0 is alive and lowest-numbered). *)
  let stack = Test_util.run_stack lb_config [ (1.0, 2, 50) ] in
  List.iter
    (fun p ->
      checki "delivered everywhere" 1
        (List.length (Abcast.delivered_sequence stack.Stack.abcast p)))
    [ 0; 1; 2 ]

let test_lb_double_crash_n5 () =
  let config = { lb_config with Stack.n = 5; fd_kind = Stack.Oracle 5.0 } in
  let stack =
    Test_util.run_stack config
      ~crashes:[ (0, 10.0); (1, 20.0) ]
      (Test_util.burst ~n:5 ~count:8 ~body_bytes:30 ~spacing:6.0)
  in
  let s2 = Abcast.delivered_sequence stack.Stack.abcast 2 in
  let s3 = Abcast.delivered_sequence stack.Stack.abcast 3 in
  checkb "survivors live (f=2 < n/2)" true (List.length s2 >= 24);
  checkb "agreement" true (List.for_all2 Msg_id.equal s2 s3);
  Test_util.assert_clean_verdict "lb double crash"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let test_lb_blocks_without_majority () =
  let stack =
    Test_util.run_stack lb_config
      ~crashes:[ (1, 0.5); (2, 0.5) ]
      [ (10.0, 0, 50) ]
  in
  checki "no delivery without majority" 0
    (List.length (Abcast.delivered_sequence stack.Stack.abcast 0))

let test_lb_indirect_wedge_immunity () =
  (* The §2.2 schedule against the LB stack: the accept-guard nacks the
     orphan id and the system reroutes, exactly like CT-indirect. *)
  let rule (m : Ics_net.Message.t) =
    if Ics_net.Message.layer_name m = "rb" && m.src = 0 then Ics_net.Model.Drop
    else Ics_net.Model.Pass
  in
  let stack =
    Test_util.run_stack ~rule lb_config
      ~crashes:[ (0, 10.0) ]
      [ (1.0, 0, 64); (50.0, 1, 64) ]
  in
  checkb "no wedge" true (Abcast.blocked_head stack.Stack.abcast 1 = None);
  checki "p1's message delivered" 1
    (List.length (Abcast.delivered_sequence stack.Stack.abcast 1));
  Test_util.assert_clean_verdict "lb indirect wedge immunity"
    (Checker.check_all_abcast (Test_util.checker_run stack))

let test_lb_faulty_variant_wedges () =
  (* And the plain variant on ids reproduces the wedge, showing the guard
     is what saves it — the CT story generalizes to ballots. *)
  let rule (m : Ics_net.Message.t) =
    if Ics_net.Message.layer_name m = "rb" && m.src = 0 then Ics_net.Model.Drop
    else Ics_net.Model.Pass
  in
  let config = { lb_config with Stack.ordering = Abcast.Consensus_on_ids } in
  let stack =
    Test_util.run_stack ~rule config
      ~crashes:[ (0, 10.0) ]
      [ (1.0, 0, 64); (50.0, 1, 64) ]
  in
  checkb "wedged" true (Abcast.blocked_head stack.Stack.abcast 1 <> None);
  checkb "no-loss violated" true
    (Test_util.has_violation
       (Checker.check_all_abcast (Test_util.checker_run stack))
       "indirect-consensus.no-loss")

let qcheck_lb_safety_under_loss =
  QCheck.Test.make ~name:"lb-indirect safety under lossy network" ~count:30
    QCheck.(triple (int_range 3 5) (int_bound 50_000) (int_range 1 30))
    (fun (n, seed, drop) ->
      (* Reuse the adversarial driver with the Lb engine. *)
      let config =
        {
          Stack.n;
          seed = Int64.of_int (seed + 2);
          algo = Stack.Lb;
          ordering = Abcast.Indirect_consensus;
          broadcast = Stack.Flood;
          setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.3 };
          batching = Abcast.no_batching;
          fd_kind = Stack.Oracle 15.0;
          trace = `On;
        }
      in
      let rng = Ics_prelude.Rng.create (Int64.of_int (seed + 41)) in
      let rule (_ : Ics_net.Message.t) =
        let roll = Ics_prelude.Rng.int rng 100 in
        if roll < drop then Ics_net.Model.Drop
        else if roll < drop + 15 then Ics_net.Model.Delay_by (Ics_prelude.Rng.float rng 15.0)
        else Ics_net.Model.Pass
      in
      let broadcasts =
        List.init (1 + Ics_prelude.Rng.int rng 8) (fun _ ->
            (Ics_prelude.Rng.float rng 40.0, Ics_prelude.Rng.int rng n, Ics_prelude.Rng.int rng 100))
      in
      let stack = Test_util.run_stack ~rule ~horizon:30_000.0 config broadcasts in
      let verdict = Checker.check_all_abcast (Test_util.checker_run stack) in
      let safety =
        List.filter
          (fun v ->
            match v.Checker.property with
            | "abcast.uniform-integrity" | "abcast.uniform-total-order"
            | "consensus.uniform-integrity" | "consensus.uniform-agreement" ->
                true
            | _ -> false)
          verdict.Checker.violations
      in
      if safety <> [] then
        QCheck.Test.fail_reportf "%a" Checker.pp_verdict
          { Checker.violations = safety; checked = [] }
      else true)

let suites =
  [
    ( "lb",
      [
        Alcotest.test_case "leader estimate" `Quick test_leader_estimate;
        Alcotest.test_case "stack good run" `Quick test_lb_stack_good_run;
        Alcotest.test_case "leader crash failover" `Quick test_lb_leader_crash_failover;
        Alcotest.test_case "failover fingerprint pinned" `Quick
          test_lb_failover_fingerprint_pinned;
        Alcotest.test_case "non-leader proposer kicks" `Quick test_lb_non_leader_proposer_kicks;
        Alcotest.test_case "double crash n=5" `Quick test_lb_double_crash_n5;
        Alcotest.test_case "blocks without majority" `Quick test_lb_blocks_without_majority;
        Alcotest.test_case "indirect wedge immunity" `Quick test_lb_indirect_wedge_immunity;
        Alcotest.test_case "faulty variant wedges" `Quick test_lb_faulty_variant_wedges;
        QCheck_alcotest.to_alcotest qcheck_lb_safety_under_loss;
      ] );
  ]
