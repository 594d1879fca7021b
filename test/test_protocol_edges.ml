(* Protocol edge cases driven by a manual failure detector, plus tests for
   the utilization/custom-setup APIs. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Fd = Ics_fd.Failure_detector
module Proposal = Ics_consensus.Proposal
module Ct = Ics_consensus.Ct
module Mr = Ics_consensus.Mr
module Instances = Ics_consensus.Instances
module Intf = Ics_consensus.Consensus_intf
module Stack = Ics_core.Stack
module Experiment = Ics_workload.Experiment

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let mid o s = Msg_id.make ~origin:o ~seq:s

type h = {
  engine : Engine.t;
  control : Fd.Control.t;
  handle : Intf.handle;
  decisions : (Pid.t * int * Proposal.t) list ref;
}

let mk_manual ?(n = 3) algo =
  let engine = Engine.create ~n () in
  let model = Model.constant ~delay:1.0 ~n ~seed:1L () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let control = Fd.manual engine in
  let fd = Fd.Control.fd control in
  let decisions = ref [] in
  let callbacks =
    {
      Intf.on_decide = (fun p k v -> decisions := (p, k, v) :: !decisions);
      join = (fun _ _ -> Proposal.empty);
    }
  in
  let handle =
    match algo with
    | `Ct -> Ct.create transport fd { Instances.rcv = None } callbacks
    | `Mr -> Mr.create transport fd { Instances.rcv = None } callbacks
  in
  { engine; control; handle; decisions }

(* CT: a false suspicion of the round-1 coordinator sends nacks; the run
   must still decide (in a later round) and agree. *)
let test_ct_false_suspicion_recovers () =
  let h = mk_manual `Ct in
  let v = Proposal.on_ids [ mid 0 0 ] in
  (* p1 and p2 falsely suspect p0 before the run starts: their Phase 3
     nacks abort round 1. *)
  Fd.Control.suspect h.control ~observer:1 0;
  Fd.Control.suspect h.control ~observer:2 0;
  Engine.schedule h.engine ~at:1.0 (fun () ->
      List.iter (fun p -> h.handle.Intf.propose p 1 v) [ 0; 1; 2 ]);
  Engine.run h.engine;
  checki "all decide despite false suspicion" 3 (List.length !(h.decisions));
  List.iter
    (fun (_, _, d) -> checkb "decided v" true (Proposal.equal d v))
    !(h.decisions)

(* CT: suspicion arriving mid-wait (not just pre-checked at round entry)
   must also unblock Phase 3. *)
let test_ct_mid_wait_suspicion () =
  let h = mk_manual `Ct in
  let v = Proposal.on_ids [ mid 1 0 ] in
  Engine.schedule h.engine ~at:1.0 (fun () ->
      (* Only p1/p2 propose; p0 (round-1 coordinator) stays silent and
         never joins, so Phase 3 blocks until the detector speaks. *)
      List.iter (fun p -> h.handle.Intf.propose p 1 v) [ 1; 2 ]);
  Engine.crash_at h.engine 0 ~at:2.0;
  Engine.schedule h.engine ~at:50.0 (fun () ->
      Fd.Control.suspect_everywhere h.control 0);
  Engine.run h.engine;
  let deciders = List.map (fun (p, _, _) -> p) !(h.decisions) in
  checkb "p1 decided" true (List.mem 1 deciders);
  checkb "p2 decided" true (List.mem 2 deciders)

(* MR: same shape — coordinator silent, suspicion mid-round unblocks the
   ⊥-relay path and the next round decides. *)
let test_mr_mid_wait_suspicion () =
  let h = mk_manual `Mr in
  let v = Proposal.on_ids [ mid 1 0 ] in
  Engine.schedule h.engine ~at:1.0 (fun () ->
      List.iter (fun p -> h.handle.Intf.propose p 1 v) [ 1; 2 ]);
  Engine.crash_at h.engine 0 ~at:2.0;
  Engine.schedule h.engine ~at:50.0 (fun () ->
      Fd.Control.suspect_everywhere h.control 0);
  Engine.run h.engine;
  let deciders = List.map (fun (p, _, _) -> p) !(h.decisions) in
  checkb "p1 decided" true (List.mem 1 deciders);
  checkb "p2 decided" true (List.mem 2 deciders)

(* MR: a round mixing the coordinator's value with ⊥ adopts the value and
   decides it unanimously one round later — the adoption path of line 28
   exercised deterministically. *)
let test_mr_mixed_round_adoption () =
  let h = mk_manual `Mr in
  let v0 = Proposal.on_ids [ mid 0 0 ] in
  let v_other = Proposal.on_ids [ mid 2 7 ] in
  (* p2 permanently suspects the round-1 coordinator p0, relays ⊥ in round
     1; p0/p1 relay v0.  Quorum = 2: p2 can observe {v0, ⊥}. *)
  Fd.Control.suspect h.control ~observer:2 0;
  Engine.schedule h.engine ~at:1.0 (fun () ->
      h.handle.Intf.propose 0 1 v0;
      h.handle.Intf.propose 1 1 v0;
      h.handle.Intf.propose 2 1 v_other);
  Engine.run h.engine;
  checki "three deciders" 3 (List.length !(h.decisions));
  List.iter
    (fun (_, _, d) -> checkb "v0 won (adopted, not overwritten)" true (Proposal.equal d v0))
    !(h.decisions)

(* CT round buffering: a process lagging a full round behind must catch
   up using the buffered messages of the round it skipped into.  Forced
   by delaying every consensus message to p2. *)
let test_ct_lagging_process_catches_up () =
  let n = 3 in
  let engine = Engine.create ~n () in
  let rule (m : Ics_net.Message.t) =
    if Ics_net.Message.layer_name m = "consensus" && Pid.equal m.dst 2 then
      Model.Delay_by 30.0
    else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:1L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let fd = Fd.oracle engine ~detection_delay:20.0 in
  let decisions = ref [] in
  let callbacks =
    {
      Ics_consensus.Consensus_intf.on_decide =
        (fun p k v -> decisions := (p, k, v) :: !decisions);
      join = (fun _ _ -> Proposal.empty);
    }
  in
  let handle = Ct.create transport fd { Instances.rcv = None } callbacks in
  let v = Proposal.on_ids [ mid 0 0 ] in
  Engine.schedule engine ~at:1.0 (fun () ->
      List.iter (fun p -> handle.Ics_consensus.Consensus_intf.propose p 1 v) [ 0; 1; 2 ]);
  Engine.run engine;
  checki "all three decide despite the lag" 3 (List.length !decisions);
  List.iter
    (fun (_, _, d) -> checkb "agreed" true (Proposal.equal d v))
    !decisions

(* Utilization accounting. *)
let test_stack_utilization () =
  let config = { Stack.abcast_indirect with Stack.n = 3 } in
  let stack =
    Test_util.run_stack config (Test_util.burst ~n:3 ~count:20 ~body_bytes:1000 ~spacing:1.0)
  in
  let util = Stack.utilization ~horizon:40.0 stack in
  (* 3 CPUs + 6 switch links for the switched Setup 1 model. *)
  checki "all resources reported" 9 (List.length util);
  List.iter
    (fun (name, u) ->
      checkb (name ^ " in range") true (u >= 0.0 && u <= 1.0))
    util;
  let cpu0 = List.assoc "cpu0" util in
  checkb "cpu0 did work" true (cpu0 > 0.0)

let test_experiment_reports_utilization () =
  let config = { Stack.abcast_indirect with Stack.n = 3 } in
  let load =
    { Experiment.throughput = 400.0; body_bytes = 100; duration = 1_500.0; warmup = 300.0 }
  in
  let r = Experiment.run config load in
  checkb "utilization present" true (r.Experiment.utilization <> []);
  checkb "some resource busy" true
    (List.exists (fun (_, u) -> u > 0.01) r.Experiment.utilization)

(* Custom setups plug arbitrary models and hosts into the stack. *)
let test_custom_setup () =
  let build ~n = (Model.constant ~delay:2.5 ~n ~seed:9L (), Host.instant) in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = Stack.Custom { name = "my-net"; build };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let stack = Test_util.run_stack config [ (1.0, 0, 10) ] in
  checki "delivered" 1
    (List.length (Ics_core.Abcast.delivered_sequence stack.Stack.abcast 1));
  checkb "describe uses the custom name" true
    (Test_util.contains (Stack.describe stack) "my-net")

(* The rcv-cost knob isolates the Figure 3 overhead: with zero rcv cost,
   indirect and faulty runs have identical latency profiles. *)
let test_zero_rcv_cost_equalizes () =
  let host = { Host.pentium3 with Host.rcv_check_fixed = 0.0; rcv_check_per_id = 0.0 } in
  let setup =
    Stack.Custom
      { name = "no-rcv-cost"; build = (fun ~n -> (Model.switched Model.params_100mbps ~n, host)) }
  in
  let load =
    { Experiment.throughput = 300.0; body_bytes = 1; duration = 1_500.0; warmup = 300.0 }
  in
  let mean ordering =
    (Experiment.run { Stack.abcast_indirect with Stack.setup; ordering } load)
      .Experiment.latency.Ics_prelude.Stats.mean
  in
  Alcotest.(check (float 1e-9))
    "identical latency without rcv cost"
    (mean Ics_core.Abcast.Consensus_on_ids)
    (mean Ics_core.Abcast.Indirect_consensus)

let suites =
  [
    ( "protocol-edges",
      [
        Alcotest.test_case "ct false suspicion recovers" `Quick test_ct_false_suspicion_recovers;
        Alcotest.test_case "ct mid-wait suspicion" `Quick test_ct_mid_wait_suspicion;
        Alcotest.test_case "mr mid-wait suspicion" `Quick test_mr_mid_wait_suspicion;
        Alcotest.test_case "mr mixed-round adoption" `Quick test_mr_mixed_round_adoption;
        Alcotest.test_case "ct lagging process catches up" `Quick test_ct_lagging_process_catches_up;
      ] );
    ( "instrumentation",
      [
        Alcotest.test_case "stack utilization" `Quick test_stack_utilization;
        Alcotest.test_case "experiment utilization" `Quick test_experiment_reports_utilization;
        Alcotest.test_case "custom setup" `Quick test_custom_setup;
        Alcotest.test_case "zero rcv cost equalizes" `Quick test_zero_rcv_cost_equalizes;
      ] );
  ]
