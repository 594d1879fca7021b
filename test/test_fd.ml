(* Tests for the failure detectors. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Fd = Ics_fd.Failure_detector

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_oracle_detects_after_delay () =
  let e = Engine.create ~n:3 () in
  let fd = Fd.oracle e ~detection_delay:10.0 in
  Engine.crash_at e 1 ~at:5.0;
  Engine.schedule e ~at:14.0 (fun () ->
      checkb "not yet" false (Fd.is_suspected fd ~by:0 1));
  Engine.schedule e ~at:16.0 (fun () ->
      checkb "suspected at p0" true (Fd.is_suspected fd ~by:0 1);
      checkb "suspected at p2" true (Fd.is_suspected fd ~by:2 1));
  Engine.run e;
  checkb "no false suspicion" false (Fd.is_suspected fd ~by:0 2)

let test_oracle_callbacks () =
  let e = Engine.create ~n:3 () in
  let fd = Fd.oracle e ~detection_delay:1.0 in
  let seen = ref [] in
  Fd.on_suspect fd ~observer:0 (fun q -> seen := q :: !seen);
  Engine.crash_at e 2 ~at:1.0;
  Engine.run e;
  Alcotest.(check (list int)) "callback" [ 2 ] !seen

let test_oracle_dead_observer_silent () =
  let e = Engine.create ~n:3 () in
  let fd = Fd.oracle e ~detection_delay:1.0 in
  let seen = ref 0 in
  Fd.on_suspect fd ~observer:0 (fun _ -> incr seen);
  Engine.crash_at e 0 ~at:0.5;
  Engine.crash_at e 1 ~at:1.0;
  Engine.run e;
  checki "dead observers learn nothing" 0 !seen

let mk_transport n =
  let e = Engine.create ~n () in
  let model = Model.constant ~delay:1.0 ~n ~seed:1L () in
  (e, Transport.create e ~model ~host:Host.instant)

let test_heartbeat_good_run_no_suspicion () =
  let e, tr = mk_transport 3 in
  let fd = Fd.heartbeat tr ~period:10.0 ~timeout:50.0 in
  Engine.run ~until:500.0 e;
  List.iter
    (fun p ->
      List.iter
        (fun q -> checkb "no suspicion in good run" false (Fd.is_suspected fd ~by:p q))
        (Pid.others ~n:3 p))
    (Pid.all ~n:3)

let test_heartbeat_detects_crash () =
  let e, tr = mk_transport 3 in
  let fd = Fd.heartbeat tr ~period:10.0 ~timeout:50.0 in
  Engine.crash_at e 2 ~at:100.0;
  Engine.run ~until:400.0 e;
  checkb "p0 suspects p2" true (Fd.is_suspected fd ~by:0 2);
  checkb "p1 suspects p2" true (Fd.is_suspected fd ~by:1 2);
  checkb "p0 trusts p1" false (Fd.is_suspected fd ~by:0 1)

let test_heartbeat_suspects_at_deadline () =
  (* p2's last heartbeat leaves at t = 100 and lands at 101, so the
     deadline is 101 + 50.  A check on the period grid would only see it
     at 160. *)
  let e, tr = mk_transport 3 in
  let fd = Fd.heartbeat tr ~period:10.0 ~timeout:50.0 in
  let suspected_at = ref None in
  Fd.on_suspect fd ~observer:0 (fun q ->
      if q = 2 && !suspected_at = None then suspected_at := Some (Engine.now e));
  Engine.crash_at e 2 ~at:105.0;
  Engine.run ~until:400.0 e;
  Alcotest.(check (option (float 1e-9))) "suspected at last_hb + timeout" (Some 151.0)
    !suspected_at

let test_heartbeat_trust_restored () =
  (* A transient network outage causes a false suspicion; the next
     heartbeat restores trust — the detector is only eventually accurate,
     which is exactly what makes it a ◇S and not a P. *)
  let e = Engine.create ~n:2 () in
  let outage (msg : Ics_net.Message.t) =
    if Ics_net.Message.layer_name msg = "fd" && msg.sent_at > 100.0 && msg.sent_at < 200.0 then
      Model.Drop
    else Model.Pass
  in
  let model =
    Model.scripted ~base:(Model.constant ~delay:1.0 ~n:2 ~seed:1L ()) ~rule:outage
  in
  let tr = Transport.create e ~model ~host:Host.instant in
  let fd = Fd.heartbeat tr ~period:10.0 ~timeout:40.0 in
  let suspected_during_outage = ref false in
  Engine.schedule e ~at:199.0 (fun () ->
      suspected_during_outage := Fd.is_suspected fd ~by:0 1);
  Engine.run ~until:400.0 e;
  checkb "false suspicion during outage" true !suspected_during_outage;
  checkb "trust restored" false (Fd.is_suspected fd ~by:0 1)

let test_heartbeat_records_trace () =
  let e, tr = mk_transport 2 in
  ignore (Fd.heartbeat tr ~period:10.0 ~timeout:30.0);
  Engine.crash_at e 1 ~at:50.0;
  Engine.run ~until:300.0 e;
  let suspects =
    Trace.filter (Engine.trace e) (fun ev ->
        match ev.Trace.kind with Trace.Suspect 1 -> true | _ -> false)
  in
  checki "suspicion traced" 1 (List.length suspects)

let test_heartbeat_validation () =
  let _, tr = mk_transport 2 in
  Alcotest.check_raises "timeout <= period"
    (Invalid_argument "Failure_detector.heartbeat: timeout <= period") (fun () ->
      ignore (Fd.heartbeat tr ~period:10.0 ~timeout:10.0))

let test_heartbeat_quiesces_at_horizon () =
  (* The heartbeat loop is self-rearming; without the horizon check it
     keeps the queue non-empty forever and this second, horizon-less
     [run] would never return. *)
  let e, tr = mk_transport 3 in
  ignore (Fd.heartbeat tr ~period:10.0 ~timeout:50.0);
  Engine.run ~until:400.0 e;
  (* Frames emitted right at the horizon may still be in flight; what must
     NOT remain is a self-rearming timer.  The horizon-less run drains the
     in-flight leftovers and returns — with the rescheduling bug it would
     never terminate. *)
  checkb "only in-flight frames remain" true (Engine.pending e <= 6);
  Engine.run e;
  checki "queue fully drained" 0 (Engine.pending e)

let test_heartbeat_stop_quiesces_without_horizon () =
  let e, tr = mk_transport 2 in
  let fd = Fd.heartbeat tr ~period:10.0 ~timeout:50.0 in
  Engine.schedule e ~at:55.0 (fun () -> Fd.stop fd);
  (* No horizon at all: only [stop] lets this run terminate. *)
  Engine.run e;
  checki "queue drained after stop" 0 (Engine.pending e);
  checkb "clock stopped shortly after stop" true (Engine.now e < 200.0)

let test_manual_control () =
  let e = Engine.create ~n:3 () in
  let ctl = Fd.manual e in
  let fd = Fd.Control.fd ctl in
  let events = ref [] in
  Fd.on_suspect fd ~observer:1 (fun q -> events := `S q :: !events);
  Fd.on_trust fd ~observer:1 (fun q -> events := `T q :: !events);
  checkb "initially trusting" false (Fd.is_suspected fd ~by:1 0);
  Fd.Control.suspect ctl ~observer:1 0;
  checkb "suspected" true (Fd.is_suspected fd ~by:1 0);
  Fd.Control.suspect ctl ~observer:1 0;
  (* idempotent *)
  Fd.Control.trust ctl ~observer:1 0;
  checkb "trusted again" false (Fd.is_suspected fd ~by:1 0);
  Alcotest.(check int) "exactly two events" 2 (List.length !events)

let test_manual_suspect_everywhere () =
  let e = Engine.create ~n:4 () in
  let ctl = Fd.manual e in
  let fd = Fd.Control.fd ctl in
  Fd.Control.suspect_everywhere ctl 2;
  List.iter
    (fun p ->
      if p <> 2 then checkb "everyone suspects p2" true (Fd.is_suspected fd ~by:p 2))
    (Pid.all ~n:4);
  checkb "no self suspicion" false (Fd.is_suspected fd ~by:2 2)

let suites =
  [
    ( "failure-detector",
      [
        Alcotest.test_case "oracle detects after delay" `Quick test_oracle_detects_after_delay;
        Alcotest.test_case "oracle callbacks" `Quick test_oracle_callbacks;
        Alcotest.test_case "oracle dead observer" `Quick test_oracle_dead_observer_silent;
        Alcotest.test_case "heartbeat good run" `Quick test_heartbeat_good_run_no_suspicion;
        Alcotest.test_case "heartbeat detects crash" `Quick test_heartbeat_detects_crash;
        Alcotest.test_case "heartbeat suspects at the deadline" `Quick
          test_heartbeat_suspects_at_deadline;
        Alcotest.test_case "heartbeat trust restored" `Quick test_heartbeat_trust_restored;
        Alcotest.test_case "heartbeat traces" `Quick test_heartbeat_records_trace;
        Alcotest.test_case "heartbeat validation" `Quick test_heartbeat_validation;
        Alcotest.test_case "heartbeat quiesces at horizon" `Quick
          test_heartbeat_quiesces_at_horizon;
        Alcotest.test_case "heartbeat stop quiesces" `Quick
          test_heartbeat_stop_quiesces_without_horizon;
        Alcotest.test_case "manual control" `Quick test_manual_control;
        Alcotest.test_case "manual suspect everywhere" `Quick test_manual_suspect_everywhere;
      ] );
  ]
