(* Tests for the three broadcast primitives. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Fd = Ics_fd.Failure_detector
module Rb_flood = Ics_broadcast.Rb_flood
module Rb_fd = Ics_broadcast.Rb_fd
module Urb = Ics_broadcast.Urb
module Checker = Ics_checker.Checker

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

type harness = {
  engine : Engine.t;
  transport : Transport.t;
  handle : Ics_broadcast.Broadcast_intf.handle;
  delivered : (Pid.t * Msg_id.t) list ref;  (* in delivery order *)
}

let mk_harness ?(n = 4) ?(delay = 1.0) which =
  let engine = Engine.create ~n () in
  let model = Model.constant ~delay ~n ~seed:1L () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let delivered = ref [] in
  let deliver p (m : App_msg.t) = delivered := (p, m.id) :: !delivered in
  let handle =
    match which with
    | `Flood -> Rb_flood.create transport ~fd:(Fd.Control.fd (Fd.manual engine)) ~deliver
    | `Fd_relay delay -> Rb_fd.create transport ~fd:(Fd.oracle engine ~detection_delay:delay) ~deliver
    | `Urb -> Urb.create transport ~deliver
  in
  { engine; transport; handle; delivered }

let msg ~origin ~seq = App_msg.make ~id:(Msg_id.make ~origin ~seq) ~body_bytes:10 ~created_at:0.0 ()

let deliveries_of h p = List.filter_map (fun (q, id) -> if q = p then Some id else None) (List.rev !(h.delivered))

let broadcast_at h ~at ~src m =
  Engine.schedule h.engine ~at (fun () ->
      h.handle.Ics_broadcast.Broadcast_intf.broadcast ~src m)

(* Generic properties, run for each implementation. *)

let test_all_deliver which () =
  let h = mk_harness which in
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  broadcast_at h ~at:2.0 ~src:3 (msg ~origin:3 ~seq:0);
  Engine.run h.engine;
  List.iter
    (fun p -> checki (Printf.sprintf "p%d delivered both" p) 2 (List.length (deliveries_of h p)))
    (Pid.all ~n:4)

let test_no_duplicates which () =
  let h = mk_harness which in
  for s = 0 to 9 do
    broadcast_at h ~at:(1.0 +. float_of_int s) ~src:(s mod 4) (msg ~origin:(s mod 4) ~seq:s)
  done;
  Engine.run h.engine;
  List.iter
    (fun p ->
      let ids = deliveries_of h p in
      checki "no duplicates" (List.length ids)
        (List.length (List.sort_uniq Msg_id.compare ids)))
    (Pid.all ~n:4)

let test_holds which () =
  let h = mk_harness which in
  let m = msg ~origin:1 ~seq:0 in
  checkb "not held before" false (h.handle.holds 2 m.App_msg.id);
  broadcast_at h ~at:1.0 ~src:1 m;
  Engine.run h.engine;
  checkb "held after" true (h.handle.holds 2 m.App_msg.id)

let test_dead_broadcaster_noop which () =
  let h = mk_harness which in
  Engine.crash h.engine 0;
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.run h.engine;
  checki "nothing delivered" 0 (List.length !(h.delivered))

(* Flood specifics *)

let test_flood_message_count () =
  let h = mk_harness `Flood in
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.run h.engine;
  (* n=4: origin sends 3, each receiver relays to the 2 others (minus the
     origin): 3 + 3*2 = 9 = O(n^2). *)
  checki "O(n^2) messages" 9 (Transport.sent_messages h.transport)

let test_flood_delivery_latency () =
  (* Delivery takes a single communication step despite relays. *)
  let h = mk_harness `Flood ~delay:5.0 in
  broadcast_at h ~at:0.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.schedule h.engine ~at:5.1 (fun () ->
      List.iter
        (fun p -> checki "delivered after one step" 1 (List.length (deliveries_of h p)))
        (Pid.all ~n:4));
  Engine.run h.engine

let test_flood_agreement_under_crash () =
  (* Origin crashes right after its multicast reaches the wire: everyone
     else still delivers thanks to the relays. *)
  let h = mk_harness `Flood in
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.crash_at h.engine 0 ~at:1.5;
  Engine.run h.engine;
  List.iter
    (fun p -> checki "correct deliver" 1 (List.length (deliveries_of h p)))
    [ 1; 2; 3 ]

(* FD-relay specifics *)

let test_fd_relay_good_run_message_count () =
  let h = mk_harness (`Fd_relay 50.0) in
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.run h.engine;
  (* Good run: exactly n-1 messages. *)
  checki "O(n) messages" 3 (Transport.sent_messages h.transport)

let test_fd_relay_agreement_after_partial_crash () =
  (* The origin reaches only p1 (messages to p2/p3 die with the crash);
     after the detector suspects p0, p1 relays and the rest deliver. *)
  let n = 4 in
  let engine = Engine.create ~n () in
  let rule (m : Ics_net.Message.t) =
    if m.Ics_net.Message.src = 0 && m.dst <> 1 && Ics_net.Message.layer_name m = "rb" then Model.Drop
    else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:1L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let fd = Fd.oracle engine ~detection_delay:10.0 in
  let delivered = ref [] in
  let handle =
    Rb_fd.create transport ~fd ~deliver:(fun p m -> delivered := (p, m.App_msg.id) :: !delivered)
  in
  Engine.schedule engine ~at:1.0 (fun () ->
      handle.broadcast ~src:0 (msg ~origin:0 ~seq:0));
  Engine.crash_at engine 0 ~at:2.5;
  Engine.run engine;
  let got p = List.exists (fun (q, _) -> q = p) !delivered in
  checkb "p1 got it directly" true (got 1);
  checkb "p2 via relay" true (got 2);
  checkb "p3 via relay" true (got 3)

let test_fd_relay_relays_once () =
  (* Two suspicions of the same origin must not double-deliver or
     re-relay. *)
  let n = 3 in
  let engine = Engine.create ~n () in
  let model = Model.constant ~delay:1.0 ~n ~seed:1L () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let ctl = Fd.manual engine in
  let fd = Fd.Control.fd ctl in
  let delivered = ref [] in
  let handle =
    Rb_fd.create transport ~fd ~deliver:(fun p m -> delivered := (p, m.App_msg.id) :: !delivered)
  in
  Engine.schedule engine ~at:1.0 (fun () -> handle.broadcast ~src:0 (msg ~origin:0 ~seq:0));
  Engine.schedule engine ~at:5.0 (fun () -> Fd.Control.suspect ctl ~observer:1 0);
  Engine.schedule engine ~at:6.0 (fun () -> Fd.Control.trust ctl ~observer:1 0);
  Engine.schedule engine ~at:7.0 (fun () -> Fd.Control.suspect ctl ~observer:1 0);
  Engine.run engine;
  let msgs = Transport.sent_messages transport in
  (* origin: 2 sends; p1 relays once to p2 (not back to p0's... relay goes
     to both others): 2 + 2 = 4; the second suspicion adds nothing. *)
  checki "single relay" 4 msgs;
  checki "three deliveries" 3 (List.length !delivered)

(* URB specifics *)

let test_urb_two_steps () =
  let h = mk_harness `Urb ~delay:5.0 in
  broadcast_at h ~at:0.0 ~src:0 (msg ~origin:0 ~seq:0);
  (* After one step (t=5) nobody delivered yet (acks still in flight);
     after two steps everyone has a majority of acks. *)
  Engine.schedule h.engine ~at:6.0 (fun () ->
      checki "not before ack round" 0 (List.length !(h.delivered)));
  Engine.schedule h.engine ~at:11.0 (fun () ->
      checki "all after two steps" 4 (List.length !(h.delivered)));
  Engine.run h.engine

let test_urb_uniform_agreement_under_crash () =
  (* The origin delivers first (it counts its own ack plus the earliest
     echoes) and crashes; uniformity demands all correct processes deliver
     too. *)
  let h = mk_harness `Urb in
  broadcast_at h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.crash_at h.engine 0 ~at:4.5;
  Engine.run h.engine;
  List.iter
    (fun p -> checki "correct delivered" 1 (List.length (deliveries_of h p)))
    [ 1; 2; 3 ]

let test_urb_pull_recovers_payload () =
  (* p3 never receives the payload directly (origin's DATA to it is
     dropped) but sees acks and pulls the payload from an acker. *)
  let n = 4 in
  let engine = Engine.create ~n () in
  let rule (m : Ics_net.Message.t) =
    if m.Ics_net.Message.src = 0 && m.dst = 3 && Ics_net.Message.layer_name m = "urb" && m.body_bytes > 20 then
      Model.Drop
    else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:1L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let delivered = ref [] in
  let handle =
    Urb.create transport ~deliver:(fun p m -> delivered := (p, m.App_msg.id) :: !delivered)
  in
  Engine.schedule engine ~at:1.0 (fun () -> handle.broadcast ~src:0 (msg ~origin:0 ~seq:0));
  Engine.run engine;
  checkb "p3 delivered via pull" true (List.exists (fun (q, _) -> q = 3) !delivered);
  checki "everyone delivered" 4 (List.length !delivered)

let test_urb_no_delivery_without_majority () =
  (* n=4 needs ⌈5/2⌉=3 ackers.  If only the origin ever holds the message
     (all outgoing payloads and acks dropped), nobody delivers. *)
  let n = 4 in
  let engine = Engine.create ~n () in
  let rule (m : Ics_net.Message.t) =
    if m.Ics_net.Message.src = 0 && Ics_net.Message.layer_name m = "urb" then Model.Drop else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:1L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let delivered = ref [] in
  let handle = Urb.create transport ~deliver:(fun p m -> delivered := (p, m.App_msg.id) :: !delivered) in
  Engine.schedule engine ~at:1.0 (fun () -> handle.broadcast ~src:0 (msg ~origin:0 ~seq:0));
  Engine.run engine;
  checki "no uniform delivery" 0 (List.length !delivered)

(* Property-based: random broadcast schedules with random crashes keep the
   checker-verified broadcast properties. *)

let qcheck_flood_properties =
  QCheck.Test.make ~name:"rb-flood satisfies RB spec under random crashes" ~count:40
    QCheck.(triple (int_range 2 6) (int_range 1 15) (int_bound 10_000))
    (fun (n, msgs, seed) ->
      let engine = Engine.create ~seed:(Int64.of_int (seed + 1)) ~n () in
      let model =
        Model.constant ~jitter:2.0 ~delay:1.0 ~n ~seed:(Int64.of_int (seed + 77)) ()
      in
      let transport = Transport.create engine ~model ~host:Host.instant in
      let fd = Fd.Control.fd (Fd.manual engine) in
      let handle = Rb_flood.create transport ~fd ~deliver:(fun _ _ -> ()) in
      let rng = Ics_prelude.Rng.create (Int64.of_int (seed + 3)) in
      for s = 0 to msgs - 1 do
        let src = Ics_prelude.Rng.int rng n in
        Engine.schedule engine ~at:(Ics_prelude.Rng.float rng 50.0) (fun () ->
            Engine.record engine src
              (Ics_sim.Trace.Abroadcast (Msg_id.make ~origin:src ~seq:s));
            handle.broadcast ~src (msg ~origin:src ~seq:s))
      done;
      (* Crash at most one process (flood tolerates any f < n, but one keeps
         the schedule interesting without killing all copies). *)
      if Ics_prelude.Rng.bool rng then
        Engine.crash_at engine (Ics_prelude.Rng.int rng n)
          ~at:(Ics_prelude.Rng.float rng 60.0);
      Engine.run engine;
      let run = Checker.Run.of_trace (Engine.trace engine) ~n in
      Checker.ok (Checker.check_reliable_broadcast run))

let qcheck_urb_uniform =
  QCheck.Test.make ~name:"urb satisfies uniform RB spec under random crashes" ~count:40
    QCheck.(triple (int_range 3 6) (int_range 1 12) (int_bound 10_000))
    (fun (n, msgs, seed) ->
      let engine = Engine.create ~seed:(Int64.of_int (seed + 5)) ~n () in
      let model =
        Model.constant ~jitter:1.0 ~delay:1.0 ~n ~seed:(Int64.of_int (seed + 13)) ()
      in
      let transport = Transport.create engine ~model ~host:Host.instant in
      let handle = Urb.create transport ~deliver:(fun _ _ -> ()) in
      let rng = Ics_prelude.Rng.create (Int64.of_int (seed + 9)) in
      for s = 0 to msgs - 1 do
        let src = Ics_prelude.Rng.int rng n in
        Engine.schedule engine ~at:(Ics_prelude.Rng.float rng 50.0) (fun () ->
            Engine.record engine src
              (Ics_sim.Trace.Abroadcast (Msg_id.make ~origin:src ~seq:s));
            handle.broadcast ~src (msg ~origin:src ~seq:s))
      done;
      (* Fewer than half may crash. *)
      let crashes = (n - 1) / 2 in
      for c = 0 to crashes - 1 do
        Engine.crash_at engine c ~at:(20.0 +. Ics_prelude.Rng.float rng 40.0)
      done;
      Engine.run engine;
      let run = Checker.Run.of_trace (Engine.trace engine) ~n in
      (* Note: URB liveness needs outstanding pulls to settle; the run is
         quiescent here, so the check is exact. *)
      Checker.ok (Checker.check_uniform_broadcast run))

let generic name which =
  [
    Alcotest.test_case (name ^ ": all deliver") `Quick (test_all_deliver which);
    Alcotest.test_case (name ^ ": no duplicates") `Quick (test_no_duplicates which);
    Alcotest.test_case (name ^ ": holds") `Quick (test_holds which);
    Alcotest.test_case (name ^ ": dead broadcaster") `Quick (test_dead_broadcaster_noop which);
  ]

(* Suspected last: once p1 suspects p0, p1's broadcast is serialized for
   p2 first, so it reaches p2 before p0 (Setup 1 CPU costs, 1 ms links). *)
let test_flood_suspected_last () =
  let engine = Engine.create ~n:3 () in
  let model = Model.constant ~delay:1.0 ~n:3 ~seed:1L () in
  let transport = Transport.create engine ~model ~host:Host.pentium3 in
  let control = Fd.manual engine in
  let order = ref [] in
  let handle =
    Rb_flood.create transport ~fd:(Fd.Control.fd control) ~deliver:(fun p _ ->
        order := p :: !order)
  in
  Fd.Control.suspect control ~observer:1 0;
  Engine.schedule engine ~at:1.0 (fun () -> handle.broadcast ~src:1 (msg ~origin:1 ~seq:0));
  Engine.run engine;
  Alcotest.(check (list int)) "p1 itself, then p2, then the suspect p0" [ 1; 2; 0 ]
    (List.rev !order)

let suites =
  [
    ( "broadcast-generic",
      generic "flood" `Flood @ generic "fd-relay" (`Fd_relay 50.0) @ generic "urb" `Urb );
    ( "rb-flood",
      [
        Alcotest.test_case "message count O(n^2)" `Quick test_flood_message_count;
        Alcotest.test_case "one-step delivery" `Quick test_flood_delivery_latency;
        Alcotest.test_case "agreement under crash" `Quick test_flood_agreement_under_crash;
        Alcotest.test_case "suspected last" `Quick test_flood_suspected_last;
        QCheck_alcotest.to_alcotest qcheck_flood_properties;
      ] );
    ( "rb-fd",
      [
        Alcotest.test_case "message count O(n)" `Quick test_fd_relay_good_run_message_count;
        Alcotest.test_case "agreement after partial crash" `Quick
          test_fd_relay_agreement_after_partial_crash;
        Alcotest.test_case "relays once" `Quick test_fd_relay_relays_once;
      ] );
    ( "urb",
      [
        Alcotest.test_case "two steps" `Quick test_urb_two_steps;
        Alcotest.test_case "uniform agreement under crash" `Quick
          test_urb_uniform_agreement_under_crash;
        Alcotest.test_case "pull recovers payload" `Quick test_urb_pull_recovers_payload;
        Alcotest.test_case "no delivery without majority" `Quick
          test_urb_no_delivery_without_majority;
        QCheck_alcotest.to_alcotest qcheck_urb_uniform;
      ] );
  ]
