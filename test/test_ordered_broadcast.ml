(* Tests for the FIFO and causal broadcast layers and their checkers. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Rb_flood = Ics_broadcast.Rb_flood
module Fifo = Ics_broadcast.Fifo
module Causal = Ics_broadcast.Causal
module Checker = Ics_checker.Checker
module Trace = Ics_sim.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let msg ~origin ~seq = App_msg.make ~id:(Msg_id.make ~origin ~seq) ~body_bytes:10 ~created_at:0.0 ()

type h = {
  engine : Engine.t;
  handle : Ics_broadcast.Broadcast_intf.handle;
  delivered : (Pid.t * Msg_id.t) list ref;
}

let mk ?(n = 3) ?(jitter = 0.0) which =
  let engine = Engine.create ~n () in
  let model = Model.constant ~jitter ~delay:1.0 ~n ~seed:5L () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let delivered = ref [] in
  let deliver p (m : App_msg.t) = delivered := (p, m.id) :: !delivered in
  let handle =
    match which with
    | `Fifo ->
        let fd = Ics_fd.Failure_detector.(Control.fd (manual engine)) in
        Fifo.create ~inner:(fun ~deliver -> Rb_flood.create transport ~fd ~deliver) ~deliver
    | `Causal -> Causal.create transport ~deliver
  in
  { engine; handle; delivered }

let deliveries_of h p =
  List.filter_map (fun (q, id) -> if q = p then Some id else None) (List.rev !(h.delivered))

let bcast h ~at ~src m =
  Engine.schedule h.engine ~at (fun () -> h.handle.Ics_broadcast.Broadcast_intf.broadcast ~src m)

(* FIFO layer *)

let test_fifo_reorders () =
  (* Deliver seq 1 before seq 0 at the layer below (by broadcasting 1
     first — the ids carry the FIFO index, not the send time). *)
  let h = mk `Fifo in
  bcast h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:1);
  bcast h ~at:5.0 ~src:0 (msg ~origin:0 ~seq:0);
  Engine.run h.engine;
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "FIFO order restored" [ "p0#0"; "p0#1" ]
        (List.map Msg_id.to_string (deliveries_of h p)))
    [ 0; 1; 2 ]

let test_fifo_holds_back_gap () =
  let h = mk `Fifo in
  bcast h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:1);
  (* seq 0 never sent: nothing may be delivered. *)
  Engine.run h.engine;
  checki "held back" 0 (List.length !(h.delivered))

let test_fifo_independent_origins () =
  let h = mk `Fifo in
  bcast h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  bcast h ~at:1.0 ~src:1 (msg ~origin:1 ~seq:0);
  bcast h ~at:2.0 ~src:1 (msg ~origin:1 ~seq:1);
  Engine.run h.engine;
  List.iter (fun p -> checki "all three" 3 (List.length (deliveries_of h p))) [ 0; 1; 2 ];
  let run = Checker.Run.of_trace (Engine.trace h.engine) ~n:3 in
  Test_util.assert_clean_verdict "fifo order" (Checker.check_fifo_order run)

let test_fifo_name () =
  let h = mk `Fifo in
  checkb "wrapped name" true
    (Test_util.contains h.handle.Ics_broadcast.Broadcast_intf.name "fifo(")

(* Causal layer *)

let test_causal_chain_across_origins () =
  (* p0 broadcasts a; p1 delivers a then broadcasts b (a -> b); p2's
     delivery of b must come after a even if b's copy arrives first. *)
  let n = 3 in
  let engine = Engine.create ~n () in
  (* Delay p0's message to p2 so b overtakes a on the wire. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.src 0 && Pid.equal m.dst 2 then Model.Delay_by 20.0 else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:7L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let delivered = ref [] in
  let handle =
    Causal.create transport ~deliver:(fun p m -> delivered := (p, m.App_msg.id) :: !delivered)
  in
  Engine.schedule engine ~at:1.0 (fun () -> handle.broadcast ~src:0 (msg ~origin:0 ~seq:0));
  (* b is broadcast by p1 only after it delivered a. *)
  Engine.schedule engine ~at:5.0 (fun () -> handle.broadcast ~src:1 (msg ~origin:1 ~seq:0));
  Engine.run engine;
  let p2_seq =
    List.filter_map (fun (q, id) -> if q = 2 then Some (Msg_id.to_string id) else None)
      (List.rev !delivered)
  in
  Alcotest.(check (list string)) "causal order at p2" [ "p0#0"; "p1#0" ] p2_seq;
  let run = Checker.Run.of_trace (Engine.trace engine) ~n in
  Test_util.assert_clean_verdict "causal order" (Checker.check_causal_order run);
  Test_util.assert_clean_verdict "rb spec still holds" (Checker.check_reliable_broadcast run)

let test_causal_concurrent_messages_flow () =
  let h = mk `Causal in
  (* Concurrent broadcasts from all three processes, several rounds. *)
  for round = 0 to 4 do
    for p = 0 to 2 do
      bcast h ~at:(1.0 +. (3.0 *. float_of_int round)) ~src:p (msg ~origin:p ~seq:round)
    done
  done;
  Engine.run h.engine;
  List.iter (fun p -> checki "all delivered" 15 (List.length (deliveries_of h p))) [ 0; 1; 2 ];
  let run = Checker.Run.of_trace (Engine.trace h.engine) ~n:3 in
  Test_util.assert_clean_verdict "causal" (Checker.check_causal_order run);
  Test_util.assert_clean_verdict "fifo implied" (Checker.check_fifo_order run)

let test_causal_implies_fifo () =
  let h = mk `Causal in
  bcast h ~at:1.0 ~src:0 (msg ~origin:0 ~seq:0);
  bcast h ~at:1.1 ~src:0 (msg ~origin:0 ~seq:1);
  bcast h ~at:1.2 ~src:0 (msg ~origin:0 ~seq:2);
  Engine.run h.engine;
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "per-origin order" [ "p0#0"; "p0#1"; "p0#2" ]
        (List.map Msg_id.to_string (deliveries_of h p)))
    [ 0; 1; 2 ]

(* Checker self-tests for the order properties. *)

let test_fifo_checker_catches_violation () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~pid:0 (Trace.Rbroadcast (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr ~time:1.1 ~pid:0 (Trace.Rbroadcast (Msg_id.make ~origin:0 ~seq:1));
  Trace.record tr ~time:2.0 ~pid:1 (Trace.Rdeliver (Msg_id.make ~origin:0 ~seq:1));
  Trace.record tr ~time:2.1 ~pid:1 (Trace.Rdeliver (Msg_id.make ~origin:0 ~seq:0));
  let run = Checker.Run.of_trace tr ~n:2 in
  checkb "fifo violation flagged" true
    (Test_util.has_violation (Checker.check_fifo_order run) "broadcast.fifo-order")

let test_causal_checker_catches_violation () =
  let tr = Trace.create () in
  (* p0 sends a; p1 delivers a then sends b; p2 delivers b before a. *)
  Trace.record tr ~time:1.0 ~pid:0 (Trace.Rbroadcast (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr ~time:2.0 ~pid:1 (Trace.Rdeliver (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr ~time:3.0 ~pid:1 (Trace.Rbroadcast (Msg_id.make ~origin:1 ~seq:0));
  Trace.record tr ~time:4.0 ~pid:2 (Trace.Rdeliver (Msg_id.make ~origin:1 ~seq:0));
  Trace.record tr ~time:5.0 ~pid:2 (Trace.Rdeliver (Msg_id.make ~origin:0 ~seq:0));
  let run = Checker.Run.of_trace tr ~n:3 in
  checkb "causal violation flagged" true
    (Test_util.has_violation (Checker.check_causal_order run) "broadcast.causal-order");
  (* The missing-predecessor form too. *)
  let tr2 = Trace.create () in
  Trace.record tr2 ~time:1.0 ~pid:0 (Trace.Rbroadcast (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr2 ~time:2.0 ~pid:1 (Trace.Rdeliver (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr2 ~time:3.0 ~pid:1 (Trace.Rbroadcast (Msg_id.make ~origin:1 ~seq:0));
  Trace.record tr2 ~time:4.0 ~pid:2 (Trace.Rdeliver (Msg_id.make ~origin:1 ~seq:0));
  let run2 = Checker.Run.of_trace tr2 ~n:3 in
  checkb "missing predecessor flagged" true
    (Test_util.has_violation (Checker.check_causal_order run2) "broadcast.causal-order")

let test_plain_flood_is_not_causal () =
  (* Demonstrate the gap: the same cross-origin chain over plain rb-flood
     violates causal order (that is why these are distinct layers).  Every
     copy of the first message (recognizable by its payload size) is
     delayed towards p2 — direct send and relays alike. *)
  let n = 3 in
  let engine = Engine.create ~n () in
  let big = 999 in
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.dst 2 && m.body_bytes > big then Model.Delay_by 20.0 else Model.Pass
  in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:7L ()) ~rule in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let fd = Ics_fd.Failure_detector.(Control.fd (manual engine)) in
  let handle = Rb_flood.create transport ~fd ~deliver:(fun _ _ -> ()) in
  Engine.schedule engine ~at:1.0 (fun () ->
      handle.broadcast ~src:0
        (App_msg.make ~id:(Msg_id.make ~origin:0 ~seq:0) ~body_bytes:(big + 100)
           ~created_at:0.0 ()));
  Engine.schedule engine ~at:5.0 (fun () -> handle.broadcast ~src:1 (msg ~origin:1 ~seq:0));
  Engine.run engine;
  let run = Checker.Run.of_trace (Engine.trace engine) ~n in
  checkb "flood violates causal order under reordering" true
    (Test_util.has_violation (Checker.check_causal_order run) "broadcast.causal-order")

let qcheck_causal_random =
  QCheck.Test.make ~name:"causal broadcast keeps causal order under jitter" ~count:40
    QCheck.(pair (int_range 2 5) (int_bound 10_000))
    (fun (n, seed) ->
      let engine = Engine.create ~seed:(Int64.of_int (seed + 11)) ~n () in
      let model = Model.constant ~jitter:4.0 ~delay:1.0 ~n ~seed:(Int64.of_int (seed + 3)) () in
      let transport = Transport.create engine ~model ~host:Host.instant in
      let handle = Causal.create transport ~deliver:(fun _ _ -> ()) in
      let rng = Ics_prelude.Rng.create (Int64.of_int (seed + 7)) in
      let seqs = Array.make n 0 in
      for _ = 1 to 12 do
        let src = Ics_prelude.Rng.int rng n in
        let s = seqs.(src) in
        seqs.(src) <- s + 1;
        Engine.schedule engine
          ~at:(Ics_prelude.Rng.float rng 30.0)
          (fun () -> handle.broadcast ~src (msg ~origin:src ~seq:s))
      done;
      Engine.run engine;
      let run = Checker.Run.of_trace (Engine.trace engine) ~n in
      Checker.ok (Checker.check_causal_order run)
      && Checker.ok (Checker.check_fifo_order run))

let suites =
  [
    ( "fifo-broadcast",
      [
        Alcotest.test_case "reorders" `Quick test_fifo_reorders;
        Alcotest.test_case "holds back gaps" `Quick test_fifo_holds_back_gap;
        Alcotest.test_case "independent origins" `Quick test_fifo_independent_origins;
        Alcotest.test_case "wrapped name" `Quick test_fifo_name;
      ] );
    ( "causal-broadcast",
      [
        Alcotest.test_case "cross-origin chain" `Quick test_causal_chain_across_origins;
        Alcotest.test_case "concurrent flow" `Quick test_causal_concurrent_messages_flow;
        Alcotest.test_case "implies fifo" `Quick test_causal_implies_fifo;
        Alcotest.test_case "fifo checker catches" `Quick test_fifo_checker_catches_violation;
        Alcotest.test_case "causal checker catches" `Quick test_causal_checker_catches_violation;
        Alcotest.test_case "plain flood is not causal" `Quick test_plain_flood_is_not_causal;
        QCheck_alcotest.to_alcotest qcheck_causal_random;
      ] );
  ]
