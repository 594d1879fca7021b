(* Tests for the network substrate: wire sizes, identifiers, models and the
   transport. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Wire = Ics_net.Wire
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Message = Ics_net.Message
module Layer = Ics_net.Layer
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

type Message.payload += Test_payload of int

(* Wire / ids / app messages *)

let test_wire_sizes () =
  checki "id set grows linearly" (Wire.id_set_bytes 0 + (3 * Wire.id_bytes))
    (Wire.id_set_bytes 3);
  checkb "header positive" true (Wire.header_bytes > 0);
  checki "payload with id"
    (Wire.tag_bytes + Wire.id_bytes + Wire.app_msg_overhead + 100)
    (Wire.payload_with_id_bytes 100);
  checki "id only" (Wire.tag_bytes + Wire.id_bytes) Wire.id_only_bytes

let test_msg_id_order () =
  let a = Msg_id.make ~origin:0 ~seq:5 in
  let b = Msg_id.make ~origin:1 ~seq:0 in
  let c = Msg_id.make ~origin:0 ~seq:6 in
  checkb "origin dominates" true (Msg_id.compare a b < 0);
  checkb "seq breaks ties" true (Msg_id.compare a c < 0);
  checkb "equal" true (Msg_id.equal a (Msg_id.make ~origin:0 ~seq:5));
  Alcotest.(check string) "to_string" "p1#0" (Msg_id.to_string b)

let test_msg_id_set_table () =
  let ids = List.init 10 (fun i -> Msg_id.make ~origin:(i mod 3) ~seq:i) in
  let set = Msg_id.Set.of_list (ids @ ids) in
  checki "set dedups" 10 (Msg_id.Set.cardinal set);
  let tbl = Msg_id.Table.create 4 in
  List.iter (fun id -> Msg_id.Table.replace tbl id ()) ids;
  checki "table" 10 (Msg_id.Table.length tbl)

let test_app_msg () =
  let id = Msg_id.make ~origin:2 ~seq:7 in
  let m = App_msg.make ~id ~body_bytes:100 ~created_at:5.0 () in
  checki "origin" 2 (App_msg.origin m);
  checki "rb body" (Wire.payload_with_id_bytes 100) (App_msg.rb_body_bytes m)

(* Host *)

let test_host_costs () =
  let h = Host.pentium3 in
  checkb "send cost grows" true
    (Host.send_cost h ~wire_bytes:5000 > Host.send_cost h ~wire_bytes:50);
  checkb "rcv cost grows" true (Host.rcv_check_cost h ~ids:50 > Host.rcv_check_cost h ~ids:1);
  checkf "instant host" 0.0 (Host.send_cost Host.instant ~wire_bytes:1_000_000)

(* Models *)

let mk_msg ?(src = 0) ?(dst = 1) ?(bytes = 52) ?(sent_at = 0.0) () =
  { Message.src; dst; layer = Layer.unregistered "t"; payload = Test_payload 0; body_bytes = bytes; sent_at }

let test_constant_model_delay () =
  let e = Engine.create ~n:2 () in
  let m = Model.constant ~delay:3.0 ~n:2 ~seed:1L () in
  let arrived = ref None in
  Model.send m e (mk_msg ()) ~arrive:(fun () -> arrived := Some (Engine.now e));
  Engine.run e;
  Alcotest.(check (option (float 1e-9))) "exact delay" (Some 3.0) !arrived

let test_constant_model_fifo_with_jitter () =
  let e = Engine.create ~n:2 () in
  let m = Model.constant ~jitter:5.0 ~delay:1.0 ~n:2 ~seed:3L () in
  let arrivals = ref [] in
  for i = 1 to 50 do
    Engine.schedule e ~at:(float_of_int i) (fun () ->
        Model.send m e (mk_msg ()) ~arrive:(fun () -> arrivals := Engine.now e :: !arrivals);
        ignore i)
  done;
  Engine.run e;
  let l = List.rev !arrivals in
  let sorted = List.sort compare l in
  checkb "FIFO preserved despite jitter" true (l = sorted);
  checki "all arrived" 50 (List.length l)

let test_shared_bus_serializes () =
  let e = Engine.create ~n:3 () in
  let m = Model.shared_bus { Model.net_fixed = 1.0; net_per_byte = 0.0 } in
  let arrivals = ref [] in
  (* Two messages sent at the same instant share the bus: second arrives a
     full frame-time later. *)
  Model.send m e (mk_msg ()) ~arrive:(fun () -> arrivals := ("a", Engine.now e) :: !arrivals);
  Model.send m e (mk_msg ~dst:2 ()) ~arrive:(fun () ->
      arrivals := ("b", Engine.now e) :: !arrivals);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "bus serialization" [ ("a", 1.0); ("b", 2.0) ] (List.rev !arrivals)

let test_switched_parallel_downlinks () =
  let e = Engine.create ~n:3 () in
  let m = Model.switched { Model.net_fixed = 1.0; net_per_byte = 0.0 } ~n:3 in
  let arrivals = ref [] in
  (* Same sender, two receivers: uplink is shared (serialized), downlinks
     are parallel, so arrivals are 2.0 and 3.0 (store-and-forward). *)
  Model.send m e (mk_msg ~dst:1 ()) ~arrive:(fun () ->
      arrivals := (1, Engine.now e) :: !arrivals);
  Model.send m e (mk_msg ~dst:2 ()) ~arrive:(fun () ->
      arrivals := (2, Engine.now e) :: !arrivals);
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9))))
    "uplink shared, downlinks parallel" [ (1, 2.0); (2, 3.0) ] (List.rev !arrivals)

let test_switched_distinct_senders_parallel () =
  let e = Engine.create ~n:4 () in
  let m = Model.switched { Model.net_fixed = 1.0; net_per_byte = 0.0 } ~n:4 in
  let arrivals = ref [] in
  Model.send m e (mk_msg ~src:0 ~dst:2 ()) ~arrive:(fun () ->
      arrivals := (0, Engine.now e) :: !arrivals);
  Model.send m e (mk_msg ~src:1 ~dst:3 ()) ~arrive:(fun () ->
      arrivals := (1, Engine.now e) :: !arrivals);
  Engine.run e;
  List.iter (fun (_, t) -> checkf "full parallelism" 2.0 t) !arrivals

let test_scripted_model () =
  let e = Engine.create ~n:2 () in
  let base = Model.constant ~delay:1.0 ~n:2 ~seed:1L () in
  let rule (msg : Message.t) =
    if msg.body_bytes = 999 then Model.Drop
    else if msg.body_bytes = 500 then Model.Delay_by 10.0
    else Model.Pass
  in
  let m = Model.scripted ~base ~rule in
  let arrivals = ref [] in
  Model.send m e (mk_msg ~bytes:52 ()) ~arrive:(fun () ->
      arrivals := ("pass", Engine.now e) :: !arrivals);
  Model.send m e (mk_msg ~bytes:999 ()) ~arrive:(fun () ->
      arrivals := ("drop", Engine.now e) :: !arrivals);
  Model.send m e (mk_msg ~bytes:500 ()) ~arrive:(fun () ->
      arrivals := ("delay", Engine.now e) :: !arrivals);
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "scripted actions" [ ("pass", 1.0); ("delay", 11.0) ] (List.rev !arrivals)

(* Transport *)

let mk_transport ?(n = 3) ?host () =
  let e = Engine.create ~n () in
  let host = Option.value host ~default:Host.instant in
  let model = Model.constant ~delay:1.0 ~n ~seed:1L () in
  (e, Transport.create e ~model ~host)

let test_transport_dispatch () =
  let e, tr = mk_transport () in
  let got = ref [] in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun msg ->
      match msg.Message.payload with
      | Test_payload v -> got := v :: !got
      | _ -> ());
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:10 (Test_payload 42);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "other") ~body_bytes:10 (Test_payload 7);
  Engine.run e;
  Alcotest.(check (list int)) "dispatch by layer" [ 42 ] !got

let test_transport_duplicate_layer () =
  let _, tr = mk_transport () in
  Transport.register tr 0 ~layer:(Transport.intern tr "x") (fun _ -> ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Transport.register: duplicate layer x at p0") (fun () ->
      Transport.register tr 0 ~layer:(Transport.intern tr "x") (fun _ -> ()))

let test_transport_local_send () =
  let e, tr = mk_transport () in
  let got = ref 0 in
  Transport.register tr 0 ~layer:(Transport.intern tr "a") (fun _ -> incr got);
  Transport.send tr ~src:0 ~dst:0 ~layer:(Transport.intern tr "a") ~body_bytes:1 (Test_payload 0);
  Engine.run e;
  checki "local delivery" 1 !got;
  Alcotest.(check (float 1e-9)) "local is fast (no network delay)" 0.0 (Engine.now e)

let test_transport_fifo_per_channel () =
  let e, tr = mk_transport () in
  let got = ref [] in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun msg ->
      match msg.Message.payload with Test_payload v -> got := v :: !got | _ -> ());
  for i = 1 to 10 do
    Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:1 (Test_payload i)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" (List.init 10 (fun i -> i + 1)) (List.rev !got)

let test_transport_crash_drops () =
  let e, tr = mk_transport ~host:Host.pentium3 () in
  let got = ref 0 in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> incr got);
  (* Sender dead: send is a no-op. *)
  Engine.crash e 0;
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:1 (Test_payload 0);
  Engine.run e;
  checki "dead sender" 0 !got;
  (* Receiver dead at delivery: dropped. *)
  let e, tr = mk_transport () in
  let got = ref 0 in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> incr got);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:1 (Test_payload 0);
  Engine.crash_at e 1 ~at:0.5;
  Engine.run e;
  checki "dead receiver" 0 !got

let test_transport_crash_mid_serialization () =
  (* With a real host profile, a message sent just before the crash is
     still on the sender's CPU when the crash hits: it must die. *)
  let e, tr = mk_transport ~host:Host.pentium3 () in
  let got = ref 0 in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> incr got);
  Engine.schedule e ~at:1.0 (fun () ->
      Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:1_000_000 (Test_payload 0);
      (* Serializing ~1MB takes ~20ms on the P-III profile. *)
      Engine.crash_at e 0 ~at:1.001);
  Engine.run e;
  checki "killed on the CPU" 0 !got

let test_transport_multicast_and_counters () =
  let e, tr = mk_transport () in
  let got = Array.make 3 0 in
  List.iter
    (fun p -> Transport.register tr p ~layer:(Transport.intern tr "a") (fun _ -> got.(p) <- got.(p) + 1))
    [ 0; 1; 2 ];
  Transport.send_to_others tr ~src:0 ~layer:(Transport.intern tr "a") ~body_bytes:2 (Test_payload 0);
  Engine.run e;
  Alcotest.(check (array int)) "others only" [| 0; 1; 1 |] got;
  Transport.send_to_all tr ~src:0 ~layer:(Transport.intern tr "a") ~body_bytes:2 (Test_payload 0);
  Engine.run e;
  Alcotest.(check (array int)) "all" [| 1; 2; 2 |] got;
  checki "message counter" 5 (Transport.sent_messages tr);
  checki "byte counter" (5 * (2 + Wire.header_bytes)) (Transport.sent_bytes tr)

let test_per_layer_stats () =
  let e, tr = mk_transport () in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> ());
  Transport.register tr 1 ~layer:(Transport.intern tr "b") (fun _ -> ());
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:10 (Test_payload 0);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:10 (Test_payload 0);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "b") ~body_bytes:20 (Test_payload 0);
  Engine.run e;
  Alcotest.(check (list (triple string int int)))
    "per-layer decomposition"
    [ ("a", 2, 2 * (10 + Wire.header_bytes)); ("b", 1, 20 + Wire.header_bytes) ]
    (Transport.per_layer_stats tr)

let test_layer_interning () =
  let _, tr = mk_transport () in
  let a1 = Transport.intern tr "a" in
  let a2 = Transport.intern tr "a" in
  let b = Transport.intern tr "b" in
  checkb "idempotent: same token" true (a1 == a2);
  checkb "layer equal" true (Layer.equal a1 a2);
  checki "dense ids from zero" 0 (Layer.id a1);
  checki "next layer next id" 1 (Layer.id b);
  Alcotest.(check string) "name kept" "a" (Layer.name a1)

let test_foreign_token_resolves_by_name () =
  (* A token minted elsewhere (or the unregistered sentinel) must still
     dispatch correctly: the transport falls back to interning its name. *)
  let e, tr = mk_transport () in
  let got = ref 0 in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> incr got);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Layer.unregistered "a") ~body_bytes:1
    (Test_payload 0);
  Engine.run e;
  checki "delivered via name fallback" 1 !got;
  (* And the traffic lands in the right per-layer bucket. *)
  Alcotest.(check (list (triple string int int)))
    "accounting merged" [ ("a", 1, 1 + Wire.header_bytes) ]
    (Transport.per_layer_stats tr)

let test_transport_charge_cpu_delays () =
  let e = Engine.create ~n:2 () in
  let host = { Host.instant with Host.cpu_recv_fixed = 1.0 } in
  let model = Model.constant ~delay:1.0 ~n:2 ~seed:1L () in
  let tr = Transport.create e ~model ~host in
  let at = ref [] in
  Transport.register tr 1 ~layer:(Transport.intern tr "a") (fun _ -> at := Engine.now e :: !at);
  Transport.send tr ~src:0 ~dst:1 ~layer:(Transport.intern tr "a") ~body_bytes:1 (Test_payload 0);
  (* A protocol-level CPU charge at t=0 pushes the message's receive
     processing back. *)
  Transport.charge_cpu tr 1 5.0;
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "recv queued behind charge" [ 6.0 ] !at

(* [Transport.hold]: at p0 of n = 4, a step holds frames 1 (to p1) and 2
   (to p2), then sends 3 (p3), 4 (p1), 5 (p3) and 6 (p2).  Frames to p3
   leave first; 4 and 6 wait behind the held frames of their links.  Each
   destination's subsequence is its call order, on both backends. *)
let hold_step tr =
  let layer = Transport.intern tr "a" in
  let send dst v = Transport.send tr ~src:0 ~dst ~layer ~body_bytes:1 (Test_payload v) in
  Transport.hold tr 0
    ~held:(fun () -> send 1 1; send 2 2)
    (fun () -> send 3 3; send 1 4; send 3 5; send 2 6)

let check_hold_order what log =
  let order = List.rev_map (fun (m : Message.t) ->
      match m.payload with Test_payload v -> (m.dst, v) | _ -> (m.dst, -1)) log
  in
  Alcotest.(check (list int)) (what ^ ": other destinations first, then each held link")
    [ 3; 5; 1; 4; 2; 6 ] (List.map snd order);
  List.iter
    (fun (dst, expect) ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: p%d keeps its call order" what dst)
        expect
        (List.filter_map (fun (d, v) -> if d = dst then Some v else None) order))
    [ (1, [ 1; 4 ]); (2, [ 2; 6 ]); (3, [ 3; 5 ]) ]

let test_transport_hold_sim () =
  let e, tr = mk_transport ~n:4 ~host:Host.pentium3 () in
  let wire = ref [] in
  Transport.interpose tr (fun next msg -> wire := msg :: !wire; next msg);
  hold_step tr;
  Engine.run e;
  check_hold_order "sim" !wire

let test_transport_hold_ext () =
  let e = Engine.create ~n:4 () in
  let emitted = ref [] in
  let tr = Transport.create_ext e ~self:0 ~emit:(fun msg -> emitted := msg :: !emitted) () in
  hold_step tr;
  check_hold_order "live" !emitted

let suites =
  [
    ( "wire-ids",
      [
        Alcotest.test_case "wire sizes" `Quick test_wire_sizes;
        Alcotest.test_case "msg id order" `Quick test_msg_id_order;
        Alcotest.test_case "set and table" `Quick test_msg_id_set_table;
        Alcotest.test_case "app msg" `Quick test_app_msg;
        Alcotest.test_case "host costs" `Quick test_host_costs;
      ] );
    ( "model",
      [
        Alcotest.test_case "constant delay" `Quick test_constant_model_delay;
        Alcotest.test_case "constant fifo with jitter" `Quick test_constant_model_fifo_with_jitter;
        Alcotest.test_case "shared bus serializes" `Quick test_shared_bus_serializes;
        Alcotest.test_case "switched store-and-forward" `Quick test_switched_parallel_downlinks;
        Alcotest.test_case "switched parallel senders" `Quick test_switched_distinct_senders_parallel;
        Alcotest.test_case "scripted drop/delay" `Quick test_scripted_model;
      ] );
    ( "transport",
      [
        Alcotest.test_case "dispatch" `Quick test_transport_dispatch;
        Alcotest.test_case "duplicate layer" `Quick test_transport_duplicate_layer;
        Alcotest.test_case "local send" `Quick test_transport_local_send;
        Alcotest.test_case "fifo per channel" `Quick test_transport_fifo_per_channel;
        Alcotest.test_case "crash drops" `Quick test_transport_crash_drops;
        Alcotest.test_case "crash mid serialization" `Quick test_transport_crash_mid_serialization;
        Alcotest.test_case "multicast and counters" `Quick test_transport_multicast_and_counters;
        Alcotest.test_case "per-layer stats" `Quick test_per_layer_stats;
        Alcotest.test_case "layer interning" `Quick test_layer_interning;
        Alcotest.test_case "foreign token fallback" `Quick test_foreign_token_resolves_by_name;
        Alcotest.test_case "charge cpu delays dispatch" `Quick test_transport_charge_cpu_delays;
        Alcotest.test_case "hold: sim wire order" `Quick test_transport_hold_sim;
        Alcotest.test_case "hold: live emit order" `Quick test_transport_hold_ext;
      ] );
  ]
