(* Ring (chain) payload dissemination, after Ring Paxos: the origin hands
   a payload batch to its successor only, and each process forwards it
   one hop further until every process has seen it — (n-1) unicasts per
   broadcast instead of flood's O(n²), and no single NIC carries more
   than its share.  This is a performance substrate for fault-free
   saturation runs: a crashed process breaks the chain for payloads that
   have not passed it yet, and repairing the ring from the failure
   detector is future work, so chaos sweeps keep flood/fd-relay. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Wire = Ics_net.Wire

type Message.payload += Pass of { hops : int; msgs : App_msg.t list }

let layer = "rb"

(* tag byte + u16 hops + u16 count, then each message without its own
   tag byte (rb_body_bytes includes one). *)
let batch_bytes msgs =
  Wire.tag_bytes + 4
  + List.fold_left
      (fun acc m -> acc + (App_msg.rb_body_bytes m - Wire.tag_bytes))
      0 msgs

let register_codec () =
  let module Codec = Ics_codec.Codec in
  let module Prim = Ics_codec.Prim in
  let module Rng = Ics_prelude.Rng in
  Codec.register ~tag:0x14 ~name:"rb.ring"
    ~fits:(function Pass _ -> true | _ -> false)
    ~size:(function Pass { msgs; _ } -> batch_bytes msgs | _ -> assert false)
    ~encode_into:(fun w -> function
      | Pass { hops; msgs } ->
          Prim.u16 w hops;
          Prim.u16 w (List.length msgs);
          List.iter (Codec.enc_app_msg w) msgs
      | _ -> assert false)
    ~dec:(fun r ->
      let hops = Prim.r_u16 r in
      let count = Prim.r_u16 r in
      (* explicit recursion: the reader is stateful, so decode order
         must be the encode order *)
      let rec read k acc =
        if k = 0 then List.rev acc else read (k - 1) (Codec.dec_app_msg r :: acc)
      in
      Pass { hops; msgs = read count [] })
    ~gen:(fun rng ->
      let hops = Rng.int rng 16 in
      let count = Rng.int rng 4 in
      let rec draw k acc =
        if k = 0 then List.rev acc else draw (k - 1) (Codec.gen_app_msg rng :: acc)
      in
      Pass { hops; msgs = draw count [] })

type proc_state = { delivered : unit Msg_id.Table.t }

let create transport ~deliver =
  let engine = Transport.engine transport in
  let layer = Transport.intern transport layer in
  let n = Transport.n transport in
  let states = Array.init n (fun _ -> { delivered = Msg_id.Table.create 64 }) in
  let holds p id = Msg_id.Table.mem states.(p).delivered id in
  let succ p = (p + 1) mod n in
  let deliver_local p (m : App_msg.t) =
    if not (holds p m.id) then begin
      Msg_id.Table.add states.(p).delivered m.id ();
      Engine.record engine p (Trace.Rdeliver m.id);
      deliver p m
    end
  in
  let forward p ~hops msgs =
    if hops < n - 1 then
      Transport.send transport ~src:p ~dst:(succ p) ~layer
        ~body_bytes:(batch_bytes msgs)
        (Pass { hops = hops + 1; msgs })
  in
  List.iter
    (fun p ->
      Transport.register transport p ~layer (fun msg ->
          match msg.Message.payload with
          | Pass { hops; msgs } ->
              (* A wholly stale batch is a retransmission duplicate; the
                 first copy already went around, so don't loop it again.
                 Otherwise hand it on before delivering: local delivery
                 may propose, and the consensus frames that triggers
                 must not overtake the payload on the FIFO link to the
                 successor. *)
              if List.exists (fun (m : App_msg.t) -> not (holds p m.id)) msgs
              then begin
                forward p ~hops msgs;
                List.iter (deliver_local p) msgs
              end
          | _ -> ()))
    (Pid.all ~n);
  let broadcast ~src (m : App_msg.t) =
    if Engine.is_alive engine src then begin
      Engine.record engine src (Trace.Rbroadcast m.id);
      if n > 1 then
        Transport.send transport ~src ~dst:(succ src) ~layer
          ~body_bytes:(batch_bytes [ m ])
          (Pass { hops = 1; msgs = [ m ] });
      deliver_local src m
    end
  in
  { Broadcast_intf.name = "rb-ring(O(n))"; broadcast; holds }
