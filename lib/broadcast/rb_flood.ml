module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Failure_detector = Ics_fd.Failure_detector

type Message.payload += Data of App_msg.t

let layer = "rb"

let register_codec () =
  let module Codec = Ics_codec.Codec in
  Codec.register ~tag:0x10 ~name:"rb.data"
    ~fits:(function Data _ -> true | _ -> false)
    ~size:(function Data m -> App_msg.rb_body_bytes m | _ -> assert false)
    ~encode_into:(fun w -> function Data m -> Codec.enc_app_msg w m | _ -> assert false)
    ~dec:(fun r -> Data (Codec.dec_app_msg r))
    ~gen:(fun rng -> Data (Codec.gen_app_msg rng))

type proc_state = { delivered : unit Msg_id.Table.t }

let create transport ~fd ~deliver =
  let engine = Transport.engine transport in
  let layer = Transport.intern transport layer in
  let n = Transport.n transport in
  let states = Array.init n (fun _ -> { delivered = Msg_id.Table.create 64 }) in
  let holds p id = Msg_id.Table.mem states.(p).delivered id in
  let deliver_local p (m : App_msg.t) =
    let st = states.(p) in
    if not (Msg_id.Table.mem st.delivered m.id) then begin
      Msg_id.Table.add st.delivered m.id ();
      Engine.record engine p (Trace.Rdeliver m.id);
      deliver p m
    end
  in
  (* Suspected processes last: a live peer's copy never waits on the CPU
     behind a copy for a process that may be dead. *)
  let multicast p dsts (m : App_msg.t) =
    Transport.multicast transport ~src:p
      ~dsts:(Failure_detector.suspected_last fd ~by:p dsts)
      ~layer ~body_bytes:(App_msg.rb_body_bytes m) (Data m)
  in
  let relay p (m : App_msg.t) =
    let origin = App_msg.origin m in
    multicast p (List.filter (fun q -> not (Pid.equal q origin)) (Pid.others ~n p)) m
  in
  List.iter
    (fun p ->
      Transport.register transport p ~layer (fun msg ->
          match msg.Message.payload with
          | Data m ->
              (* The relays are held: what delivery sends to the origin
                 leaves first, and each relay still precedes, on its own
                 link, anything the delivery triggers. *)
              if not (holds p m.App_msg.id) then
                Transport.hold transport p
                  ~held:(fun () -> relay p m)
                  (fun () -> deliver_local p m)
          | _ -> ()))
    (Pid.all ~n);
  let broadcast ~src (m : App_msg.t) =
    if Engine.is_alive engine src then begin
      Engine.record engine src (Trace.Rbroadcast m.id);
      multicast src (Pid.others ~n src) m;
      deliver_local src m
    end
  in
  { Broadcast_intf.name = "rb-flood(O(n^2))"; broadcast; holds }
