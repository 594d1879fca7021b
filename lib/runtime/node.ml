module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Retransmit = Ics_net.Retransmit
module Model = Ics_net.Model
module Failure_detector = Ics_fd.Failure_detector
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Nemesis = Ics_faults.Nemesis
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim
module Rng = Ics_prelude.Rng
module Workload = Ics_core.Workload

(* Runtime control plane, two steps on the "ctl" layer — the distributed
   analogue of the simulator's quiescence check, with the run deadline as
   the fallback.  [Done]: this node has A-delivered the full workload;
   once every peer has announced it too, the node is past the barrier.
   [Bye]: past the barrier, this node holds no undecided consensus
   instance, so what a peer needs from it to decide (its acks, or its
   decision flood) is already on the wire ahead of the Bye.  A node leaves once it holds a Bye from every peer
   (DESIGN.md §8). *)
type Message.payload += Done of int | Bye

let ctl_layer = "ctl"

let register_codec () =
  Codec.register ~tag:0x48 ~name:"ctl.done"
    ~fits:(function Done _ -> true | _ -> false)
    ~size:(fun _ -> 5)
    ~encode_into:(fun w -> function Done d -> Prim.u32 w d | _ -> assert false)
    ~dec:(fun r -> Done (Prim.r_u32 r))
    ~gen:(fun rng -> Done (Rng.int rng 10_000));
  Codec.register ~tag:0x49 ~name:"ctl.bye"
    ~fits:(function Bye -> true | _ -> false)
    ~size:(fun _ -> 1)
    ~encode_into:(fun _ _ -> ())
    ~dec:(fun _ -> Bye)
    ~gen:(fun _ -> Bye)

type config = {
  self : int;
  profile : Profile.t;  (** shape + workload; [n] comes from here *)
  seed : int64;  (** cell seed; the chaos schedule derives from it *)
  plan : Nemesis.plan;
      (** run-relative fault plan; shifted past [warmup_ms] here *)
  plan_seed : int64;
  retransmit : bool;  (** wire retransmission channel when a plan is set *)
  chaos_workload : bool;
      (** replicate the chaos sweep's round-robin schedule instead of the
          every-node-broadcasts-[count] workload *)
}

let default_workload =
  {
    self = 0;
    profile = Profile.default;
    seed = 1L;
    plan = [];
    plan_seed = 1L;
    retransmit = true;
    chaos_workload = false;
  }

type leave = On_bye | On_grace | On_deadline | On_crash

let leaves = [ On_bye; On_grace; On_deadline; On_crash ]

let leave_to_string = function
  | On_bye -> "bye"
  | On_grace -> "grace"
  | On_deadline -> "deadline"
  | On_crash -> "crashed"

type result = {
  delivered : int;  (** A-deliveries at this node *)
  expected : int;
  clean_exit : bool;  (** finished via the all-done barrier, not the deadline *)
  leave : leave;
  linger_ms : float;  (** barrier (or crash) to loop exit *)
  net : Socket_transport.stats;
  faults : (string * int) list;  (** this node's outbound-link fault counters *)
  retx : (string * int) list;
  consensus : (string * int) list;
  trace : Ics_sim.Trace.t;
}

(* Every counter family in one flat list, prefixed so the cluster parent
   can split them apart again after summing across nodes.  The leave
   reason counts one under its name; the linger rides in microseconds. *)
let result_kv r =
  (("leave." ^ leave_to_string r.leave, 1)
   :: ("linger_us", int_of_float (Float.round (r.linger_ms *. 1000.0)))
   :: List.map (fun (k, v) -> ("fault." ^ k, v)) r.faults)
  @ List.map (fun (k, v) -> ("retx." ^ k, v)) r.retx
  @ List.map (fun (k, v) -> ("consensus." ^ k, v)) r.consensus

(* A cell's plan, shifted past the warm-up with the workload it faults,
   on [self]'s outbound links (a live node) or on every link (a
   simulated run sharing one transport). *)
let install_plan ?self transport config =
  match config.plan with
  | [] -> (None, fun () -> ([], []))
  | plan ->
      let stats, retx =
        Nemesis.install ?self transport ~seed:config.plan_seed
          ~plan:(Nemesis.shift plan ~by:config.profile.Profile.warmup_ms)
          ~retransmit:config.retransmit
      in
      let counters () =
        ( Model.Fault_stats.to_list stats,
          match retx with
          | Some ch -> Retransmit.stats_to_list (Retransmit.channel_stats ch)
          | None -> [] )
      in
      (retx, counters)

let run ~epoch ~listen ~peer_addrs config =
  let p = config.profile in
  let n = p.Profile.n in
  if config.self < 0 || config.self >= n then invalid_arg "Node.run: self out of range";
  register_codec ();
  (* The heartbeat detector emits before [Stack.assemble] would get a
     chance to register the layer codecs — do it up front. *)
  Ics_core.Codecs.ensure ();
  let engine = Engine.create ~seed:(Int64.of_int (config.self + 1)) ~trace:`On ~n () in
  let clock = Clock.create ~epoch in
  let st =
    Socket_transport.create ~engine ~clock ~self:config.self ~listen ~peer_addrs ()
  in
  let transport = Socket_transport.transport st in
  let retx, plan_counters = install_plan ~self:config.self transport config in
  let fd =
    Failure_detector.heartbeat transport ~period:p.Profile.hb_period_ms
      ~timeout:p.Profile.hb_timeout_ms
  in
  let kind = Workload.kind p ~round_robin:config.chaos_workload in
  let load = Workload.create p kind ~self:config.self ~seed:config.seed in
  let done_from = Array.make n false in
  let announced = ref false in
  let ctl = Transport.intern transport ctl_layer in
  let announce () =
    if not !announced then begin
      announced := true;
      done_from.(config.self) <- true;
      Transport.send_to_others transport ~src:config.self ~layer:ctl ~body_bytes:5
        (Done (Workload.delivered load))
    end
  in
  let on_deliver pid m =
    if Pid.equal pid config.self then begin
      Workload.on_deliver load m;
      if Workload.complete load then announce ()
    end
  in
  let abcast = Stack.assemble transport ~fd ~profile:p ~on_deliver in
  Workload.install load transport ~abcast;
  let bye_from = Array.make n false in
  Transport.register transport config.self ~layer:ctl (fun msg ->
      match msg.Message.payload with
      | Done _ -> done_from.(msg.Message.src) <- true
      | Bye -> bye_from.(msg.Message.src) <- true
      | _ -> ());
  let all_done () = !announced && Array.for_all Fun.id done_from in
  (* A plan-scheduled crash of our own pid is process death: leave the
     loop instead of idling to the deadline as a zombie. *)
  let alive () = Engine.is_alive engine config.self in
  let exit_recorded = ref false in
  let stop () =
    if all_done () then begin
      (* Mark the clean exit in the trace: the checker's termination
         properties must not demand this node's participation in
         consensus decisions first reached after it left the run. *)
      if not !exit_recorded then begin
        exit_recorded := true;
        Engine.record engine config.self Trace.Exit
      end;
      true
    end
    else not (alive ())
  in
  (* Under a fault plan the retransmission channel keeps one FIFO per
     layer, and a frame may sit dropped or delayed in it: a peer is
     settled on [layer] once it has acknowledged every frame we sent it
     there, or has hung up (its loop is over; it needs nothing more from
     us).  Without the channel, TCP's in-order delivery settles it. *)
  let settled layer q =
    match retx with
    | None -> true
    | Some ch ->
        Retransmit.unacked ch ~src:config.self ~dst:q ~layer = 0
        || Socket_transport.hung_up st q
  in
  let all_settled layer =
    List.for_all (settled layer) (Pid.others ~n config.self)
  in
  (* Past the barrier, say Bye once no instance of ours is undecided (and
     our consensus frames have landed), and leave once every peer has
     said Bye too and has our Bye.  A crashed pid says nothing and waits
     out the grace cap, as a peer that never says Bye makes us do. *)
  let leave () =
    all_done () && alive ()
    && Abcast.undecided_instances abcast config.self = 0
    && begin
         if (not bye_from.(config.self)) && all_settled Stack.consensus_layer
         then begin
           bye_from.(config.self) <- true;
           Transport.send_to_others transport ~src:config.self ~layer:ctl
             ~body_bytes:1 Bye
         end;
         Array.for_all Fun.id bye_from && all_settled ctl_layer
       end
  in
  let ended = Socket_transport.run st ~deadline:p.Profile.deadline_ms ~stop ~leave in
  let clean = all_done () in
  Socket_transport.close st;
  let faults, retx_counts = plan_counters () in
  {
    delivered = Workload.delivered load;
    expected = Workload.expected p kind;
    clean_exit = clean;
    leave =
      (if not (alive ()) then On_crash
       else
         match ended.Socket_transport.why with
         | `Left -> On_bye
         | `Grace -> On_grace
         | `Deadline -> On_deadline);
    linger_ms = ended.Socket_transport.linger_ms;
    net = Socket_transport.stats st;
    faults;
    retx = retx_counts;
    consensus = Abcast.consensus_counters abcast;
    trace = Engine.trace engine;
  }
