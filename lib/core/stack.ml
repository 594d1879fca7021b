module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Transport = Ics_net.Transport
module Model = Ics_net.Model
module Host = Ics_net.Host
module App_msg = Ics_net.App_msg
module Failure_detector = Ics_fd.Failure_detector
module Rb_flood = Ics_broadcast.Rb_flood
module Rb_fd = Ics_broadcast.Rb_fd
module Urb = Ics_broadcast.Urb
module Ct = Ics_consensus.Ct
module Mr = Ics_consensus.Mr

type algo = Profile.algo = Ct | Mr | Lb
type broadcast_kind = Profile.broadcast_kind = Flood | Fd_relay | Uniform | Ring

type setup =
  | Setup1
  | Setup1_shared_bus
  | Setup2
  | Ideal_lan of { delay : Time.t; jitter : float }
  | Custom of { name : string; build : n:int -> Model.t * Host.t }

type fd_kind = Oracle of Time.t | Heartbeat of { period : Time.t; timeout : Time.t }

type config = {
  n : int;
  seed : int64;
  algo : algo;
  ordering : Abcast.ordering;
  broadcast : broadcast_kind;
  batching : Abcast.batching;
  setup : setup;
  fd_kind : fd_kind;
  trace : [ `On | `Off ];
}

let default_config =
  {
    n = 3;
    seed = 1L;
    algo = Ct;
    ordering = Abcast.Indirect_consensus;
    broadcast = Flood;
    batching = Abcast.no_batching;
    setup = Setup1;
    fd_kind = Oracle 200.0;
    trace = `On;
  }

let abcast_msgs = { default_config with ordering = Abcast.Consensus_on_messages }
let abcast_ids_faulty = { default_config with ordering = Abcast.Consensus_on_ids }
let abcast_indirect = default_config

let abcast_urb =
  { default_config with ordering = Abcast.Consensus_on_ids; broadcast = Uniform }

type t = {
  config : config;
  engine : Engine.t;
  transport : Transport.t;
  fd : Failure_detector.t;
  abcast : Abcast.t;
  model : Model.t;
}

let build_model config =
  match config.setup with
  (* Both testbeds use switched full-duplex fabrics: the paper's Fig. 4(d)
     sustains 800 msg/s with multi-kB payloads at n=5, which a shared
     100 Mbit segment cannot carry — their "100 Base-TX Ethernet" was a
     switch.  Setup 1's saturation is CPU-driven (P-III hosts). *)
  | Setup1 -> (Model.switched Model.params_100mbps ~n:config.n, Host.pentium3)
  | Setup1_shared_bus -> (Model.shared_bus Model.params_100mbps, Host.pentium3)
  | Setup2 -> (Model.switched Model.params_1gbps ~n:config.n, Host.pentium4)
  | Ideal_lan { delay; jitter } ->
      ( Model.constant ~jitter ~delay ~n:config.n
          ~seed:(Int64.add config.seed 7919L) (),
        Host.instant )
  | Custom { build; _ } -> build ~n:config.n

let consensus_layer = Ics_consensus.Instances.layer

(* The protocol wiring above the transport, shared verbatim between the
   simulated stack and the live runtime's per-node stack. *)
let assemble transport ~fd ~profile ~on_deliver =
  Codecs.ensure ();
  let make_broadcast ~deliver =
    match profile.Profile.broadcast with
    | Flood -> Rb_flood.create transport ~fd ~deliver
    | Fd_relay -> Rb_fd.create transport ~fd ~deliver
    | Uniform -> Urb.create transport ~deliver
    | Ring -> Ics_broadcast.Rb_ring.create transport ~deliver
  in
  let make_consensus ~rcv callbacks =
    (* Batched / pipelined proposals need self-announcing instances (LB's
       Kick has this built in).  A proposer announces only after waiting
       the batch flush delay for its coordinator.  At batch=1/pipeline=1
       announce stays off and the wire traffic is byte-identical to the
       seed. *)
    let announce =
      if profile.Profile.batch > 1 || profile.Profile.pipeline > 1 then
        Some profile.Profile.flush_ms
      else None
    in
    let config = { Ics_consensus.Instances.rcv } in
    match profile.Profile.algo with
    | Ct -> Ics_consensus.Ct.create ?announce transport fd config callbacks
    | Mr -> Ics_consensus.Mr.create ?announce transport fd config callbacks
    | Lb -> Ics_consensus.Lb.create transport fd config callbacks
  in
  Abcast.create ~batching:(Profile.batching profile) transport
    ~ordering:profile.Profile.ordering ~make_broadcast ~make_consensus
    ~deliver:on_deliver

let profile config =
  {
    Profile.default with
    Profile.n = config.n;
    algo = config.algo;
    ordering = config.ordering;
    broadcast = config.broadcast;
    batch = config.batching.Abcast.batch;
    pipeline = config.batching.Abcast.pipeline;
    flush_ms = config.batching.Abcast.flush_ms;
  }

let config_of_profile (p : Profile.t) =
  {
    default_config with
    n = p.Profile.n;
    algo = p.Profile.algo;
    ordering = p.Profile.ordering;
    broadcast = p.Profile.broadcast;
    batching = Profile.batching p;
  }

let create ?engine ?rule ?(on_deliver = fun _ _ -> ()) ?manual_fd config =
  if config.n <= 0 then invalid_arg "Stack.create: n <= 0";
  let engine =
    match engine with
    | Some e ->
        if Engine.n e <> config.n then invalid_arg "Stack.create: engine/config n mismatch";
        e
    | None -> Engine.create ~seed:config.seed ~trace:config.trace ~n:config.n ()
  in
  let model, host = build_model config in
  let model =
    match rule with None -> model | Some rule -> Model.scripted ~base:model ~rule
  in
  let transport = Transport.create engine ~model ~host in
  let fd =
    match manual_fd with
    | Some control -> Failure_detector.Control.fd control
    | None -> (
        match config.fd_kind with
        | Oracle detection_delay -> Failure_detector.oracle engine ~detection_delay
        | Heartbeat { period; timeout } -> Failure_detector.heartbeat transport ~period ~timeout)
  in
  let abcast = assemble transport ~fd ~profile:(profile config) ~on_deliver in
  { config; engine; transport; fd; abcast; model }

let abroadcast ?blob t ~src ~body_bytes =
  Abcast.abroadcast ?blob t.abcast ~src ~body_bytes
let run ?until ?max_events t = Engine.run ?until ?max_events t.engine

let utilization ?horizon t =
  let horizon = match horizon with Some h -> h | None -> Engine.now t.engine in
  let resource r =
    (Ics_sim.Resource.name r, Ics_sim.Resource.utilization r ~horizon)
  in
  let cpus =
    List.map (fun p -> resource (Transport.cpu_resource t.transport p))
      (Pid.all ~n:t.config.n)
  in
  cpus @ List.map resource (Model.resources t.model)

let fault_counters t =
  match Model.fault_stats t.model with
  | Some stats -> Model.Fault_stats.to_list stats
  | None -> []

let describe t =
  let ordering =
    match t.config.ordering with
    | Abcast.Consensus_on_messages -> "on-messages"
    | Abcast.Consensus_on_ids -> "on-ids"
    | Abcast.Indirect_consensus -> "indirect"
  in
  let setup =
    match t.config.setup with
    | Setup1 -> "setup1"
    | Setup1_shared_bus -> "setup1-bus"
    | Setup2 -> "setup2"
    | Ideal_lan _ -> "ideal-lan"
    | Custom { name; _ } -> name
  in
  Printf.sprintf "abcast(%s, %s, %s, %s, n=%d)" ordering
    (Abcast.consensus_name t.abcast)
    (Abcast.broadcast_name t.abcast)
    setup t.config.n
