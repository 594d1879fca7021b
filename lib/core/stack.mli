(** Ready-to-run protocol stacks.

    A stack assembles engine → network model → transport → failure
    detector → broadcast → consensus → atomic broadcast into one runnable
    simulation, mirroring the Neko layered-stack deployments the paper
    benchmarks.  The four configurations of the evaluation:

    - [abcast_msgs]: RB flood + original CT/MR consensus {e on full
      messages} (Figure 1 baseline);
    - [abcast_ids_faulty]: RB flood + original consensus on bare
      identifiers — the legacy-stack configuration whose Validity breaks
      under a crash (Figures 3–4 baseline; §2.2 demo);
    - [abcast_indirect]: RB (flood or FD-relay) + {e indirect} consensus —
      the paper's contribution;
    - [abcast_urb]: uniform reliable broadcast + original consensus on
      identifiers — the alternative correct solution (Figures 5–7
      baseline).

    The [algo] field selects the consensus engine: [Ct] (Chandra–Toueg,
    the paper's implementation), [Mr] (Mostéfaoui–Raynal) or [Lb] (the
    Paxos-style leader-based extension; see {!Ics_consensus.Lb}). *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Transport = Ics_net.Transport
module Model = Ics_net.Model
module Host = Ics_net.Host
module App_msg = Ics_net.App_msg
module Failure_detector = Ics_fd.Failure_detector

type algo = Profile.algo = Ct | Mr | Lb
(** Re-export of {!Profile.algo}: existing call sites keep writing
    [Stack.Ct]; new code shares the constructors with the live runtime
    through {!Profile}. *)

type broadcast_kind = Profile.broadcast_kind =
  | Flood  (** reliable broadcast, O(n²) messages *)
  | Fd_relay  (** reliable broadcast, O(n) messages in good runs *)
  | Uniform  (** uniform reliable broadcast, O(n²), 2 steps *)
  | Ring  (** successor-to-successor chain, O(n); crash-free runs only *)

type setup =
  | Setup1  (** Pentium III hosts on switched 100 Mbit/s Ethernet *)
  | Setup1_shared_bus
      (** Setup 1 hosts on a half-duplex shared segment — kept for the
          abl-network ablation (same hosts and NIC speed, different
          contention model) *)
  | Setup2  (** Pentium 4 hosts on switched Gigabit Ethernet *)
  | Ideal_lan of { delay : Time.t; jitter : float }
      (** constant-latency network with zero CPU cost, for algorithm tests *)
  | Custom of { name : string; build : n:int -> Model.t * Host.t }
      (** bring your own network model and host profile (used by the
          rcv-cost sensitivity ablation and available to downstream
          users) *)

type fd_kind =
  | Oracle of Time.t  (** crash oracle with the given detection delay *)
  | Heartbeat of { period : Time.t; timeout : Time.t }

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
      (** [`Off] skips event recording entirely — the right mode for
          performance runs that never consult the checker.  Scheduling is
          unaffected either way. *)
}

val default_config : config
(** n = 3, seed 1, CT, indirect consensus, flood RB, no batching, Setup1,
    200 ms-delay oracle detector, tracing on. *)

(** Named presets for the paper's four benchmark stacks (CT-based). *)
val abcast_msgs : config
val abcast_ids_faulty : config
val abcast_indirect : config
val abcast_urb : config

type t = {
  config : config;
  engine : Engine.t;
  transport : Transport.t;
  fd : Failure_detector.t;
  abcast : Abcast.t;
  model : Model.t;
}

val consensus_layer : string
(** The transport layer {!assemble} runs consensus on. *)

val assemble :
  Transport.t ->
  fd:Failure_detector.t ->
  profile:Profile.t ->
  on_deliver:(Pid.t -> App_msg.t -> unit) ->
  Abcast.t
(** Wire the protocol layers above an existing transport (simulated or
    live) and failure detector — the assembly shared by {!create} and the
    live runtime's per-node stack.  Reads the shape fields ([algo],
    [ordering], [broadcast], [batch]/[pipeline]/[flush]) of [profile]; the workload fields are the
    caller's business.  Also registers all wire codecs
    ({!Codecs.ensure}). *)

val config_of_profile : Profile.t -> config
(** {!default_config} with the profile's shape ([n], [algo], [ordering],
    [broadcast], batching knobs). *)

val create :
  ?engine:Engine.t ->
  ?rule:(Ics_net.Message.t -> Model.action) ->
  ?on_deliver:(Pid.t -> App_msg.t -> unit) ->
  ?manual_fd:Failure_detector.Control.t ->
  config ->
  t
(** Build the full stack.  [engine] supplies a pre-built engine (needed
    when the caller wants to construct a manual failure detector on it
    first; its process count must match [config.n]); [rule] wraps the
    network model in a {!Model.scripted} adversary; [on_deliver] observes
    every A-delivery (used by the workload's latency collector);
    [manual_fd] substitutes a test-driven failure detector for the
    configured one.
    @raise Invalid_argument on an engine/config process-count mismatch. *)

val abroadcast : ?blob:int64 -> t -> src:Pid.t -> body_bytes:int -> App_msg.t

val run : ?until:Time.t -> ?max_events:int -> t -> unit

val utilization : ?horizon:Time.t -> t -> (string * float) list
(** Busy-time fraction of every resource (per-process CPUs and the network
    model's links/bus) over [horizon] (default: the virtual time elapsed
    so far) — the direct way to see what saturates in a saturated run. *)

val fault_counters : t -> (string * int) list
(** Injected-fault counters of the stack's network model — the
    [?rule] adversary of {!create}: drops, delays, per-layer drops.  Empty
    when the model injects no faults.  A seeded fault plan is transport
    middleware, not a model: its counters are the record
    [Ics_faults.Nemesis.install] returns. *)

val describe : t -> string
(** e.g. ["abcast(indirect, ct-indirect, rb-flood(O(n^2)), setup1, n=3)"]. *)
