(** Network models.

    A model is responsible for the {e network leg} of a message's journey:
    from the instant the sender's CPU finishes serializing it to the instant
    it is ready for deserialization at the destination's NIC.  CPU legs are
    handled by {!Transport} so that protocol-level CPU work (e.g. the
    [rcv] checks of indirect consensus) contends with message processing on
    the same per-process resource, as it does in the real system.

    Two resource-based models mirror the paper's testbeds:
    - {!shared_bus}: one FIFO resource shared by all transmissions —
      a 100 Mbit/s half-duplex-ish Ethernet segment (Setup 1);
    - {!switched}: a full-duplex switch — one uplink resource per sender and
      one downlink resource per receiver, store-and-forward (Setup 2).

    {!constant} (fixed delay, optional jitter, FIFO-clamped per channel) is
    for algorithm-level tests where timing must be trivial, and
    {!scripted} wraps any model with per-message drop/delay rules to build
    the adversarial executions of §2.2 and §3.3.2.  Seeded fault plans are
    not models: [Ics_faults.Nemesis.install] compiles them into
    {!Transport} middleware, which the simulated and live backends share. *)

module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Resource = Ics_sim.Resource

type t

(** Injected-fault counters, shared by the {!scripted} wrapper here and
    the fault plans [Ics_faults.Nemesis.install] compiles into transport
    middleware, so every fault source reports in one shape. *)
module Fault_stats : sig
  type t = {
    mutable drops : int;  (** probabilistic/scripted losses *)
    mutable dups : int;
    mutable delays : int;
    mutable slowdowns : int;  (** messages slowed by a slowdown window *)
    mutable partition_drops : int;  (** losses due to an active partition *)
    mutable crashes : int;  (** crashes injected by a fault plan *)
    drops_by_layer : (string, int ref) Hashtbl.t;
  }

  val create : unit -> t
  val count_layer_drop : t -> string -> unit
  val total_drops : t -> int

  val to_list : t -> (string * int) list
  (** Non-zero counters as (name, count), per-layer drops as
      ["drops[layer]"]; stable order. *)

  val pp : Format.formatter -> t -> unit
end

val name : t -> string

val send : t -> Engine.t -> Message.t -> arrive:(unit -> unit) -> unit
(** Start the network leg now; [arrive] runs (via the engine queue) when the
    message reaches the destination NIC.  Never called for local
    ([src = dst]) messages. *)

val resources : t -> Resource.t list
(** The model's internal resources, for utilization reports. *)

val fault_stats : t -> Fault_stats.t option
(** The model's injected-fault counters, when it is a {!scripted}
    wrapper. *)

(** {1 Constructors} *)

type net_params = {
  net_fixed : Time.t;  (** framing + propagation + switch latency per frame *)
  net_per_byte : Time.t;  (** transmission time per wire byte *)
}

val params_100mbps : net_params
(** Setup 1: 100 Base-TX Ethernet. *)

val params_1gbps : net_params
(** Setup 2: Gigabit Ethernet. *)

val shared_bus : net_params -> t
val switched : net_params -> n:int -> t

val constant :
  ?jitter:float ->
  delay:Time.t ->
  n:int ->
  seed:int64 ->
  unit ->
  t
(** Fixed [delay] plus uniform jitter in [\[0, jitter)], FIFO-clamped per
    (src, dst) channel so reliable-channel FIFO order is preserved. *)

type action =
  | Pass  (** defer to the base model *)
  | Drop  (** silently lose the message (models a crash-truncated send) *)
  | Delay_by of Time.t  (** add extra latency before the base model runs *)

val scripted : base:t -> rule:(Message.t -> action) -> t
(** [scripted ~base ~rule] consults [rule] for every message.  Used only by
    tests and the violation demos; rules can match on layer, src, dst or
    payload. *)
