(** Quasi-reliable channel adapter over a fair-lossy network model.

    The paper (and every layer in this repo above the network model)
    assumes {e quasi-reliable} channels: if correct process [p] sends [m]
    to correct process [q], then [q] eventually receives [m], and FIFO
    order per channel is preserved.  A {e fair-lossy} link only promises
    that a message retransmitted infinitely often is eventually received.
    [Retransmit.wrap] closes that gap the way real stacks do — per-channel
    sequence numbers, cumulative acknowledgements, and timeout-driven
    go-back-N retransmission with exponential backoff — so Rb_flood, Urb
    and both consensus algorithms run unmodified over the lossy models
    produced by [Ics_faults.Nemesis].

    Retransmission timers consult {!Engine.horizon} and stop rescheduling
    past it, and purge their window when either endpoint has crashed
    (crash-stop), so wrapped runs still quiesce. *)

module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid

type params = {
  rto : Time.t;  (** initial retransmission timeout *)
  backoff : float;  (** multiplicative backoff factor, >= 1 *)
  max_rto : Time.t;  (** backoff cap *)
  ack_bytes : int;  (** body size of an acknowledgement frame *)
}

val default_params : params
(** rto = 8 ms, backoff ×2 capped at 128 ms, 8-byte acks. *)

type stats = {
  mutable transmissions : int;  (** every frame given to the base model *)
  mutable retransmits : int;  (** subset of transmissions that were retries *)
  mutable acks_sent : int;
  mutable dup_suppressed : int;  (** stale frames discarded at the receiver *)
  mutable held_out_of_order : int;  (** frames buffered for in-order release *)
}

val stats_to_list : stats -> (string * int) list

type Message.payload += Ack of { upto : int }
(** Cumulative acknowledgement: every sequence number [< upto] on this
    channel has been received.  Travels on the unregistered ["retx-ack"]
    layer through the base model (and is itself subject to its losses). *)

type Message.payload += Seq of { seq : int; inner : Message.payload }
(** A sequenced data frame of the wire-level channel ({!install}): the
    original payload plus its per-(src, dst, layer) sequence number, so
    the reliability protocol survives encoding to bytes. *)

val seq_overhead : int
(** Extra encoded bytes a [Seq] wrapper adds (tag byte + u32 counter). *)

val wrap : ?params:params -> Model.t -> Model.t * stats
(** [wrap base] builds a model that sequences every message per
    (src, dst, layer) connection — one logical socket per protocol layer,
    as a layered stack would open — delivers in order exactly once at the
    receiver, and retransmits unacknowledged messages until acked or an
    endpoint crashes.  Per-layer keying means a layer whose traffic is
    entirely suppressed cannot head-of-line-block other layers of the same
    process pair.  The base model's {!Model.fault_stats} (when it is a
    lossy nemesis or scripted wrapper) are propagated to the wrapped model.
    @raise Invalid_argument on non-positive [rto], [backoff < 1], or
    [max_rto < rto]. *)

type channel
(** An installed wire channel ({!install}). *)

val install : ?params:params -> Transport.t -> channel
(** The wire-encodable sibling of {!wrap}: installs an outbound middleware
    ({!Transport.interpose}) that wraps every remote send in a {!Seq}
    frame and go-back-N-retransmits it until acknowledged, and an inbound
    middleware that releases frames in order exactly once and returns
    cumulative {!Ack}s on the data's own layer.  Because both sides are
    ordinary messages, the channel behaves identically over the simulated
    backend and over real sockets.  Install any fault interposer first:
    the last middleware installed is outermost, and retries must traverse
    the faults.  Timers are armed through the transport's {!Env} and
    retire past its horizon (the live runtime pins the horizon to
    [deadline_ms]), so nodes quiesce even when a partition never heals.
    @raise Invalid_argument on bad [params], as for {!wrap}. *)

val channel_stats : channel -> stats

val unacked : channel -> src:Pid.t -> dst:Pid.t -> layer:string -> int
(** Frames [src] sent to [dst] on [layer] that [dst] has not acknowledged
    yet — still in the retransmission window, whether dropped, delayed
    or in flight. *)
