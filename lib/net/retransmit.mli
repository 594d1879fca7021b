(** Quasi-reliable channel over a fair-lossy wire, as transport middleware.

    The paper (and every layer in this repo above the network) assumes
    {e quasi-reliable} channels: if correct process [p] sends [m] to
    correct process [q], then [q] eventually receives [m], and FIFO order
    per channel is preserved.  A {e fair-lossy} link only promises that a
    message retransmitted infinitely often is eventually received.
    {!install} closes that gap the way real stacks do — per-channel
    sequence numbers, cumulative acknowledgements, and timeout-driven
    go-back-N retransmission with exponential backoff (RTO 8 ms, ×2,
    capped at 128 ms) — so Rb_flood, Urb and both consensus algorithms
    run unmodified over the lossy links a fault plan produces
    ([Ics_faults.Nemesis.install]).

    Retransmission timers consult the {!Env} horizon and stop
    rescheduling past it, and purge their window when either endpoint has
    crashed (crash-stop), so runs still quiesce. *)

module Time = Ics_sim.Time
module Pid = Ics_sim.Pid

type stats = {
  mutable transmissions : int;  (** every frame given to the wire *)
  mutable retransmits : int;  (** subset of transmissions that were retries *)
  mutable acks_sent : int;
  mutable dup_suppressed : int;  (** stale frames discarded at the receiver *)
  mutable held_out_of_order : int;  (** frames buffered for in-order release *)
}

val stats_to_list : stats -> (string * int) list

type Message.payload += Ack of { upto : int }
(** Cumulative acknowledgement: every sequence number [< upto] on this
    channel has been received.  Travels back on the data's own layer
    through the same middleware chain as the data (and is itself subject
    to its faults). *)

type Message.payload += Seq of { seq : int; inner : Message.payload }
(** A sequenced data frame: the original payload plus its
    per-(src, dst, layer) sequence number, so the reliability protocol
    survives encoding to bytes. *)

val seq_overhead : int
(** Extra encoded bytes a [Seq] wrapper adds (tag byte + u32 counter). *)

type channel
(** An installed channel. *)

val install : Transport.t -> channel
(** Install an outbound middleware ({!Transport.interpose}) that wraps
    every remote send in a {!Seq} frame and go-back-N-retransmits it
    until acknowledged, and an inbound middleware that releases frames in
    order exactly once and returns cumulative {!Ack}s on the data's own
    layer.  Sequencing is per (src, dst, layer) connection — one logical
    socket per protocol layer, as a layered stack would open — so a layer
    whose traffic is entirely suppressed cannot head-of-line-block other
    layers of the same process pair.  Because both sides are ordinary
    messages, the channel behaves identically over the simulated backend
    and over real sockets.  Retries and acks go through the middleware
    installed before this one, so fault interposers must come first —
    [Ics_faults.Nemesis.install] owns that order.  Timers are armed
    through the transport's {!Env} and retire past its horizon (the live
    runtime pins the horizon to [deadline_ms]), so nodes quiesce even
    when a partition never heals. *)

val channel_stats : channel -> stats

val unacked : channel -> src:Pid.t -> dst:Pid.t -> layer:string -> int
(** Frames [src] sent to [dst] on [layer] that [dst] has not acknowledged
    yet — still in the retransmission window, whether dropped, delayed
    or in flight. *)
