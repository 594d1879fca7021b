(** The live transport backend: localhost TCP mesh + ppoll(2) readiness
    loop.

    Wraps {!Ics_net.Transport.create_ext} with real sockets.  Node [i]
    dials every peer once and uses the dialed socket for outbound frames
    only; inbound frames arrive on sockets accepted from the peers'
    dials.  Frames are the {!Ics_codec.Codec} wire format, encoded
    straight into each peer's outbound {!Bq.t} (backpatched header, no
    per-frame staging buffer) and decoded in place from each
    connection's inbound queue; a malformed frame closes its connection
    (a corrupted TCP byte stream cannot be resynchronized) and is
    counted in {!stats}.

    The event loop ({!run}) keeps one persistent pollset for the whole
    run: readiness interest is flipped in place when a queue's occupancy
    changes — a peer's slot carries [POLLOUT] exactly while its outbound
    queue is nonempty — never rebuilt per iteration.  It drives the
    engine's timer queue from the real clock via
    {!Ics_sim.Engine.run_due}, pinning the engine horizon once to the
    run deadline so self-rearming timers (heartbeats) retire on their
    own.  Each wait's timeout is in whole microseconds ({!Poll.timeout_us}),
    so a timer wakes the loop within the kernel's timer slack of its due
    time rather than up to a millisecond late. *)

module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport

(** The loop's byte queues are the codec plane's {!Ics_codec.Bq} — one
    shared buffer discipline from encoder to socket and socket to
    decoder. *)
module Bq = Ics_codec.Bq

(** The readiness wait's timeout arithmetic. *)
module Poll : sig
  val timeout_us : float -> int
  (** [timeout_us ms] is the ppoll timeout for a wait of [ms]
      milliseconds: clamped to \[0, 50 ms\] (so [stop] is polled
      promptly) and rounded up to a whole microsecond, so a timer due in
      under a microsecond gets a 1 µs wait, never a zero-length one that
      spins.  Negative and NaN waits are 0. *)

  val timer_slack_ns : unit -> int
  (** The calling thread's kernel timer slack in nanoseconds ([-1] where
      the platform cannot report it).  The first wait sets it to 1 ns on
      Linux, so ppoll wakes at a timer's due time rather than up to the
      default 50 µs after it. *)
end

type t

val create :
  engine:Engine.t ->
  clock:Clock.t ->
  self:int ->
  listen:Unix.file_descr ->
  peer_addrs:Unix.sockaddr array ->
  unit ->
  t
(** [listen] must already be bound and listening; it is switched to
    non-blocking.  Dials every [peer_addrs] entry except [self]'s
    (retrying briefly, so standalone nodes may start in any order).
    @raise Invalid_argument if [peer_addrs] doesn't have one entry per
    process. *)

val transport : t -> Transport.t
(** The [Ext]-backend transport protocol layers plug into. *)

val connected : t -> int
(** Number of peers with a live outbound connection. *)

val hung_up : t -> int -> bool
(** Whether peer [p]'s connection to us has ended (EOF or reset) after
    carrying at least one frame: the peer closed its sockets, so its
    event loop is over. *)

val grace_ms : float
(** 250 ms: the longest {!run} waits for [leave] once [stop] has held —
    the cap for a peer that never says Bye because it crashed after its
    barrier announcement or hangs.  A clean run leaves well before it. *)

type exit = {
  why : [ `Left | `Grace | `Deadline ];
      (** [`Left]: [leave] held with every outbound queue flushed;
          [`Grace]: [grace_ms] passed after [stop] first held;
          [`Deadline]: the clock passed [deadline] *)
  linger_ms : float;
      (** from the pass where [stop] first held to the loop's exit; 0 when
          [stop] never held *)
}

val run : t -> deadline:float -> stop:(unit -> bool) -> leave:(unit -> bool) -> exit
(** Loop until the clock passes [deadline] (engine-time ms) or the
    caller is done.  [stop] is polled on every pass until it first holds
    (the node has passed its barrier, or its pid has crashed); from then
    on [leave] is polled on every pass instead, and the loop exits as
    soon as it holds and every outbound queue has drained to the kernel,
    or [grace_ms] after [stop] first held, whichever comes first.
    [leave] may queue frames (a node's Bye): the loop flushes them
    before it exits, and input keeps being processed while it waits. *)

val close : t -> unit

type stats = {
  frames_out : int;
  bytes_out : int;
  writes_out : int;
      (** write(2) calls that moved bytes; [frames_out / writes_out] is
          the outbound coalescing factor *)
  frames_in : int;
  bytes_in : int;
  decode_errors : int;
  timer_wakeups : int;
      (** waits that ended on their timeout with an engine timer armed as
          the wake-up time *)
  oversleep_us_sum : int;
  oversleep_us_max : int;
      (** wall time of waking minus the armed timer's due time, summed and
          maximised over [timer_wakeups] (µs, rounded) *)
}

val stats : t -> stats
