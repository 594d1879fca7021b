module Rng = Ics_prelude.Rng

(** The discrete-event simulation engine.

    An engine owns the virtual clock, the pending-event queue, the crash
    state of the [n] simulated processes, the execution trace, and one
    deterministic random stream per process.  Protocol layers never touch
    the queue directly: they schedule closures via {!schedule}/{!after} and
    guard process-local work with {!alive_guard} so that a crashed process
    stops taking steps (crash-stop model, no Byzantine behaviour — §2.1 of
    the paper). *)

type t

val create : ?seed:int64 -> ?trace:[ `On | `Off ] -> n:int -> unit -> t
(** [create ~n ()] builds an engine for processes [0 .. n-1].  [seed]
    defaults to [1L]; equal seeds give bitwise-identical runs.

    [trace] (default [`On]) controls event recording: with [`Off] every
    {!record} call is a no-op, so experiments that never run the checker
    skip all trace allocation.  Tracing never affects scheduling — a run
    is bit-identical with tracing on or off.
    @raise Invalid_argument if [n <= 0]. *)

val n : t -> int
val now : t -> Time.t

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Schedule an action at an absolute time.  Actions scheduled at the same
    time run in scheduling order.  Scheduling before [now] is clamped to
    [now] (zero-delay events are legal and common). *)

val after : t -> delay:Time.t -> (unit -> unit) -> unit
(** [after t ~delay f] is [schedule t ~at:(now t + delay) f].  Negative
    delays are a programming error.
    @raise Invalid_argument on negative delay. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Execute pending events in timestamp order until the queue is empty, the
    optional horizon [until] is passed (events strictly later than [until]
    stay queued and [now] advances to [until]), [max_events] have run, or
    {!stop} is called.

    Passing [until] also records it as the engine's {!horizon}; a later
    [run] without [until] keeps the previous horizon (so it can drain
    leftovers and return), while a new [until] replaces it. *)

val horizon : t -> Time.t option
(** The most recent [until] passed to {!run}, if any.  Self-rearming timer
    loops (heartbeat failure detectors, retransmission channels) consult it
    to stop rescheduling once their next firing would fall beyond it —
    without this, such loops keep the event queue non-empty forever and a
    horizon-less {!run} never returns. *)

val set_horizon : t -> Time.t option -> unit
(** Set the horizon without running anything.  The live runtime pins it
    once to the real-clock deadline of the run so self-rearming timer
    loops know when to retire, then drives events with {!run_due}. *)

val next_due : t -> Time.t option
(** Timestamp of the earliest queued event — the live loop's select
    timeout. *)

val run_due : t -> upto:Time.t -> unit
(** Execute every queued event with timestamp [<= upto] and advance the
    virtual clock to [upto].  Unlike {!run}, the horizon is untouched:
    in a live run the virtual clock is the real monotonic clock, and
    [upto] is simply "now". *)

val advance : t -> upto:Time.t -> unit
(** Advance the virtual clock to [upto] (never backwards) without running
    any queued event.  The live socket loop calls this as it decodes each
    inbound frame: handler work triggered by the frame then records trace
    events at (close to) the real arrival time instead of the loop
    iteration's start time, which can be seconds stale when the process
    was descheduled and a large input backlog is drained in one burst. *)

val step : t -> bool
(** Run the single earliest event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued events. *)

val events_executed : t -> int
(** Total events executed since creation (across all {!run}/{!step}
    calls); the denominator of the perf harness's events/sec metric. *)

val stop : t -> unit
(** Make {!run} return after the current event; the queue is preserved. *)

(** {1 Crash-stop faults} *)

val crash : t -> Pid.t -> unit
(** Crash a process now: records a {!Trace.Crash} event, marks it dead, and
    fires the crash hooks.  Idempotent. *)

val crash_at : t -> Pid.t -> at:Time.t -> unit
(** Schedule a crash. *)

val is_alive : t -> Pid.t -> bool

val correct : t -> Pid.t list
(** Processes currently alive. *)

val on_crash : t -> (Pid.t -> unit) -> unit
(** Register a hook called (at crash time) for every crash; used by oracle
    failure detectors and by network models that drop a crashed process's
    queued sends. *)

val alive_guard : t -> Pid.t -> (unit -> unit) -> unit -> unit
(** [alive_guard t p f] wraps [f] so it becomes a no-op once [p] has
    crashed.  Every handler of process [p] must be wrapped. *)

(** {1 Randomness, tracing} *)

val rng : t -> Pid.t -> Rng.t
(** The process-local random stream. *)

val trace : t -> Trace.t
(** The event log.  Empty for the whole run when tracing is [`Off]. *)

val tracing : t -> bool
(** Whether {!record} actually records. *)

val record : t -> Pid.t -> Trace.kind -> unit
(** Append to the trace at the current virtual time; no-op when tracing
    is [`Off]. *)
