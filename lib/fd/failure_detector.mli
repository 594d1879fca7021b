(** Unreliable failure detectors.

    The consensus algorithms of the paper are built on the class ◇S
    (eventually strong): eventually every crashed process is permanently
    suspected by every correct process (strong completeness) and eventually
    some correct process is never suspected (eventual weak accuracy).
    Before that "eventually", a detector may be arbitrarily wrong.

    Three implementations:
    - {!oracle}: a simulation-level eventually-perfect detector — observers
      learn of a crash a fixed delay after it happens and never suspect
      falsely.  ◇P ⊆ ◇S, so every algorithm requiring ◇S is happy; good
      runs carry no detector traffic, matching the paper's failure-free
      benchmark configuration.
    - {!heartbeat}: a message-based detector (periodic heartbeats + timeout)
      that loads the network and can suspect falsely under congestion —
      only eventually accurate, exactly ◇S-flavoured reality.
    - {!manual}: suspicion state driven explicitly by a test, used to build
      the adversarial executions of §3.3.2. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time

type t

val is_suspected : t -> by:Pid.t -> Pid.t -> bool
(** Does observer [by] currently suspect the target? *)

val suspected_last : t -> by:Pid.t -> Pid.t list -> Pid.t list
(** The list with the processes [by] suspects moved behind the others,
    each part in its given order: the order a process sends to when a
    live peer's copy must not wait on the CPU behind bytes for a
    process that may be dead. *)

val on_suspect : t -> observer:Pid.t -> (Pid.t -> unit) -> unit
(** Persistent subscription: the callback fires each time [observer] starts
    suspecting some process.  Multiple subscribers are all notified, in
    registration order. *)

val on_trust : t -> observer:Pid.t -> (Pid.t -> unit) -> unit
(** Fires when a previously suspected process is trusted again (possible
    with {!heartbeat} and {!manual} only). *)

val leader : t -> observer:Pid.t -> Pid.t
(** The Ω-style leader estimate derived from the suspicion matrix: the
    lowest-numbered process the observer does not suspect (falling back to
    the observer itself — a process never suspects itself).  With an
    eventually accurate detector all correct observers eventually agree on
    the lowest-numbered correct process. *)

val oracle : Engine.t -> detection_delay:Time.t -> t
(** Perfect, crash-driven detector: a crash at time [t] is reported to every
    alive observer at [t + detection_delay].  No false suspicions, no
    network traffic. *)

val heartbeat : Ics_net.Transport.t -> period:Time.t -> timeout:Time.t -> t
(** Periodic heartbeats on layer ["fd"].  An observer suspects a target
    exactly [timeout] after the last heartbeat it received from it: each
    check is armed at that deadline and re-armed when a fresher heartbeat
    moves it.  A late heartbeat restores trust.  [timeout] should
    comfortably exceed [period] plus worst-case latency to avoid false
    suspicions in good runs.

    The emit/check loops stop rescheduling once their next firing would
    fall past {!Engine.horizon} (or after {!stop}), so a run with a
    heartbeat detector still quiesces; an observer also retires a target's
    check loop once the target is dead {e and} suspected (settled under
    crash-stop).
    @raise Invalid_argument if [period <= 0] or [timeout <= period]. *)

val stop : t -> unit
(** Retire the detector's timer loops (heartbeat emission and deadline
    checks stop rescheduling).  Suspicion state freezes; {!oracle} and
    {!manual} detectors have no timers and are unaffected. *)

(** Handle to drive a {!manual} detector from a test. *)
module Control : sig
  type fd := t
  type t

  val suspect : t -> observer:Pid.t -> Pid.t -> unit
  (** Make [observer] suspect the target (fires subscriptions). *)

  val trust : t -> observer:Pid.t -> Pid.t -> unit
  val suspect_everywhere : t -> Pid.t -> unit
  (** All observers suspect the target. *)

  val fd : t -> fd
end

val manual : Engine.t -> Control.t
(** A detector whose output is entirely test-driven; initially nobody
    suspects anybody. *)

val register_codec : unit -> unit
(** Register this layer's payload codecs with {!Ics_codec.Codec}
    (idempotent); {!Ics_core.Codecs.ensure} calls every layer's. *)
