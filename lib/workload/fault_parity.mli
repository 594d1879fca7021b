(** Cross-backend fault parity probe.

    A fixed workload ({!probes} probes on every directed link of an
    {!n}-process mesh) under a fixed always-on drop + partition {!plan},
    installed as transport middleware by {!Ics_faults.Nemesis.install}
    without retransmission.  Because the middleware draws from
    per-(src, dst) streams seeded only by ({!seed}, link), the k-th probe
    on a link meets the same fate whether all links run in one simulated
    process ({!sim}) or each link's source is a separate OS process (the
    live half lives in the test suite, which forks a loopback cluster
    running {!schedule_sends} per node and compares summed fault counters
    and receipt counts against {!sim}'s). *)

module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Nemesis = Ics_faults.Nemesis

type Message.payload += Probe of int

val register_codec : unit -> unit
val n : int
val probes : int
val seed : int64
val layer_name : string
val plan : Nemesis.plan

val send_time : start:float -> int -> float
(** When slot [k] fires, [start] being the backend's warm-up offset. *)

val schedule_sends :
  Engine.t -> Transport.t -> layer:Ics_net.Layer.t -> start:float -> srcs:int list -> unit
(** Schedule probe [k] on every directed link out of [srcs] at
    [send_time ~start k]. *)

type outcome = {
  received : int array;  (** probe receipts per destination *)
  faults : (string * int) list;
  fingerprint : string;  (** digest of the simulated trace *)
}

val sim : unit -> outcome
(** The simulated half: deterministic in every field — the fingerprint is
    pinned in the codec test suite. *)
