(** Benchmark workloads and the experiment runner.

    The paper's workload (§4.2) is symmetric: all [n] processes A-broadcast
    messages of a fixed size at the same rate; the global rate is the
    throughput.  Arrivals are Poisson (exponential inter-arrival times).
    The metric is the {e latency}: the elapsed time between abroadcast(m)
    and adeliver(m), averaged over all processes and all messages in the
    measurement window. *)

module Time = Ics_sim.Time
module Stats = Ics_prelude.Stats
module Stack = Ics_core.Stack

type load = {
  throughput : float;  (** global abroadcast rate, messages per second *)
  body_bytes : int;  (** payload size of every message *)
  duration : Time.t;  (** arrivals stop after this much virtual time *)
  warmup : Time.t;  (** messages created before this are not measured *)
}

type result = {
  latency : Stats.summary;  (** per (message, process) delivery latency, ms *)
  measured : int;  (** latency samples collected *)
  abroadcasts : int;  (** messages injected (including unmeasured ones) *)
  sent_messages : int;  (** transport-level messages *)
  sent_bytes : int;  (** transport-level wire bytes *)
  quiescent : bool;  (** did the run drain all events before the horizon *)
  wall_clock : Time.t;  (** virtual time at the end of the run *)
  events : int;  (** simulator events executed (perf-harness denominator) *)
  verdict : Ics_checker.Checker.verdict option;  (** when run with [~check:true] *)
  utilization : (string * float) list;
      (** busy-time fraction per resource (CPUs, links) over the run *)
  per_layer : (string * int * int) list;
      (** traffic decomposition: (layer, messages, wire bytes) *)
  consensus : (string * int) list;
      (** consensus round counters ({!Ics_core.Abcast.consensus_counters}) *)
}

val run :
  ?check:bool -> ?seed:int64 -> ?prepare:(Stack.t -> unit) -> Stack.config -> load -> result
(** Run one configuration under one load.  [prepare] (default no-op) runs
    on the freshly built stack before any arrival is scheduled — e.g. to
    install a fault plan on its transport.  The simulation runs until all
    events drain or a horizon of [duration + 60 s] passes.  With
    [~check:true] the full trace is validated with
    {!Ics_checker.Checker.check_all_abcast} (expensive — test-sized runs
    only); without it, trace recording is switched off (the config's
    [trace] field is overridden either way; scheduling is identical). *)

val run_seeds : ?check:bool -> seeds:int64 list -> Stack.config -> load -> result
(** Like {!run} but pooling latency samples over several seeds; counts are
    summed ([per_layer] layer by layer), [utilization] is each resource's
    mean over the seeds, [quiescent] is the conjunction, and the verdict
    is the merge. *)
