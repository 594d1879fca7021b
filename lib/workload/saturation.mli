(** Offered-load saturation sweep: the knee-curve bench behind
    BENCH_PR6.json and [make saturation-smoke].

    One {!point} is one run of a fixed stack shape at one offered load,
    with the full checker battery on (every point is correctness-gated,
    not just timed).  A {!curve} is a sweep of points over increasing
    offered loads on one backend; {!knee} picks the fastest point that
    is still healthy — checker-green and finished cleanly — which is the
    saturation throughput the bench reports.

    Sim points run the Poisson open-loop {!Experiment} on Setup 2; live
    points run a real loopback {!Ics_runtime.Cluster} with a fixed-rate
    arrival window derived from the offered load ([gap_ms = n/offered],
    [count = offered * window / n] per node). *)

module Stats = Ics_prelude.Stats
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile

type point = {
  offered : float;  (** target arrival rate, msg/s cluster-wide *)
  achieved : float;  (** distinct messages ordered per second *)
  latency : Stats.summary;  (** abroadcast -> adelivery, ms *)
  checker_ok : bool;  (** full battery on the (merged) trace *)
  clean : bool;
      (** sim: event queue drained; live: every node exited through the
          delivery barrier (an overloaded point times out instead) *)
  util : float;
      (** busiest resource's utilization over the arrival window (sim
          only; NaN on live, where the barrier timeout is the overload
          signal instead) *)
  delivered : int;  (** (message, process) delivery pairs observed *)
}

type curve = {
  backend : [ `Sim | `Live ];
  n : int;
  batching : Abcast.batching;
  broadcast : Profile.broadcast_kind;
  points : point list;
}

val p99_bound_ms : float
(** p99 latency above which a point counts as saturated (100 ms, DESIGN.md
    §12).  Both backends drain their whole backlog, so achieved throughput
    tracks offered load even past capacity and the latency tail is the
    honest overload signal. *)

val healthy : point -> bool
(** [checker_ok && clean && p99 <= p99_bound_ms] (a point with no
    latency samples passes the bound), on both backends — the live
    best-of-k stops at the first healthy attempt. *)

val status : point -> string
(** ["ok"] when {!healthy}, ["overload (checker ok)"] when only the
    bound or the clean finish failed, ["CHECKER FAIL"] otherwise. *)

val knee : curve -> point option
(** The fastest {!healthy} point; falls back to the fastest point
    overall when no point is healthy, [None] on an empty curve. *)

val sim_point :
  ?seed:int64 ->
  ?body_bytes:int ->
  ?duration_ms:float ->
  config:Stack.config ->
  float ->
  point
(** One simulated point at the given offered load (msg/s); [config]
    comes from {!Run.setup2}. *)

val sim_curve :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?body_bytes:int ->
  ?duration_ms:float ->
  n:int ->
  batching:Abcast.batching ->
  broadcast:Profile.broadcast_kind ->
  float list ->
  curve

val live_point :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?body_bytes:int ->
  ?duration_ms:float ->
  ?drain_ms:float ->
  ?attempts:int ->
  n:int ->
  batching:Abcast.batching ->
  broadcast:Profile.broadcast_kind ->
  float ->
  (point, string) result
(** One live cluster point.  [Error reason] only when the environment
    cannot run sockets; an overloaded run surfaces as [clean = false].
    [attempts] (default 1) reruns an unhealthy point best-of-k
    ({!Run.live}), stopping at the first {!healthy} attempt. *)

val live_curve :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?body_bytes:int ->
  ?duration_ms:float ->
  ?drain_ms:float ->
  ?attempts:int ->
  n:int ->
  batching:Abcast.batching ->
  broadcast:Profile.broadcast_kind ->
  float list ->
  curve
(** Points whose environment probe failed are dropped, so the curve may
    be empty in socketless sandboxes. *)

val sim_fingerprint :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?offered:float ->
  ?duration_ms:float ->
  n:int ->
  batching:Abcast.batching ->
  broadcast:Profile.broadcast_kind ->
  unit ->
  string
(** Digest of the full event trace of one deterministic fixed-rate sim
    run of the saturation cell — the replay-check fingerprint. *)

val replay_check :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?offered:float ->
  ?duration_ms:float ->
  n:int ->
  batching:Abcast.batching ->
  broadcast:Profile.broadcast_kind ->
  unit ->
  (string, string * string) result
(** Run the cell twice; [Ok fingerprint] iff both traces are
    bit-identical ([Error (first, second)] otherwise). *)
