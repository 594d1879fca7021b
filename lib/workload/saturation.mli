(** Offered-load saturation sweep: the knee curves that [ics_cli bench]
    and [make saturation-smoke] print.  [ics_cli bench] is the one driver
    of the sweep on either backend.

    One {!point} is one run of one {!Profile.t} — the stack shape and
    payload size the CLI parsed — at one offered load, with the full
    checker battery on (every point is correctness-gated, not just
    timed, and a dirty point is reported, never rerun).  A curve is the
    list of points of one sweep over increasing offered loads on one
    backend; {!knee} picks the fastest point that is still healthy —
    checker-green and finished cleanly — which is the saturation
    throughput the bench reports.

    Sim points run the Poisson open-loop {!Experiment} on Setup 2; live
    points run a real loopback {!Ics_runtime.Cluster} with a fixed-rate
    arrival window derived from the offered load ([gap_ms = n/offered],
    [count = offered * window / n] per node). *)

module Stats = Ics_prelude.Stats
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
}

val p99_bound_ms : float
(** p99 latency above which a point counts as saturated (100 ms, DESIGN.md
    §12).  Both backends drain their whole backlog, so achieved throughput
    tracks offered load even past capacity and the latency tail is the
    honest overload signal. *)

val healthy : point -> bool
(** [checker_ok && clean && p99 <= p99_bound_ms] (a point with no
    latency samples passes the bound), on both backends. *)

val status : point -> string
(** ["ok"] when {!healthy}, ["overload (checker ok)"] when only the
    bound or the clean finish failed, ["CHECKER FAIL"] otherwise. *)

val knee : point list -> point option
(** The fastest {!healthy} point; falls back to the fastest point
    overall when no point is healthy, [None] on an empty curve. *)

val pp_curve : Format.formatter -> point list -> unit
(** A blank line, the per-point table (offered, achieved, latency
    percentiles, utilization, {!status}), a blank line and the {!knee}
    line; no trailing newline. *)

val sim_curve : ?seed:int64 -> ?duration_ms:float -> Profile.t -> float list -> point list
(** One simulated point per offered load (msg/s) on the profile's
    {!Run.setup2} config: [duration_ms] (default 4 s) of Poisson
    arrivals of [body_bytes] payloads, the first quarter (at most 1 s)
    warm-up. *)

val live_curve : ?seed:int64 -> ?duration_ms:float -> Profile.t -> float list -> point list
(** One live cluster run of the profile per offered load, its
    [body_bytes] sent at even gaps for [duration_ms] (default 2 s) of
    arrivals, then up to 10 s to drain to the delivery barrier; an
    overloaded run surfaces as [clean = false].  Points whose environment
    probe failed are dropped, so the curve may be empty in socketless
    sandboxes. *)

val sim_fingerprint : ?seed:int64 -> ?offered:float -> ?duration_ms:float -> Profile.t -> string
(** Digest of the full event trace of one deterministic fixed-rate sim
    run of the profile's saturation cell (32 B payloads, 10 ms warm-up,
    whatever the profile says) — the fingerprint {!Run.replay} checks. *)
