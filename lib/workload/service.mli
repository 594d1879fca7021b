(** Closed-loop service workload: the client-plane points that
    [ics_cli service] and [make service-smoke] print, and the benchmark's
    [live-service] workload runs.  [ics_cli service] is the one driver of
    a sim/live point pair.

    One {!point} runs [clients] closed-loop sessions, each submitting
    [requests] commands to the replicated KV/ledger machine through the
    full broadcast stack, and reports the {e client-visible} latency
    (submit → applied at the client's home replica).  Every point is
    gated by the full abcast checker battery plus the application
    battery — probe outcomes, exactly-once dedup, per-client order,
    state-hash agreement across replicas, and progress.

    A point is one run of one {!Ics_runtime.Node.config}: {!Run.sim}
    hosts an {!Ics_core.App_host} per replica on the simulator,
    {!Run.live} runs it once as a loopback {!Ics_runtime.Cluster} whose
    nodes host the same code via the Env seam.  Per seed, the final
    state hash must be bit-identical across backends ({!hash_match}).
    Every point runs CT with indirect consensus, as the paper's stack
    does. *)

module Stats = Ics_prelude.Stats
module Abcast = Ics_core.Abcast

type point = {
  backend : [ `Sim | `Live ];
  n : int;
  clients : int;
  requests : int;
  commands : int;  (** clients * requests, the workload size *)
  achieved : float;  (** distinct commands ordered per second *)
  latency : Stats.summary;  (** client-visible: submit → applied at home *)
  checker_ok : bool;  (** abcast battery + app battery on the trace *)
  clean : bool;
      (** every session completed and every replica applied the whole
          workload (sim); every node exited through the barrier (live) *)
  hash : (int * int64) option;  (** deepest (cursor, state hash) observed *)
}

val hash_match : point -> point -> bool
(** Both points finished their whole workload and landed on the same
    state hash at the full cursor — the sim-vs-live agreement gate. *)

val status : point -> string
(** ["ok"] when checker-green and clean, ["CHECKER FAIL"] when the
    battery failed, ["INCOMPLETE"] when only the workload fell short. *)

val pp_point : Format.formatter -> point -> unit
(** One line: backend, shape, throughput, client p50/p99, {!status} and
    the final (cursor, state hash); no trailing newline. *)

val sim_point :
  ?seed:int64 ->
  ?batching:Abcast.batching ->
  ?app_seed:int ->
  n:int ->
  clients:int ->
  requests:int ->
  unit ->
  point
(** One simulated service point on Setup 2.  Sessions start staggered
    over 1 s; the run ends when the event queue drains or at 120 s
    virtual. *)

val live_point :
  ?seed:int64 ->
  ?batching:Abcast.batching ->
  n:int ->
  clients:int ->
  requests:int ->
  unit ->
  (point, string) result
(** One live cluster run ({!Run.live}).  [Error reason] only when the
    environment cannot run sockets; a run that misses the barrier
    surfaces as [clean = false], the deadline 20 s after connection
    warm-up, and a dirty run is reported, never rerun.  Runs the same
    app profile as {!sim_point} at its default [app_seed]. *)

val sim_fingerprint :
  ?seed:int64 ->
  ?batching:Abcast.batching ->
  ?clients:int ->
  ?requests:int ->
  n:int ->
  unit ->
  string
(** Digest of the full event trace of one deterministic sim run of the
    service cell — sessions, retries and state hashes included; the
    fingerprint {!Run.replay} checks. *)
