(** Closed-loop service workload: the client-plane bench behind
    BENCH_PR8.json and [make service-smoke].

    One {!point} runs [clients] closed-loop sessions, each submitting
    [requests] commands to the replicated KV/ledger machine through the
    full broadcast stack, and reports the {e client-visible} latency
    (submit → applied at the client's home replica).  Every point is
    gated by the full abcast checker battery plus the application
    battery — probe outcomes, exactly-once dedup, per-client order,
    state-hash agreement across replicas, and progress.

    Sim points assemble a {!Ics_core.Stack} with one
    {!Ics_core.App_host} per replica; live points run a real loopback
    {!Ics_runtime.Cluster} whose nodes host the same App_host code via
    the Env seam.  Per seed, the final state hash must be bit-identical
    across backends ({!hash_match}). *)

module Stats = Ics_prelude.Stats
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile

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

val sim_point :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?batching:Abcast.batching ->
  ?app_seed:int ->
  ?hash_every:int ->
  ?retry_ms:float ->
  ?ramp_ms:float ->
  ?horizon_ms:float ->
  n:int ->
  clients:int ->
  requests:int ->
  unit ->
  point
(** One simulated service point on Setup 2.  Sessions start staggered
    over [ramp_ms] (default 1 s); the run ends when the event queue
    drains or at [horizon_ms] (default 120 s virtual). *)

val live_point :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?batching:Abcast.batching ->
  ?app_seed:int ->
  ?hash_every:int ->
  ?retry_ms:float ->
  ?deadline_ms:float ->
  ?attempts:int ->
  n:int ->
  clients:int ->
  requests:int ->
  unit ->
  (point, string) result
(** One live cluster point.  [Error reason] only when the environment
    cannot run sockets; a run that misses the barrier surfaces as
    [clean = false].  Runs on the same {!Run.setup2} config and app
    profile as {!sim_point}; [attempts] (default 1) reruns a point that
    is not checker- and barrier-clean best-of-k ({!Run.live}). *)

val sim_fingerprint :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?batching:Abcast.batching ->
  ?clients:int ->
  ?requests:int ->
  n:int ->
  unit ->
  string
(** Digest of the full event trace of one deterministic sim run of the
    service cell — sessions, retries and state hashes included. *)

val replay_check :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?batching:Abcast.batching ->
  ?clients:int ->
  ?requests:int ->
  n:int ->
  unit ->
  (string, string * string) result
(** Run the cell twice; [Ok fingerprint] iff both traces are
    bit-identical ([Error (first, second)] otherwise). *)
