(** Fork-and-check driver: a real [n]-node cluster over loopback TCP.

    The parent pre-binds one listener per node on [127.0.0.1:0] (so a
    child's dial can never race an unbound port), spawns [n] children
    that each run {!Node.run} for one pid, reaps them against the run
    deadline, merges the per-node delivery logs, and replays the
    existing {!Ics_checker.Checker} over the merged trace.  Live runs
    are not deterministic — the checker is the oracle (with one seeded
    exception: fault counters, which are a per-link deterministic
    function of the plan seed and sum to the simulated totals).

    Children are forked by default; [`Exec exe] spawns [exe node ...]
    processes instead, passing the whole configuration through
    {!Ics_core.Profile.to_args} — the same flag vocabulary a human uses
    to drive a cluster by hand. *)

module Checker = Ics_checker.Checker

type spawn =
  [ `Fork  (** fork this process; config passes by inheritance *)
  | `Exec of string
    (** spawn [exe node ...] children; config passes through
        [Profile.to_args] — plain workloads only (no fault plan) *) ]

type config = {
  node : Node.config;  (** [self] is ignored; each child gets its own *)
  dir : string option;  (** where per-node trace files go (default: temp) *)
  keep_dir : bool;  (** keep trace files after a successful run *)
  spawn : spawn;
  check : [ `By_ordering | `All ];
      (** [`By_ordering] (default) judges indirect stacks with the full
          battery ({!Checker.check_all_abcast}) and the §2.1/§2.2
          baselines with atomic broadcast alone — matching what each
          ordering claims.  [`All] forces the full battery regardless:
          chaos sweeps use it so a live cell fails for exactly the same
          property a simulated cell does (e.g. the ct-on-ids blackout
          loses payloads, which only {!Checker.check_no_loss} sees). *)
}

val default : config

type outcome = {
  verdict : Checker.verdict;
  delivered_per_node : int array;
  expected_per_node : int;
  exits : int array;  (** per-node exit codes (0 = clean barrier exit) *)
  duration_ms : float;  (** first abroadcast to last adelivery, merged clock *)
  latency : Ics_prelude.Stats.summary option;
      (** abroadcast → adelivery in ms, all (msg, node) pairs *)
  app_latency : Ics_prelude.Stats.summary option;
      (** client-visible: App_submit to App_applied at the client's home
          replica; [None] when no app is hosted (or nothing applied) *)
  app_hash : (int * int64) option;
      (** deepest state-hash event of the run: (applied cursor, hash) —
          comparable bit-for-bit against a simulated run of the same
          workload once both are complete *)
  throughput_msg_s : float;  (** distinct messages ordered per second *)
  events : int;  (** merged trace size *)
  faults : (string * int) list;
      (** per-node fault counters summed; for a seeded plan these equal
          the counters one simulation of the same plan produces *)
  retx : (string * int) list;  (** wire retransmission counters, summed *)
  consensus : (string * int) list;
      (** consensus round counters ({!Ics_core.Abcast.consensus_counters}),
          summed over the nodes *)
  leaves : (Node.leave * int) list;
      (** how many nodes left by each reason ({!Node.leaves} order); nodes
          that wrote no stats file are not counted *)
  linger_ms : float;
      (** barrier-to-exit linger ({!Node.result}[.linger_ms]), summed over
          the nodes *)
  trace_dir : string;
}

val ok : outcome -> bool
(** Checker verdict passed and every node exited via the done barrier. *)

val judge :
  check:[ `By_ordering | `All ] ->
  Ics_core.Profile.t ->
  Checker.Run.t ->
  Checker.verdict
(** The abcast battery [check] picks, plus {!Checker.check_app} when
    [profile] hosts the app. *)

val app_hash : Checker.Run.t -> (int * int64) option
(** The deepest state-hash event of a run: (applied cursor, hash). *)

val measure :
  Ics_sim.Trace.event list ->
  float * Ics_prelude.Stats.summary option * Ics_prelude.Stats.summary option * float
(** [(duration_ms, latency, app_latency, throughput_msg_s)] digest of a
    merged trace.  Both latency summaries are [None] — never a summary
    of an empty sample list — when the trace holds no deliveries
    (resp. no applied client commands). *)

val supported : unit -> bool
(** Whether this environment can create and bind loopback TCP sockets
    (some sandboxes cannot; callers should skip gracefully). *)

val run : config -> (outcome, string) result
(** [Error reason] only when the environment cannot run sockets at all;
    protocol failures surface in the outcome's verdict and exit codes.
    @raise Invalid_argument on [`Exec] spawn with a non-empty fault
    plan (the [node] argv carries no plan vocabulary). *)
