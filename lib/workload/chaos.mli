(** Seeded chaos sweep: protocol stacks × fault plans × seeds × backends.

    Each run builds a full stack, installs the cell's fault plan on its
    transport with {!Ics_faults.Nemesis.install} (optionally healed by
    the {!Ics_net.Retransmit} channel), injects a small deterministic
    workload, runs to quiescence and validates the trace with
    {!Checker.check_all_abcast}.  On the [`Sim] backend everything — fault
    plan, fault decisions, workload timing — is a pure function of the
    run's seed, so any failure the sweep prints is replayable
    bit-identically from the seed alone ({!run_one} with equal arguments
    gives an equal {!result.fingerprint}).

    The [`Live] backend runs the same cell as a forked loopback-TCP
    cluster ({!Ics_runtime.Cluster}): each node installs the same
    generated plan under the same plan seed through the same
    {!Ics_faults.Nemesis.install}, so the k-th frame on a link draws the
    same fault decision on both backends; the per-node traces are merged
    and judged by the same full checker battery.  Live scheduling is
    real, so which frame is the k-th on a link — and hence the trace
    fingerprint — is not deterministic there.

    The sweep's purpose is asymmetric: the indirect-consensus stacks must
    stay clean under every plan, while the known-faulty consensus-on-ids
    stack is expected to produce violations (the [blackout] plan is §2.2 of
    the paper expressed as a fault plan — and must fail on real sockets
    exactly as it does in simulation).

    {!sweep_results} is the one sweep entry point: [ics_cli chaos] and
    the benchmark both run it and keep what they need of each cell.  A
    live cell is one {!Run.live} run, never retried. *)

module Time = Ics_sim.Time
module Nemesis = Ics_faults.Nemesis
module Checker = Ics_checker.Checker

type backend = [ `Sim | `Live ]

val backend_name : backend -> string

type stack_kind =
  | Ct_indirect  (** Chandra–Toueg, indirect consensus, n = 3 *)
  | Mr_indirect  (** Mostéfaoui–Raynal, indirect consensus, n = 5 *)
  | Ct_on_ids  (** the faulty legacy stack (consensus on bare ids), n = 3 *)

val stack_name : stack_kind -> string
val stack_of_string : string -> stack_kind option
val all_stacks : stack_kind list
val default_n : stack_kind -> int

type plan_kind =
  | Drop  (** uniform per-message loss, p ∈ [0.05, 0.25) *)
  | Dup  (** per-message duplication, p ∈ [0.10, 0.30) *)
  | Reorder  (** random extra delay, so later messages overtake *)
  | Partition  (** random two-group split, healed after 15–40 ms *)
  | Storm  (** one random crash plus background loss *)
  | Blackout
      (** §2.2: origin 0's rb payloads suppressed entirely, origin crashes
          at t = 10 ms — undetectable by retransmission *)
  | Mixed  (** mild drop + dup + delay + brief isolation of p0 *)

val plan_name : plan_kind -> string
val plan_of_string : string -> plan_kind option
val all_plans : plan_kind list

val gen_plan : plan_kind -> n:int -> seed:int64 -> Nemesis.plan
(** Deterministic in (kind, n, seed) — the replay contract. *)

type result = {
  backend : backend;
  stack : stack_kind;
  plan_kind : plan_kind;
  n : int;
  seed : int64;
  batching : Ics_core.Abcast.batching;
  app : bool;
  retransmit : bool;
  plan : Nemesis.plan;
  verdict : Checker.verdict;
  quiescent : bool;  (** did the event queue drain before the horizon *)
  faults : (string * int) list;  (** nemesis counters, {!Stack.fault_counters} format *)
  retx : (string * int) list;  (** retransmission-channel counters; [[]] without it *)
  fingerprint : string;  (** digest of the rendered trace — replay witness;
                             [""] on the live backend (not deterministic) *)
}

val passed : result -> bool
(** Clean verdict and quiescent.  On [`Live], "quiescent" means every
    node exited on its own — via the delivery barrier or its deadline —
    rather than crashing or being killed. *)

val run_one :
  ?backend:backend ->
  ?batching:Ics_core.Abcast.batching ->
  ?app:bool ->
  ?retransmit:bool ->
  ?n:int ->
  stack_kind ->
  plan_kind ->
  seed:int64 ->
  result
(** One run.  [batching] (default {!Ics_core.Abcast.no_batching})
    configures the abcast layer's batch/pipeline knobs on either backend —
    the batch=1/pipeline=1 default reproduces the pre-batching runs
    bit-identically.  [app] (default false) hosts the replicated KV
    machine on the same broadcasts ({!Ics_core.App_host} in [Ride] mode:
    slot [i] is one-request client [i]) and adds the application battery
    to the verdict — a cell where ordered commands never take effect then
    fails semantically, not just at the message level.  [retransmit]
    (default true) heals the faulted wire with the acknowledged
    retransmission channel, installed outermost by
    {!Ics_faults.Nemesis.install} on either backend; [n] defaults per
    stack ({!default_n}).
    @raise Failure on [`Live] when {!Ics_runtime.Cluster.supported} is
    false. *)

val replay_hint : result -> string
(** The exact CLI invocation that reproduces this run: every cell
    parameter that differs from the CLI's default — [-n], the batching
    knobs, [--app], [--no-retransmit], [--live] — is spelled out. *)

type cell = {
  c_stack : stack_kind;
  c_plan : plan_kind;
  runs : int;
  failures : result list;  (** chronological; empty for a clean cell *)
}

val sweep_results :
  ?backend:backend ->
  ?batching:Ics_core.Abcast.batching ->
  ?app:bool ->
  ?retransmit:bool ->
  ?n:int ->
  ?seed_base:int64 ->
  ?seeds:int ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  stacks:stack_kind list ->
  plans:plan_kind list ->
  unit ->
  (cell * result list) list
(** Run [seeds] seeds ([seed_base + i]) for every stack × plan pair on
    the chosen backend (default [`Sim]).  Each cell comes with {e every}
    run's result in seed order, not just its failures: the jobs
    determinism fence compares complete fingerprint sets across
    widths.

    [jobs] (default 1) runs that many cells concurrently on OCaml 5
    domains ({!Domain_pool}).  Each cell's engine stays strictly
    single-domain; cells are merged in stack × plan order after every
    domain joins, so the returned cells and results — fingerprints,
    matrix, the {!indirect_clean}/{!blackout_reproduced} gates — are
    bit-identical to a [jobs = 1] sweep.  Only the interleaving of
    [progress] lines varies.  On the [`Live] backend [jobs] is forced to
    1 (live cells fork processes; forking from a spawned domain is not
    safe). *)

val matrix_table : cell list -> Ics_prelude.Table.t
(** Pass/runs per (plan, stack).  A failing cell reads [FAIL], or
    [FAIL (termination)] when every failing run drained and its only
    violation is [consensus.termination] (an instance left open: a
    liveness gap rather than a safety failure).
    The sweep's exit criteria count both alike. *)

val report : ?verbose:bool -> Format.formatter -> cell list -> unit
(** The pass/fail matrix, then per failing cell the failing plan, seed,
    violations and replay command (first failure only unless [verbose]). *)

val indirect_clean : cell list -> bool
(** True when every indirect-stack cell is failure-free — the sweep's
    pass/fail exit criterion ([Ct_on_ids] cells are allowed, and expected,
    to fail). *)

val blackout_reproduced : cell list -> bool
(** True when every [Ct_on_ids] × [Blackout] cell in the sweep has at
    least one failing seed (vacuously true when none is present).  The
    complementary exit criterion: a §2.2 cell that {e passes} means the
    fault plane or the checker has stopped seeing the payload loss. *)

type mismatch = {
  m_stack : stack_kind;
  m_plan : plan_kind;
  m_seed : int64;
  m_first : string;  (** fingerprint of the first run *)
  m_second : string;  (** fingerprint of the rerun — differs from [m_first] *)
}

val replay_check :
  ?batching:Ics_core.Abcast.batching ->
  ?app:bool ->
  ?retransmit:bool ->
  ?n:int ->
  ?seed_base:int64 ->
  ?jobs:int ->
  stacks:stack_kind list ->
  plans:plan_kind list ->
  unit ->
  mismatch list
(** The determinism gate behind {!replay_hint}: rerun one seed
    ([seed_base], default 1) for every stack × plan pair and compare trace
    fingerprints between the two runs.  Empty means every cell replayed
    bit-identically; any {!mismatch} is ambient nondeterminism (unordered
    iteration, real clock, un-threaded RNG) leaking into the simulation and
    invalidates every replay command the sweep prints.

    [jobs] (default 1) checks that many cells concurrently
    ({!Domain_pool}); both runs of a given cell stay on one domain, and
    mismatches are reported in stack × plan order regardless of [jobs]. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
