(** The plumbing every workload point shares, written once.

    Chaos, saturation and service each run points on two backends.  What
    differs between them is the {!Node.config} a point runs and the rule
    for a good point; what they share lives here: the Setup-2 stack
    config of a {!Profile.t}, one runner per backend for the same
    {!Node.config} — {!sim} and {!live}, each installing the per-process
    {!Ics_core.Workload} and running the point once — and the run-twice
    replay check. *)

module Time = Ics_sim.Time
module Stack = Ics_core.Stack
module Workload = Ics_core.Workload
module Checker = Ics_checker.Checker
module Profile = Ics_core.Profile
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

val setup2 : Profile.t -> Stack.config
(** The Setup 2 (1 Gb/s switched, P4 hosts) stack config of [profile]'s
    shape ({!Stack.config_of_profile}). *)

val live_profile : Profile.t -> window_ms:float -> Profile.t
(** The profile of a measured live point: a 400 ms connection warm-up,
    a hard deadline [window_ms] after it, and a 2 s heartbeat timeout
    (a measured point injects no faults, so a false suspicion would
    measure the detector, not the stack). *)

val live : Node.config -> (Cluster.outcome, string) result
(** One cluster run of [node] with the full checker battery
    ([check = `All]).  [Error reason] only when the environment cannot
    run sockets; a dirty run is returned as it is, never rerun. *)

(** A finished simulated run; [faults] and [retx] are [[]] without a
    plan. *)
type sim = {
  stack : Stack.t;
  loads : Workload.t array;  (** indexed by pid *)
  run : Checker.Run.t;
  verdict : Checker.verdict;
  quiescent : bool;  (** the event queue drained before the horizon *)
  faults : (string * int) list;
  retx : (string * int) list;
}

val sim :
  ?ramp_ms:float ->
  setup:Stack.setup ->
  fd:Stack.fd_kind ->
  horizon:Time.t ->
  Node.config ->
  sim
(** The simulated twin of {!live}: the stack [node]'s profile describes,
    seeded with [node.seed], on [setup] with the [fd] detector; [node]'s
    plan ({!Node.install_plan}) and the workload a live node of [node]
    runs, on every pid; run to [horizon] and judged with
    {!Cluster.judge} [`All].  [self] is ignored. *)

val replay : (unit -> string) -> (string, string * string) result
(** Compute the fingerprint twice; [Ok fingerprint] iff both runs agree,
    [Error (first, second)] otherwise. *)
