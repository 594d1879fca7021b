(** The plumbing every workload point shares, written once.

    Chaos, saturation and service each run points on two backends.  What
    differs between them is the workload and the rule for a good point;
    what they share lives here: the Setup-2 stack config a sim point runs
    on (and a live point derives its profile from), the live runner with
    its best-of-k retry, and the run-twice replay check. *)

module Stats = Ics_prelude.Stats
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

val setup2 :
  ?seed:int64 ->
  ?algo:Profile.algo ->
  ?ordering:Abcast.ordering ->
  ?broadcast:Profile.broadcast_kind ->
  ?batching:Abcast.batching ->
  n:int ->
  unit ->
  Stack.config
(** Setup 2 (1 Gb/s switched, P4 hosts) stack config.  Defaults: seed 1,
    CT, indirect consensus, flood, no batching. *)

val live_profile : Profile.t -> window_ms:float -> Profile.t
(** The profile of a measured live point: a 400 ms connection warm-up,
    a hard deadline [window_ms] after it, and a 2 s heartbeat timeout
    (a measured point injects no faults, so a false suspicion would
    measure the detector, not the stack). *)

val live :
  attempts:int ->
  latency:(Cluster.outcome -> Stats.summary option) ->
  stop:(Cluster.outcome -> bool) ->
  Node.config ->
  (Cluster.outcome, string) result
(** Run the cluster with the full checker battery ([check = `All]) up to
    [attempts] times, stopping early once the kept attempt satisfies
    [stop].  The kept attempt is the checker-clean one ({!Cluster.ok}),
    then the one with the lower p99 of [latency].  [Error reason] only
    when the first attempt cannot run sockets; a later environment
    failure keeps what already ran. *)

val replay : (unit -> string) -> (string, string * string) result
(** Compute the fingerprint twice; [Ok fingerprint] iff both runs agree,
    [Error (first, second)] otherwise. *)
