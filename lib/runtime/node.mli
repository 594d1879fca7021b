(** One live node: the full protocol stack over the socket transport.

    A node embodies exactly one pid of the [n]-process stack.  The same
    protocol code as the simulator runs unchanged: the engine is the
    timer heap, driven by the real clock; remote sends leave through the
    codec and the TCP mesh.

    Fault plane: when [plan] is non-empty the node hands it, shifted past
    [warmup_ms], to {!Ics_faults.Nemesis.install} (scoped to this node's
    outbound links and its own crash clauses), with the retransmission
    channel unless [retransmit] is off — the same installer, and so the
    same middleware and per-link fault draws, as a simulated chaos
    cell.

    Termination: the node runs the {!Ics_core.Workload} that [profile]
    and [chaos_workload] pick, as a simulated run
    ({!Ics_workload.Run.sim}) does on every pid, and waits for
    {!Ics_core.Workload.expected} deliveries (or applied commands).
    When a node has everything it waits for it announces [Done] on the
    ["ctl"] layer; once every peer has announced too it is past the
    barrier.  From then on it says [Bye] as soon as it holds no
    undecided consensus instance, and it leaves once every peer has said
    Bye — or {!Socket_transport.grace_ms} after the barrier if one never
    does, at [deadline_ms], or when a plan clause crashes its own pid
    (DESIGN.md §8). *)

module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Message = Ics_net.Message
module Nemesis = Ics_faults.Nemesis

type Message.payload +=
  | Done of int
        (** Control-plane completion announcement (the sender's delivery
            count); codec tag [0x48], ["ctl.done"]. *)
  | Bye
        (** Past the barrier with no undecided consensus instance: the
            sender owes no peer anything more; codec tag [0x49],
            ["ctl.bye"]. *)

val register_codec : unit -> unit

type config = {
  self : int;
  profile : Profile.t;  (** shape + workload; [n] comes from here *)
  seed : int64;  (** cell seed; the chaos schedule derives from it *)
  plan : Nemesis.plan;
      (** run-relative fault plan; shifted past [warmup_ms] internally *)
  plan_seed : int64;
  retransmit : bool;  (** wire retransmission channel when a plan is set *)
  chaos_workload : bool;
      (** replicate the chaos sweep's round-robin schedule instead of the
          every-node-broadcasts-[count] workload *)
}

val default_workload : config
(** [Profile.default] shape and workload, no fault plan. *)

val install_plan :
  ?self:int ->
  Ics_net.Transport.t ->
  config ->
  Ics_net.Retransmit.channel option * (unit -> (string * int) list * (string * int) list)
(** Install [plan] as above, or over a simulated run's whole transport
    without [self]; returns the retransmission channel and a reader of
    the fault and retransmission counters ([[]] where none). *)

(** How a node's event loop ended. *)
type leave =
  | On_bye  (** it held a Bye from every peer *)
  | On_grace  (** a peer never said Bye: the cap after the barrier *)
  | On_deadline  (** the run deadline *)
  | On_crash  (** a plan clause crashed its own pid *)

val leaves : leave list
(** Every reason, in declaration order. *)

val leave_to_string : leave -> string
(** ["bye"], ["grace"], ["deadline"], ["crashed"]: the stats-file names. *)

type result = {
  delivered : int;  (** A-deliveries at this node *)
  expected : int;
  clean_exit : bool;  (** finished via the all-done barrier, not the deadline *)
  leave : leave;
  linger_ms : float;
      (** from the barrier (or own crash) to the loop's exit; 0 when the
          deadline came first *)
  net : Socket_transport.stats;
  faults : (string * int) list;
      (** this node's outbound-link fault counters; summed across a
          cluster they equal the one-simulation counters for the same
          (seed, plan) — the cross-backend parity invariant *)
  retx : (string * int) list;
  consensus : (string * int) list;
      (** this node's consensus round counters
          ({!Ics_core.Abcast.consensus_counters}) *)
  trace : Ics_sim.Trace.t;
}

val result_kv : result -> (string * int) list
(** The leave reason (["leave.<reason>"], 1), the linger (["linger_us"])
    and the fault, retransmission and consensus counters
    (["fault."]/["retx."]/["consensus."] prefixed) as one flat list — the
    stats-file format a {!Cluster} parent sums. *)

val run :
  epoch:float ->
  listen:Unix.file_descr ->
  peer_addrs:Unix.sockaddr array ->
  config ->
  result
(** Run to completion (barrier, deadline, or own-pid crash clause).
    [epoch] must be shared by the whole cluster — virtual time is ms
    since it.  [listen] must already be bound and listening.  The
    returned trace holds this node's own events (filter on [pid = self]
    before writing: the shared protocol code also books foreign-pid
    detector events). *)
