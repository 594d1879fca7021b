(** Instance plumbing shared by the consensus stacks ({!Ct}, {!Mr}, {!Lb}):
    everything around the rounds of Algorithms 2 and 3 — the instance
    tables, joining on the first message, deciding and telling the
    processes the stack names, the [rcv] check, the announce path,
    [propose] and the one send path.  A stack keeps its round state in
    the instance's [st] field and passes its steps to these functions as
    arguments.

    {b Outbox.}  Every consensus send made inside one {e step} of a
    process — a transport-handler call, a suspicion callback (or LB's
    trust callback) or [propose], nested steps included — is queued, and
    leaves when the outermost step returns: one frame per destination,
    the destination's only payload as is or several as one {!Bundle},
    whose receiver handles them in send order.  Destinations leave in the
    order they were first queued, those the sender suspects after every
    other (DESIGN.md section 5). *)

module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Failure_detector = Ics_fd.Failure_detector

val layer : string
(** The transport layer every consensus stack runs on: ["consensus"]. *)

val decide_bytes : Proposal.t -> int
(** Exact encoded body size of every stack's [Decide] payload. *)

type Message.payload += Bundle of Message.payload list
(** The payloads one step queued for one destination, in send order. *)

val register_codec : unit -> unit
(** [Bundle]'s codec (tag [0x2F]): a u32 count, then each payload through
    the registry with its own tag. *)

type config = {
  rcv : Consensus_intf.rcv option;
      (** [None]: the stack's original algorithm (on messages, and the
          {e faulty} consensus on raw identifiers).  [Some rcv]: its
          indirect variant, which guards adoption with [rcv]; each [rcv]
          evaluation also charges its CPU cost
          ({!Ics_net.Host.rcv_check_cost}). *)
}

type create =
  ?announce:Time.t ->
  Transport.t -> Failure_detector.t -> config -> Consensus_intf.callbacks ->
  Consensus_intf.handle
(** The constructor of a coordinator-driven stack ({!Ct}, {!Mr}).

    [announce] (default: off) is a delay, in ms.  A proposer that is not
    the round-1 coordinator waits that long after its proposal; if the
    instance is still undecided there and the coordinator's round-1
    proposal has not reached it, it tells every other process about the
    instance (CT sends its round-1 estimate, MR a [Nudge] carrying it),
    and each receiver that does not hold the instance joins on it.
    Required for termination when instance proposers are chosen by
    batching / pipelining: the coordinator may never propose the
    instance itself, or may have crashed, and a round-1 non-coordinator
    is otherwise silent until the coordinator speaks.  A coordinator
    that proposes within the delay makes the announce unnecessary, and
    none is sent.  Off by default so unbatched traffic, and the pinned
    replay fingerprints, stay byte-identical.  {!Lb} has no such switch:
    its [Kick] announces every instance. *)

type 'a inst = {
  k : int;
  mutable estimate : Proposal.t;  (** once decided, the decision *)
  mutable decided : bool;
  mutable told : Pid.t list;
      (** once decided, the processes known to hold the decision: those
          this process sent its [Decide] to, and the one it got its own
          [Decide] from *)
  st : 'a;  (** the stack's round state *)
}

type 'a t
(** The instance tables of all [n] processes of one handle. *)

val create :
  ?sent:(Message.payload -> unit) ->
  Transport.t -> Failure_detector.t -> config -> Consensus_intf.callbacks ->
  fresh:(unit -> 'a) -> settle:('a -> unit) ->
  decide:(int -> Proposal.t -> Message.payload) -> 'a t
(** [fresh ()] is a new instance's round state.  [settle st] clears the
    round state of an instance that has just decided, before its
    [Decide] is queued.  [decide k v] is the stack's [Decide] payload.
    [sent payload] (default: nothing) runs once per payload queued for
    another process. *)

val step : 'a t -> Pid.t -> (unit -> unit) -> unit
(** [step t p f] runs [f] as a step of [p]: sends [f] makes at [p] are
    queued, and leave when the outermost step open at [p] returns. *)

val send : 'a t -> src:Pid.t -> dst:Pid.t -> body_bytes:int -> Message.payload -> unit
(** Queue one payload; outside any step it leaves at once. *)

val multicast :
  'a t -> src:Pid.t -> dsts:Pid.t list -> body_bytes:int -> Message.payload -> unit
(** {!send} to each destination in order. *)

val send_to_all : 'a t -> src:Pid.t -> body_bytes:int -> Message.payload -> unit
(** {!multicast} to every process, [src] included. *)

val find_or_add : ('k, 'v) Hashtbl.t -> 'k -> ('a -> 'v) -> 'a -> 'v
(** [find_or_add tbl key make x]: the value bound to [key], bound to
    [make x] first if absent (as in [find_or_add tbl r ref \[\]]). *)

val rcv_holds : 'a t -> Pid.t -> Proposal.t -> bool
(** The paper's [rcv] on a value's ids, charging its CPU cost to the
    process; always true, and free, in the original variant. *)

val get_inst : 'a t -> start:(Pid.t -> 'a inst -> unit) -> Pid.t -> int -> 'a inst
(** The process's instance [k]; a process that does not hold it yet joins
    with [cb.join] and runs [start] (its first round) on it. *)

val join_announced :
  'a t -> start:(Pid.t -> 'a inst -> unit) -> Pid.t -> int -> Proposal.t -> 'a inst
(** [get_inst] for the announce path: a process learns of instance [k]
    from a proposer's announced estimate.  An empty join value is
    replaced by that estimate, so a process with nothing fresh of its own
    does not propose, and the instance does not decide, an empty set
    while the announced ids wait.  The receivers' [rcv] guards still
    protect No loss although the joiner may not hold those payloads
    yet. *)

val find : 'a t -> Pid.t -> int -> 'a inst option
(** The process's instance [k], if it holds it; never joins. *)

val decide : ?src:Pid.t -> 'a t -> Pid.t -> int -> Proposal.t -> tell:Pid.t list -> unit
(** The one decision entry point: the process decides [v] in instance [k]
    (a no-op once decided), on its own rounds or on a [Decide] from [src].
    A process that does not hold the instance adopts the decision without
    running any round.  It settles the round state, queues [Decide] for
    each process of [tell], in order, records [Trace.Decide] and calls
    [cb.on_decide].  [told] becomes [tell], plus [src].  The stack says
    whom to tell: MR and LB flood (every other process, and on a relay
    every other process but [src]), CT tells nobody. *)

val flood : ?src:Pid.t -> 'a t -> Pid.t -> Pid.t list
(** The [tell] of a flooding stack (R-broadcast of the decision): every
    process but [p] and [src]. *)

val tell : 'a t -> Pid.t -> 'a inst -> Pid.t list -> int
(** A decided process sends one [Decide] to each process of the list that
    it has not told yet (itself excluded), and marks it told.  Returns
    how many it sent. *)

val iter : 'a t -> Pid.t -> ('a inst -> unit) -> unit
(** The process's instances in ascending [k]. *)

val handle :
  'a t ->
  name:string ->
  on_message:(Pid.t -> src:Pid.t -> Message.payload -> unit) ->
  on_suspect:(Pid.t -> Pid.t -> unit) ->
  start:(Pid.t -> 'a inst -> unit) ->
  announce:(Time.t * (src:Pid.t -> dsts:Pid.t list -> 'a inst -> unit)) option ->
  counters:(unit -> (string * int) list) ->
  Consensus_intf.handle
(** Installs every process's transport handler and suspicion callback,
    each call one step, and returns the stack's handle, named [name], or
    [name ^ "-indirect"] when [config.rcv] is set.  The handler runs
    [on_message p ~src] on a frame's payload, or on each payload of a
    {!Bundle} in order.  [propose] is a no-op at a crashed process or one
    that holds the instance already; otherwise it is a step that creates
    the instance and runs [start].  With [announce = Some (delay, f)], a
    proposer that is not the round-1 coordinator and has not decided arms
    a one-shot timer [delay] after the proposal (at once when that moment
    lies past the run's horizon); if the process is alive and the
    instance undecided when it fires, a step calls [f] with [dsts] =
    every other process, and [f] announces unless the coordinator's
    round-1 proposal has reached it.  The handle's counters are
    [counters ()] followed by [frames]: the consensus frames sent to
    other processes. *)
