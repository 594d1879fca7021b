(** Common shape of the consensus layers.

    A consensus layer manages a numbered sequence of independent instances
    for all [n] simulated processes.  The user (the atomic broadcast layer)
    proposes into instance [k] and learns decisions through the [on_decide]
    callback; a process that receives an instance-[k] protocol message
    before proposing {e joins} the instance with the proposal returned by
    the [join] callback (necessary for liveness: quorums must include
    processes that have nothing to order yet). *)

module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module Time = Ics_sim.Time

type rcv = Pid.t -> Msg_id.t list -> bool
(** [rcv p ids] tells whether process [p] currently holds the payloads of
    all [ids] — the paper's [rcv] function, supplied by atomic broadcast. *)

type callbacks = {
  on_decide : Pid.t -> int -> Proposal.t -> unit;
      (** [on_decide p k v]: process [p] decides [v] in instance [k].
          Called at most once per (p, k). *)
  join : Pid.t -> int -> Proposal.t;
      (** Initial value for a process dragged into an instance it has not
          proposed in. *)
}

type handle = {
  name : string;
  propose : Pid.t -> int -> Proposal.t -> unit;
      (** Start instance [k] at process [p] with the given initial value.
          No-op if [p] already has the instance or has crashed. *)
  has_instance : Pid.t -> int -> bool;
  undecided : Pid.t -> int;
      (** Instances [p] holds and has not decided yet, in O(1): one more
          when [propose] or a join creates an instance, one less when it
          decides; an instance created by adopting a decision starts
          decided.  Zero means no instance of [p]'s is still open, so
          none still waits on [p]'s replies or, in MR and LB, its
          decision flood. *)
  counters : unit -> (string * int) list;
      (** Protocol counters, as (name, count) pairs: CT reports its
          processes' decisions by round, the nacks, answers and tellings
          it sent and its remote payloads by message kind; every stack
          ends with
          [frames], the consensus frames it sent to other processes (one
          per destination per step, {!Instances}). *)
}
