(** Leader-based (Paxos-style) consensus — original and indirect.

    The paper notes (§3.2.2) that the rcv-guard it adds to Chandra–Toueg
    mirrors mechanisms in Paxos [Lamport 98] and PBFT [Castro–Liskov 99].
    This module makes that remark concrete: a classic single-decree
    ballot-voting algorithm driven by an Ω leader estimate (derived from
    the same failure detector the other algorithms use), in both the
    original form and an indirect form with the acceptance guard.

    Ballot [b] is owned by process [b mod n].  The leader of ballot [b]
    (a process that believes itself leader per {!Ics_fd.Failure_detector.leader}):

    + {e Prepare} (skipped for ballot 0, like CT's round-1 shortcut):
      asks all processes to promise ballot [b]; a promise carries the
      highest value the process has accepted so far.
    + On a majority of promises, the leader picks the accepted value with
      the highest ballot (or its own estimate if none) and sends
      {e Accept(b, v)}.
    + A process accepts [(b, v)] if it has not promised a higher ballot —
      and, in the {b indirect} variant, only if [rcv(v)] holds; otherwise
      it nacks (without disturbing its promise state), exactly the
      "don't vouch for payloads you don't hold" rule of Algorithm 2.
    + On a majority of accepts the leader R-broadcasts the decision; on
      any nack it retries with its next ballot ([b + n]).

    Safety is ballot-voting safety (two majorities intersect), so both
    variants keep [f < n/2].  The indirect variant satisfies No loss: a
    decided [v] was accepted by a majority, each member of which held
    [msgs(v)] when accepting — the configuration is v-stable.

    Liveness needs Ω to converge (eventual accuracy of the underlying
    detector): dueling leaders nack each other's ballots but a uniquely
    trusted leader eventually runs a ballot high enough to win. *)

module Transport = Ics_net.Transport
module Failure_detector = Ics_fd.Failure_detector

val create :
  Transport.t -> Failure_detector.t -> Instances.config -> Consensus_intf.callbacks ->
  Consensus_intf.handle
(** [config.rcv = None]: plain ballot voting; [Some rcv]: the indirect
    variant. *)

val register_codec : unit -> unit
(** Register this layer's payload codecs with {!Ics_codec.Codec}
    (idempotent); {!Ics_core.Codecs.ensure} calls every layer's. *)
