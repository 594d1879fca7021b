(** Chandra–Toueg ◇S consensus (original and indirect — Algorithm 2).

    The algorithm proceeds in asynchronous rounds with a rotating
    coordinator and requires a majority of correct processes ([f < n/2]).
    Round [r] at process [p]:

    + {e Phase 1} (if [r > 1]): [p] sends its timestamped estimate to the
      round's coordinator, flagged when [p] left round [r-1] on
      suspecting that round's coordinator.
    + {e Phase 2} (coordinator): in round 1 the coordinator proposes its own
      estimate to every other process and adopts it, stamped 1, in the
      same step, so its proposal is its ack.  In later rounds it gathers
      estimates from ⌈(n+1)/2⌉ distinct senders, proposes one with the
      largest timestamp to the senders of the estimates it holds, and
      takes its proposal through phase 3 itself.  It records the proposal,
      so that a round-[r] estimate arriving later — even after it has
      left round [r] — is answered with it.
    + {e Phase 3}: [p] waits for the coordinator's proposal or a suspicion
      from its failure detector.  On a proposal: the {b original} variant
      always adopts it (estimate ← proposal, timestamp ← r) and acks; the
      {b indirect} variant first evaluates [rcv] on the proposal and nacks
      without adopting when payloads are missing (Algorithm 2 lines
      25–30) — the coordinator's selected value ({e estimate_c}) thus stays
      distinct from each process's own estimate ({e estimate_p}).  On a
      suspicion: nack.  Acks and nacks go to every other process, and
      carry the sender's estimate: on an ack, the round's proposal.
    + {e Phase 4} (every process): decide round [r]'s value once acks for
      [r] from ⌈(n+1)/2⌉ distinct senders are in, whatever round [p] is in
      by then; the value comes from the proposal or from the acks.  [p]
      leaves round [r] for [r+1] only when it suspects [r]'s coordinator,
      or once a majority of acks is out of reach (the acks plus the silent
      processes it does not suspect fall short of one), nacking [r] if it
      has not replied.  A non-coordinator that receives a flagged
      round-[r+1] estimate while still waiting for round [r]'s proposal
      (its sender suspected this round's coordinator) nacks round [r] and
      enters [r+1] ({e catch-up}); it never skips a round.

    Its sends leave through the {!Instances} outbox: one frame per
    destination per step, frames for suspected processes last, so nacks
    to a suspected coordinator leave after the next round's sends.

    With [announce] (batched / pipelined runs), a round-1 non-coordinator
    proposer that has not received round 1's proposal [announce] ms after
    its own proposal sends its round-1 estimate to every other process,
    whatever round it is in by then; a process that receives a round-1
    estimate, or an ack or nack, for an instance it does not hold joins on
    it, seeded with the estimate it carries where [rcv] holds it
    ({!Instances.join_announced}).  A coordinator that proposes in time is
    sent no announce.

    Decisions are not R-broadcast.  A decided process keeps the quorum it
    decided on (the sender, for a decision it received); once it suspects
    a member of that quorum, and unless it has heard every process ack
    that round, it sends one [Decide] to each process it has not told.
    While the quorum lives, its acks reach every correct process, which
    decides on them.  A decided process also answers a later estimate or
    proposal of the instance with one [Decide].  DESIGN.md section 5
    gives the safety, No loss and termination argument.

    The handle's counters, summed over its processes:
    - [decisions.round1], [decisions.round2], [decisions.round3+]:
      decisions a process reached on a majority of acks, by round (a
      fault-free instance counts one per process);
    - [nacks]: phase-3 nacks sent;
    - [catch_ups]: rounds left on a peer's flagged next-round estimate;
    - [late_props]: recorded proposals sent in answer to a late
      estimate (0 without faults or suspicions; in the chaos sweeps
      it fires under crashes and drops);
    - [answers]: decisions sent in answer to a round message (0 without
      faults);
    - [tells]: decisions sent on suspecting a member of the decision's
      quorum (0 without faults);
    - [sent.est.r1] (the announce), [sent.est.r2+], [sent.prop.r1],
      [sent.prop.r2+], [sent.ack] (acks and nacks), [sent.decide] (the
      answers and tellings): payloads queued for another process, by kind
      and round;
    - [frames]: consensus frames sent to other processes.

    The indirect variant preserves the original resilience [f < n/2]: a
    v-valent configuration requires a majority holding estimate [v], each
    of which either started with [v] (and holds [msgs(v)] by construction
    of the atomic broadcast layer) or passed the [rcv] check — so the
    configuration is v-stable (§3.2.3). *)

val create : Instances.create
(** [config.rcv = None]: the original algorithm, which always adopts (used
    both for consensus on messages and for the {e faulty} consensus on
    raw identifiers); [Some rcv]: Algorithm 2. *)

val register_codec : unit -> unit
(** Register this layer's payload codecs with {!Ics_codec.Codec}
    (idempotent); {!Ics_core.Codecs.ensure} calls every layer's. *)
