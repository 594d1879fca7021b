(** Chandra–Toueg ◇S consensus (original and indirect — Algorithm 2).

    The algorithm proceeds in asynchronous rounds with a rotating
    coordinator and requires a majority of correct processes ([f < n/2]).
    Round [r] at process [p]:

    + {e Phase 1} (if [r > 1]): [p] sends its timestamped estimate to the
      round's coordinator, flagged when [p] left round [r-1] on
      suspecting that round's coordinator.
    + {e Phase 2} (coordinator): in round 1 the coordinator proposes its own
      estimate to all (including itself); in later rounds it gathers
      estimates from ⌈(n+1)/2⌉ distinct senders.  Once that many are
      stamped [r-1] their value is locked (each sender adopted round
      [r-1]'s one proposal after [rcv] held), and the coordinator decides
      it at once, proposing nothing; its decision skips round [r-1]'s
      coordinator unless it holds that coordinator's round-[r] estimate.
      Otherwise it proposes one with the largest timestamp to itself and
      the senders of the estimates it holds, recording the proposal so
      that a round-[r] estimate arriving later — even after it has left
      round [r] — is answered with it.
    + {e Phase 3}: [p] waits for the coordinator's proposal or a suspicion
      from its failure detector.  On a proposal: the {b original} variant
      always adopts it (estimate ← proposal, timestamp ← r) and acks; the
      {b indirect} variant first evaluates [rcv] on the proposal and nacks
      without adopting when payloads are missing (Algorithm 2 lines
      25–30) — the coordinator's selected value ({e estimate_c}) thus stays
      distinct from each process's own estimate ({e estimate_p}).  On a
      suspicion: nack.  Non-coordinators then move to round [r+1].  A
      non-coordinator that receives a flagged round-[r+1] estimate (its
      sender suspected this round's coordinator) nacks round [r] and
      enters [r+1] ({e catch-up}); it never skips a round.
    + {e Phase 4} (coordinator): wait for ⌈(n+1)/2⌉ acks (then R-broadcast
      the decision), or move to round [r+1] once a majority of acks is out
      of reach (nacks and suspected silent repliers).

    Its sends leave through the {!Instances} outbox: one frame per
    destination per step, frames for suspected processes last, so nacks
    to a suspected coordinator leave after the next round's sends.

    With [announce] (batched / pipelined runs), a round-1 non-coordinator
    proposer that has not received round 1's proposal [announce] ms after
    its own proposal sends its round-1 estimate to every other process,
    whatever round it is in by then; a process that receives a round-1
    estimate for an instance it does not hold joins on it
    ({!Instances.join_announced}).  A coordinator that proposes in time
    is sent no announce.

    Decisions are disseminated by flooding ("R-broadcast the decide
    message"), so a coordinator crash after deciding cannot block anyone.
    A process that a locked decision skipped and that later sends the
    decider a round message gets one [Decide] back ({!Instances.answer}).

    The handle's counters, summed over its processes:
    - [decisions.round1], [decisions.round2], [decisions.round3+]:
      decisions a coordinator reached on a majority of acks, by round;
    - [decisions.locked]: decisions on a locked majority of estimates;
    - [nacks]: phase-3 nacks sent;
    - [catch_ups]: rounds left on a peer's flagged next-round estimate;
    - [answers]: decisions sent by the answer rule (0 without faults);
    - [sent.est.r1] (the announce), [sent.est.r2+], [sent.prop.r1],
      [sent.prop.r2+], [sent.ack], [sent.decide]: payloads queued for
      another process, by kind and round;
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
