(** Mostéfaoui–Raynal ◇S consensus (original and indirect — Algorithm 3).

    The algorithm proceeds in rounds of two phases with a rotating
    coordinator; in suspicion-free rounds every process can decide within
    two communication steps.

    + {e Phase 1}: the round's coordinator sends its estimate to all.  Every
      other process waits for that value or for a suspicion, then relays to
      everybody what it got: the coordinator's value, or ⊥ on suspicion.
      The {b indirect} variant additionally relays ⊥ when the [rcv] check on
      the coordinator's value fails (Algorithm 3 lines 16–19): a process
      must not vouch for payloads it does not hold.
    + {e Phase 2}: every process waits for a quorum of Phase-1 relays —
      ⌈(n+1)/2⌉ in the original, {b ⌈(2n+1)/3⌉ in the indirect variant}.
      If all are the same value [v], it decides [v] and R-broadcasts the
      decision.  If it saw [v] mixed with ⊥, it adopts [v] — in the
      indirect variant only if it holds [msgs(v)] or saw [v] at least
      ⌈(n+1)/3⌉ times (i.e. from at least one correct payload-holder).
      Then on to the next round.

    The quorum enlargement is the paper's second contribution: §3.3.2 shows
    that with majority quorums no acceptance rule for mixed rounds can
    satisfy both Uniform agreement and No loss, so the indirect variant
    {e loses resilience}: [f < n/3] instead of [f < n/2].  Any two
    ⌈(2n+1)/3⌉ quorums overlap in ⌈(n+1)/3⌉ ≥ f+1 processes, which restores
    both properties (Figure 2).

    The {e naive} adaptation — running the original algorithm on bare
    identifiers — is exactly [create] with [rcv = None] over id proposals;
    the test suite uses it to reproduce the §3.3.2 counterexample. *)

val create : Instances.create
(** [config.rcv = None]: original MR (majority quorums, unconditional
    adoption); [Some rcv]: indirect MR (⌈(2n+1)/3⌉ quorums, guarded
    adoption). *)

val register_codec : unit -> unit
(** Register this layer's payload codecs with {!Ics_codec.Codec}
    (idempotent); {!Ics_core.Codecs.ensure} calls every layer's. *)
