(** Reliable broadcast by flooding — the O(n²) algorithm of Chandra &
    Toueg [2].

    To R-broadcast [m], the origin sends [m] to all other processes and
    delivers it locally.  On the first receipt of [m], a process relays it
    to every process other than itself and the origin, then delivers.  Each
    broadcast thus costs [(n-1) + (n-1)(n-2) = O(n²)] messages but a single
    communication step of delivery latency in good runs.

    {b Send order.}  Only the order of one step's sends differs from the
    textbook algorithm, never what is sent.  The origin's copies leave
    at once: they are on the critical path.  A relay is {e held}
    ({!Ics_net.Transport.hold}): the local delivery runs first, and what
    it sends to the origin (say, a coordinator's proposal) leaves ahead
    of the relays, which then leave at the end of the step.  Anything the
    delivery sends to a relay's destination waits behind that relay, so
    on every link a payload still travels ahead of anything its delivery
    triggers.  The origin's copies and the relays both go to the
    processes the sender suspects last.

    Properties (all proved by the relay-on-first-receipt structure, assuming
    reliable channels and crash-stop faults): Validity, Uniform integrity,
    and Agreement — if a {e correct} process delivers [m], every correct
    process eventually delivers [m].  Note the agreement is {e not} uniform:
    a process that delivers [m] and crashes before relaying may be the only
    one that ever saw [m].  That gap is precisely what breaks atomic
    broadcast when consensus runs on raw identifiers (§2.2). *)

val layer : string
(** Transport layer name, ["rb"]. *)

val create :
  Ics_net.Transport.t ->
  fd:Ics_fd.Failure_detector.t ->
  deliver:Broadcast_intf.deliver ->
  Broadcast_intf.handle
(** Installs handlers for every process.  [deliver] is called exactly once
    per (alive process, message), in a zero-time event after receipt.
    [fd] only orders sends: a copy for a process the sender suspects
    leaves after every other copy. *)

val register_codec : unit -> unit
(** Register this layer's payload codecs with {!Ics_codec.Codec}
    (idempotent); {!Ics_core.Codecs.ensure} calls every layer's. *)
