(** Point-to-point message transport over a network model.

    A transport glues the engine, a {!Host} CPU profile and a {!Model}
    together and dispatches incoming messages to per-(process, layer)
    handlers.  All channels are reliable and FIFO: messages are never lost
    (unless a {!Model.scripted} rule drops them or a process crashes) and
    are delivered in send order per channel.

    Layer names are interned ({!intern}) to dense integer ids; protocols
    obtain their {!Layer.t} token once at construction, and every
    per-message operation — handler dispatch, per-layer accounting — is an
    array index, never a string hash.

    Message path: sender CPU (serialize) → network model → receiver CPU
    (deserialize) → handler.  Local messages skip the network and cost
    {!Host.t.local_delivery} on the process's own CPU.

    Crash semantics (crash-stop): a message still queued on a crashed
    sender's CPU never reaches the wire; a message already on the wire is
    delivered, but a crashed destination discards it. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Resource = Ics_sim.Resource

type t

val create : Engine.t -> model:Model.t -> host:Host.t -> t
(** The simulated backend: all [n] processes in one address space, with
    modeled CPUs and the given network model between them. *)

val create_ext :
  Engine.t -> ?host:Host.t -> self:Pid.t -> emit:(Message.t -> unit) -> unit -> t
(** The live backend: this transport embodies the single process [self].
    Remote sends are handed (synchronously) to [emit] — the socket
    runtime encodes and ships them — and received frames re-enter via
    {!inject}.  Sends whose [src] is not [self] are dropped: protocol
    layers instantiate all [n] processes, but only [self] is real here.
    [host] (default {!Host.instant}) only affects the [rcv]-check
    accounting; live CPU time charges itself.
    @raise Invalid_argument if [self] is out of range. *)

val self : t -> Pid.t option
(** The embodied process of a live transport; [None] for simulated. *)

val inject : t -> Message.t -> unit
(** Run a message decoded from the wire through the inbound middleware
    chain and dispatch it to its destination handler (no-op for unknown
    layers, exactly like simulated dispatch). *)

val env : t -> Env.t
(** The backend environment middleware should program against.  Defaults
    to {!Env.of_engine}; the live runtime installs a wall-clock-backed
    variant with {!set_env} before any middleware is built. *)

val set_env : t -> Env.t -> unit

val interpose : t -> ((Message.t -> unit) -> Message.t -> unit) -> unit
(** Install outbound middleware around the raw wire.  The middleware is
    applied once to the current downstream chain (initially the backend's
    raw transmit: the network model for sim, [emit] for live) and must
    return the new send function.  Remote sends traverse the chain after
    sender-side accounting and (sim) serialization; local and self-
    addressed sends bypass it, matching the network model's scope.  The
    last middleware installed is outermost — fault interposers go in
    before the reliability channel so retries traverse the faults, the
    order [Ics_faults.Nemesis.install] fixes. *)

val interpose_inbound : t -> ((Message.t -> unit) -> Message.t -> unit) -> unit
(** Install receive-side middleware around handler dispatch; messages
    arriving from the wire ({!inject}, or a sim model delivery) traverse
    the chain before reaching the destination handler. *)

val engine : t -> Engine.t
val host : t -> Host.t
val n : t -> int

val intern : t -> string -> Layer.t
(** The token for a layer name, minting a fresh dense id on first use.
    Idempotent: equal names give the identical token. *)

val register : t -> Pid.t -> layer:Layer.t -> (Message.t -> unit) -> unit
(** Install the handler for [layer] at process [pid].  The handler runs
    only while the process is alive.
    @raise Invalid_argument if the layer is already registered there. *)

val send :
  t -> src:Pid.t -> dst:Pid.t -> layer:Layer.t -> body_bytes:int -> Message.payload -> unit
(** Send one message.  No-op if [src] has crashed. *)

val hold : t -> Pid.t -> held:(unit -> unit) -> (unit -> unit) -> unit
(** [hold t p ~held f] runs [held ()] then [f ()], as one step of [p].
    The frames [held] sends from [p] are {e held}: they leave when [f]
    returns, after the frames [f] sends to other destinations.  A later
    frame to a held frame's destination waits behind it, so each link
    carries its frames in call order, and only the order across links
    changes; held destinations leave in the order first held.  Holds
    nest: frames wait for the outermost hold at [p] to return.  Frames
    held at a process that crashes meanwhile never leave. *)

val multicast :
  t ->
  src:Pid.t ->
  dsts:Pid.t list ->
  layer:Layer.t ->
  body_bytes:int ->
  Message.payload ->
  unit
(** Unicast to each destination in order (the Neko/Java implementation
    serializes per destination, which is what makes O(n) vs O(n²) message
    complexity matter). *)

val send_to_all : t -> src:Pid.t -> layer:Layer.t -> body_bytes:int -> Message.payload -> unit
(** Multicast to every process including [src] itself. *)

val send_to_others : t -> src:Pid.t -> layer:Layer.t -> body_bytes:int -> Message.payload -> unit
(** Multicast to every process except [src]. *)

val charge_cpu : t -> Pid.t -> Time.t -> unit
(** Occupy [pid]'s CPU for the given service time (protocol-level work such
    as [rcv] checks); subsequently arriving messages queue behind it. *)

val cpu_resource : t -> Pid.t -> Resource.t
val sent_messages : t -> int
(** Total messages accepted for sending (including dropped ones). *)

val sent_bytes : t -> int
(** Total wire bytes accepted for sending. *)

val per_layer_stats : t -> (string * int * int) list
(** Per-layer traffic: (layer, messages, wire bytes), sorted by layer
    name.  Separates broadcast traffic from consensus and detector
    traffic — the decomposition behind the paper's §4.4 analysis. *)
