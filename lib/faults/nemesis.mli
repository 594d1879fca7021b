(** Composable, seeded fault injection, installed as transport
    middleware.

    A {e plan} is a list of declarative fault clauses — probabilistic
    per-link drop/duplicate/delay, deterministic slowdown windows,
    symmetric partitions with scheduled heal, per-process isolation, and
    scheduled crashes.  {!install} compiles a plan into outbound
    middleware on a {!Ics_net.Transport.t}, simulated or live: every
    remote send consults the plan, random choices come from per-(src, dst)
    streams derived from [seed] (same seed + same plan + same per-link
    message sequence ⇒ identical faults, on either backend), every
    injected fault is recorded in the trace ({!Trace.Net_drop},
    {!Trace.Net_dup}, {!Trace.Net_delay}, {!Trace.Partition_start}/[_heal])
    and counted in the returned {!Model.Fault_stats}.

    The nemesis models a {e fair-lossy} environment: it may lose, duplicate,
    reorder (via random extra delay) and slow messages, but it never
    corrupts them and never forges them.  [~retransmit:true] layers the
    {!Ics_net.Retransmit} channel over it to recover the quasi-reliable
    channels the protocol stack assumes. *)

module Time = Ics_sim.Time
module Pid = Ics_sim.Pid
module Model = Ics_net.Model

(** {1 Plan grammar} *)

type window = { from_t : Time.t; until_t : Time.t }
(** Half-open activity interval [\[from_t, until_t)] in virtual time. *)

val always : window
val window : from_t:Time.t -> until_t:Time.t -> window
val in_window : window -> Time.t -> bool

type link = {
  l_src : Pid.t option;  (** [None] matches any sender *)
  l_dst : Pid.t option;  (** [None] matches any receiver *)
  l_layer : string option;  (** [None] matches any protocol layer *)
}
(** A link selector; unspecified fields are wildcards. *)

val any_link : link
val link_matches : link -> Ics_net.Message.t -> bool

type clause =
  | Drop of { link : link; prob : float; window : window }
      (** lose each matching message independently with probability [prob] *)
  | Duplicate of { link : link; prob : float; window : window }
      (** deliver each matching message twice with probability [prob] *)
  | Delay of { link : link; prob : float; max_extra : Time.t; window : window }
      (** add uniform extra latency in [\[0, max_extra)] with probability
          [prob] — the reordering fault, since other traffic overtakes *)
  | Slow of { link : link; extra : Time.t; window : window }
      (** add fixed extra latency to every matching message (degraded-link
          window) *)
  | Partition of { groups : Pid.t list list; window : window }
      (** cut every link between different groups for the window; the heal
          is the window's end.  Pids absent from all groups are unaffected
          (asymmetric partitions come from {!Isolate}) *)
  | Isolate of { pid : Pid.t; inbound : bool; outbound : bool; window : window }
      (** cut [pid]'s inbound and/or outbound links — [outbound]-only is an
          asymmetric partition: the victim hears everyone but nobody hears
          it *)
  | Crash of { pid : Pid.t; at : Time.t }
      (** schedule a crash-stop failure (on a live node, only when [pid]
          is the node itself) *)

type plan = clause list

val pp_window : Format.formatter -> window -> unit
val pp_link : Format.formatter -> link -> unit
val pp_clause : Format.formatter -> clause -> unit
val pp_plan : Format.formatter -> plan -> unit

val plan_to_string : plan -> string
(** Compact one-line rendering, printed by the chaos sweep for replay. *)

val shift : plan -> by:Time.t -> plan
(** Shift every window and crash time later by [by] (open-ended windows
    stay open).  The live runtime uses this to move a plan authored in
    run-relative time past its warm-up/connect phase.
    @raise Invalid_argument on negative [by]. *)

(** {1 Installing a plan} *)

val install :
  ?self:Pid.t ->
  Ics_net.Transport.t ->
  seed:int64 ->
  plan:plan ->
  retransmit:bool ->
  Model.Fault_stats.t * Ics_net.Retransmit.channel option
(** Compile [plan] into fault middleware on the transport and, when
    [retransmit] is set, install the {!Ics_net.Retransmit} channel
    outermost — the fault plane's one layering rule, so every retry and
    ack traverses the faults.  Returns the fault counters and the channel
    ([None] without [retransmit]).

    Probabilistic clauses draw from a per-(src, dst) RNG stream derived
    from [seed], in fixed plan order per message.  Per-link streams are
    what make the two backends agree: the k-th message on a link sees the
    same drop/dup/delay decisions whether all links run in one simulated
    process or each live node only observes its own outbound links — so a
    seeded plan produces identical {!Model.Fault_stats} counters on both.
    [self] scopes side effects for a live node: [Crash] clauses fire only
    for [self], and partition trace markers are emitted only by node 0
    ([None] keeps whole-cluster behaviour for the sim backend).  Clause
    scheduling, trace recording and crash delivery all go through the
    transport's {!Ics_net.Env}, never through a concrete engine, so
    install after any {!Ics_net.Transport.set_env}. *)
