(** One replica's application plane, backend-neutral.

    Owns the replica's {!Ics_app.Machine}, the ["app"] wire layer (the
    redirect-to-proposer submit handler), and — in [Service] mode — the
    closed-loop {!Ics_app.Session}s of the clients homed on this
    replica.  All ambient capabilities come through the transport's
    {!Ics_net.Env} seam, so the same code hosts the machine in the
    simulator and in a live node process. *)

module Pid = Ics_sim.Pid
module App_msg = Ics_net.App_msg

type mode =
  | Service  (** closed-loop sessions drive the workload *)
  | Ride
      (** the machine rides an externally scheduled workload (the chaos
          sweep's blob-stamped broadcasts); each of the [count] workload
          slots stands in for a one-request client — open-loop schedules
          get no per-client FIFO promise, so longer histories would risk
          false gap probes — and there are no sessions *)

type t

val install :
  Ics_net.Transport.t ->
  abcast:Abcast.t ->
  profile:Profile.t ->
  self:Pid.t ->
  mode:mode ->
  t
(** Registers the ["app"] layer handler for [self] on the transport. *)

val body_bytes : Profile.t -> int
(** The profile's payload size, floored at the 8 bytes a blob needs. *)

val start : t -> at:Ics_sim.Time.t -> over_ms:float -> unit
(** Schedule the sessions' first submissions ([Service] mode; no-op
    otherwise), staggered across [over_ms]. *)

val on_deliver : t -> App_msg.t -> unit
(** Feed every A-delivery at this replica. *)

val complete : t -> bool
(** The whole workload has taken effect at this replica. *)

val sessions_done : t -> bool
