(** One process's workload, backend-neutral: which workload it runs, its
    schedule from [warmup_ms] on, its hosted KV machine ({!App_host}) and
    the deliveries that complete it.  A simulated run installs one per
    pid on the shared transport, a live node its own. *)

module Pid = Ics_sim.Pid
module App_msg = Ics_net.App_msg

type kind =
  | Slots  (** every process A-broadcasts [count] messages, [gap_ms] apart *)
  | Round_robin
      (** the chaos sweep's [count] slots in all: slot [i] from pid
          [i mod n], the first 1 ms in, then at seeded 2–6 ms spacing;
          with the app hosted ([App_host.Ride]) slot [i] carries command
          (client = [i], req = 0) *)
  | Sessions  (** the hosted app's closed-loop clients ([App_host.Service]) *)

val kind : Profile.t -> round_robin:bool -> kind
(** [Round_robin] when asked for, else [Sessions] iff the app is hosted. *)

val expected : Profile.t -> kind -> int
(** Deliveries each process waits for; for [Sessions], applied commands. *)

type t

val create : Profile.t -> kind -> self:Pid.t -> seed:int64 -> t
(** [seed] is the run seed the round-robin spacing derives from. *)

val install : ?ramp_ms:float -> t -> Ics_net.Transport.t -> abcast:Abcast.t -> unit
(** Install the app host when the profile has one, and schedule the
    workload; [Sessions] starts are staggered over [ramp_ms] (default
    200). *)

val on_deliver : t -> App_msg.t -> unit
(** Feed every A-delivery at this process. *)

val complete : t -> bool
(** {!expected} deliveries seen, or for [Sessions] every command
    applied. *)

val delivered : t -> int
val host : t -> App_host.t option
