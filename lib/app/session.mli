(** Closed-loop client sessions, hosted on their home replica.

    Client [c] is homed on replica [c mod n].  A session submits request
    [r], waits for the home replica's machine to apply [(c, r)], then
    submits [r+1] — repeat until [requests] commands are done.  Retries
    rotate the proposer through the ring with linear backoff; the state
    machine's watermark dedup makes retried commands exactly-once in
    effect.  All timers are horizon-guarded so faulted runs quiesce. *)

module Time = Ics_sim.Time

type host = {
  now : unit -> Time.t;
  schedule : at:Time.t -> (unit -> unit) -> unit;
  beyond_horizon : at:Time.t -> bool;
  alive : unit -> bool;
  submit : proposer:int -> client:int -> req:int -> unit;
  record_submit : client:int -> req:int -> unit;
}

type t

val create :
  host -> n:int -> home:int -> clients:int -> requests:int -> retry_ms:float -> t
(** Sessions for every client [c < clients] with [c mod n = home]. *)

val start : t -> at:Time.t -> over_ms:float -> unit
(** Schedule each session's first submission, staggered across [over_ms]. *)

val on_applied : t -> client:int -> req:int -> unit
(** Feed every application at this replica; foreign clients are ignored. *)

val count : t -> int
val all_done : t -> bool
