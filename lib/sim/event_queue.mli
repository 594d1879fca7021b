(** Pending-event set of the discrete-event simulator.

    A binary min-heap ordered by (time, sequence number).  The sequence
    number is assigned at insertion, so simultaneous events run in insertion
    order — this is what makes whole simulations deterministic.

    The heap is stored as parallel arrays (times unboxed); {!push} and
    {!pop_run_exn} allocate nothing, so the engine's inner loop is free of
    queue-induced GC pressure. *)

type t

val create : unit -> t

val push : t -> time:Time.t -> (unit -> unit) -> unit
(** Schedule an action.  Scheduling in the past is a programming error.
    @raise Invalid_argument if [time] is NaN. *)

val pop : t -> (Time.t * (unit -> unit)) option
(** Remove and return the earliest event, ties broken by insertion order.
    Allocates the option/tuple; the engine's hot loop uses
    {!min_time_exn}/{!pop_run_exn} instead. *)

val min_time_exn : t -> Time.t
(** Timestamp of the earliest event, without allocating.
    @raise Invalid_argument on an empty queue. *)

val pop_run_exn : t -> unit -> unit
(** Remove the earliest event and return its action, without allocating.
    @raise Invalid_argument on an empty queue. *)

val size : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Drop all pending events (used when aborting a run).  The insertion
    sequence counter is preserved. *)
