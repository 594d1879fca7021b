(** Virtual time.

    The simulator measures time in {e milliseconds} as a float, matching the
    unit the paper reports latencies in.  Sub-microsecond service times are
    representable without loss. *)

type t = float

val zero : t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val compare : t -> t -> int
val max : t -> t -> t
val of_s : float -> t
(** Seconds to milliseconds. *)

val pp : Format.formatter -> t -> unit
(** Renders as [12.345ms]. *)
