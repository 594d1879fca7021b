(** Fixed-width histograms, used for latency distributions in examples and
    for sanity-checking the PRNG in tests. *)

type t

val create : lo:float -> hi:float -> buckets:int -> t
(** [create ~lo ~hi ~buckets] covers [\[lo, hi)] with [buckets] equal-width
    buckets plus underflow/overflow counters.
    @raise Invalid_argument if [hi <= lo] or [buckets <= 0]. *)

val add : t -> float -> unit
val count : t -> int

val bucket : t -> int -> int
(** Count of the i-th bucket (0-based). @raise Invalid_argument if out of
    range. *)

val underflow : t -> int
val overflow : t -> int

val bucket_bounds : t -> int -> float * float
(** Inclusive-exclusive bounds of the i-th bucket. *)

val pp : Format.formatter -> t -> unit
(** ASCII-art rendering, one line per non-empty bucket. *)
