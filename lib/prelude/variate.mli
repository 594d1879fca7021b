(** Random variates used by workload generators and network models. *)

val exponential : Rng.t -> mean:float -> float
(** [exponential rng ~mean] draws from an exponential distribution with the
    given mean (inter-arrival times of a Poisson process).
    @raise Invalid_argument if [mean <= 0]. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  @raise Invalid_argument if [hi < lo]. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller (one value per call; the pair's twin is
    discarded to keep the stream aligned across refactors). *)
