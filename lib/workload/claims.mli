(** The paper's qualitative conclusions as executable assertions.

    EXPERIMENTS.md records shapes by prose; this module pins them down as
    machine-checked claims.  Each claim runs a handful of targeted
    simulations and asserts an inequality the paper states — who wins, how
    a gap moves with throughput/size/n, where liveness ends.  `ics_cli claims`
    prints the claim table; the test suite asserts every claim holds, so a
    regression that silently flips a conclusion (not just a number) fails
    CI. *)

type verdict = {
  id : string;  (** e.g. ["fig3.overhead-grows"] *)
  statement : string;  (** the paper's claim, one line *)
  holds : bool;
  detail : string;  (** the measured numbers behind the verdict *)
}

val verify : ?quick:bool -> ?seed:int64 -> unit -> verdict list
(** Evaluate every claim (a dozen simulations; ~40 s full, ~10 s quick). *)

val pp_verdict : Format.formatter -> verdict -> unit

