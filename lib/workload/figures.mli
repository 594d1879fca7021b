(** The paper's evaluation figures as runnable parameter sweeps.

    Each figure panel of §2.1 and §4 (Figures 1, 3–7; Figure 2 is a
    diagram) is described declaratively: the swept axis, the fixed
    parameters, and the algorithm stacks being compared.  Running a figure
    produces a {!Ics_prelude.Table.t} with one row per x-value and one
    latency column per series — the same rows the paper plots.

    Absolute milliseconds depend on the network-model calibration and are
    not expected to match the paper's testbed; the {e shapes} (who wins,
    how gaps scale with size/throughput/n, where saturation sets in) are
    the reproduction target and are recorded in EXPERIMENTS.md. *)

module Table = Ics_prelude.Table
module Stack = Ics_core.Stack

type axis =
  | Message_size of int list  (** sweep payload bytes at fixed throughput *)
  | Throughput of float list  (** sweep msgs/s at fixed payload *)

type series = { label : string; config : Stack.config }

type t = {
  id : string;  (** e.g. ["fig3a"] *)
  title : string;
  axis : axis;
  throughput : float;  (** fixed throughput (for Message_size axes) *)
  body_bytes : int;  (** fixed payload (for Throughput axes) *)
  series : series list;
  paper_shape : string;
      (** the qualitative result the paper reports (an ablation's: the one
          it expects) *)
}

val all : t list
(** Every panel: fig1a fig1b fig3a fig3b fig4a–d fig5a–c fig6a–c fig7a
    fig7b, in paper order. *)

val run :
  ?quick:bool -> ?seed:int64 -> ?seeds:int -> ?progress:(string -> unit) -> t -> Table.t
(** Execute every (series, x) cell.  [quick] shrinks durations by ~4x for
    smoke runs.  [seeds] > 1 pools latency samples over that many
    consecutive seeds starting at [seed].  Cells that saturated (offered
    load exceeded capacity, detected by a non-quiescent run or
    queue-buildup latencies) are suffixed ["*"].  [progress] is called
    with a short line per completed cell.
    @raise Invalid_argument if [seeds < 1]. *)

val load_for : ?quick:bool -> t -> x:float -> Experiment.load
(** The load a given x-value maps to (durations auto-scale so that slow
    sweeps still collect enough samples). *)

val study_load :
  quick:bool -> tput:float -> size:int -> measure_ms:float -> Experiment.load
(** [tput] msg/s of [size]-byte payloads: a fixed 500 ms warmup, then
    [measure_ms] of measured arrivals ([quick] quarters them).  The load
    of the tables below that are not panels, and of {!Claims}. *)

val mr_delivered : seed:int64 -> n:int -> f:int -> int
(** abl-quorum's cell: how many messages process 0 A-delivers when the
    last [f] of [n] MR-indirect processes crash and it then A-broadcasts
    one (1 live, 0 blocked). *)

(** {1 Every table of the evaluation}

    The paper's panels, then the ablations and extensions that DESIGN.md
    §4 indexes and the lossy-link table: abl-network and ext-algo are
    panels of their own; abl-quorum, abl-rb, abl-rcv, ext-scale and lossy
    are tables whose rows are not one latency sweep. *)

type entry = {
  name : string;  (** the id [ics_cli figure] takes *)
  caption : string;  (** what [ics_cli list] prints beside the id *)
  note : string;
      (** the line printed under the table: ["paper: "] and the panel's
          shape, or ["expectation: "] and what the table should show *)
  build :
    quick:bool -> seed:int64 -> seeds:int -> progress:(string -> unit) -> Table.t;
      (** a panel runs as {!run}; any other table runs once at [seed],
          ignoring [seeds] and [progress] *)
}

val registry : entry list
(** The 16 panels of {!all}, then abl-network, abl-quorum, abl-rb,
    abl-rcv, ext-algo, ext-scale and lossy. *)

val find : string -> entry option
(** The {!registry} entry with this id. *)

val ids : unit -> string list
(** Every {!registry} id, in order. *)
