(** Structured execution traces.

    Every protocol layer records its externally visible actions here; the
    checker library replays a trace against the formal properties of the
    abstraction (reliable broadcast, consensus, atomic broadcast).  Events
    carry structural data — {!Msg_id.t} values, instance numbers, pids —
    and are rendered to text only by the pretty-printers, so recording an
    event costs one record allocation and no formatting. *)

type kind =
  | Crash  (** the process stops taking steps *)
  | Exit
      (** the process left the run {e cleanly} (live runtime's delivery
          barrier) — unlike {!Crash} it still counts as correct, but the
          checker must not demand participation in decisions first reached
          after this point *)
  | Abroadcast of Msg_id.t  (** atomic broadcast invoked with this message id *)
  | Adeliver of Msg_id.t  (** atomic broadcast delivery *)
  | Rbroadcast of Msg_id.t  (** reliable broadcast invoked *)
  | Rdeliver of Msg_id.t  (** reliable broadcast delivery *)
  | Urb_broadcast of Msg_id.t  (** uniform reliable broadcast invoked *)
  | Urb_deliver of Msg_id.t  (** uniform reliable broadcast delivery *)
  | Propose of int * Msg_id.t list  (** consensus instance, proposed id set *)
  | Decide of int * Msg_id.t list  (** consensus instance, decided id set *)
  | Suspect of Pid.t  (** failure detector starts suspecting [pid] *)
  | Trust of Pid.t  (** failure detector stops suspecting [pid] *)
  | Net_drop of Pid.t
      (** fault injection lost a message from this process to [pid] *)
  | Net_dup of Pid.t  (** fault injection duplicated a message to [pid] *)
  | Net_delay of Pid.t  (** fault injection delayed a message to [pid] *)
  | Partition_start of string  (** a partition/isolation window opened *)
  | Partition_heal of string  (** the window closed; links flow again *)
  | App_submit of int * int
      (** client session [c] submitted request [r] (recorded at the
          client's home process, first attempt only) *)
  | App_applied of int * int
      (** the replica applied client [c]'s request [r] to its state machine *)
  | App_hash of int * int64
      (** state hash at applied-cursor [c] — replicas at equal cursors
          must carry equal hashes *)
  | App_violation of string  (** a state-machine invariant probe fired *)
  | Note of string  (** free-form, for debugging only *)

type event = { time : Time.t; pid : Pid.t; kind : kind }

type t
(** A mutable, append-only event log backed by a growable array. *)

val create : unit -> t
val record : t -> time:Time.t -> pid:Pid.t -> kind -> unit

val length : t -> int

val get : t -> int -> event
(** [get t i] is the [i]-th event in insertion (= chronological) order.
    @raise Invalid_argument out of bounds. *)

val iter : t -> (event -> unit) -> unit
(** Iterate in chronological order without materializing a list. *)

val events : t -> event list
(** Events in chronological (= insertion) order.  Allocates a fresh list;
    prefer {!iter} on hot paths. *)

val filter : t -> (event -> bool) -> event list
val find_all : t -> pid:Pid.t -> (kind -> bool) -> event list

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** Hex MD5 of the {!pp} rendering: the replay witness every
    deterministic run is compared by.  Two traces share a fingerprint
    exactly when they render identically. *)
