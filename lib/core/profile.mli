(** The one description of a stack's shape and workload.

    Before this module, the stack shape (process count, consensus
    algorithm, ordering mode, broadcast flavour) and the live workload
    knobs were duplicated across [Stack.config], [Node.config] and three
    hand-rolled flag groups in the CLI.  A [Profile.t] is the single
    record all of them consume: {!Stack.assemble} reads the shape,
    the live runtime ([Node], [Cluster]) reads shape + workload, the
    chaos sweep's live backend forwards one to each forked node, and the
    CLI builds its cmdliner terms generically from {!specs}. *)

type algo = Ct | Mr | Lb

type broadcast_kind =
  | Flood  (** reliable broadcast, O(n²) messages *)
  | Fd_relay  (** reliable broadcast, O(n) messages in good runs *)
  | Uniform  (** uniform reliable broadcast, O(n²), 2 steps *)
  | Ring  (** successor-to-successor chain, O(n); crash-free runs only *)

type app_kind =
  | No_app  (** content-free payloads (the seed workloads) *)
  | Kv  (** the {!Ics_app} accounts/KV machine rides every A-delivery *)

type t = {
  n : int;
  algo : algo;
  ordering : Abcast.ordering;
  broadcast : broadcast_kind;
  batch : int;  (** fresh ids that trigger a consensus proposal *)
  pipeline : int;  (** concurrent consensus instances *)
  flush_ms : float;  (** batch flush timer *)
  count : int;  (** A-broadcasts per node (live workload) *)
  body_bytes : int;
  gap_ms : float;  (** spacing between one node's A-broadcasts *)
  warmup_ms : float;  (** clock time before the first A-broadcast *)
  hb_period_ms : float;
  hb_timeout_ms : float;
  deadline_ms : float;  (** hard stop for a live run *)
  app : app_kind;
  clients : int;  (** total client sessions across the cluster *)
  requests : int;  (** commands per client (closed loop) *)
  app_seed : int;  (** command-derivation seed, independent of the run seed *)
  hash_every : int;  (** applies between state-hash trace events *)
  retry_ms : float;  (** client retry window (linear backoff base) *)
}

val default : t
(** n = 3, CT, indirect consensus, flood RB, no batching
    (batch = pipeline = 1); 20 × 128 B messages per node at 5 ms gaps
    after a 150 ms warm-up; 25/120 ms heartbeats; 10 s deadline. *)

val batching : t -> Abcast.batching
(** The {!Abcast.batching} knobs of this profile. *)

(** {1 Canonical names}

    The vocabulary shared by the CLI, [to_args] and every report that
    prints a stack shape. *)

val algos : (string * algo) list
val orderings : (string * Abcast.ordering) list
val broadcasts : (string * broadcast_kind) list
val apps : (string * app_kind) list
val algo_to_string : algo -> string
val ordering_to_string : Abcast.ordering -> string
val broadcast_to_string : broadcast_kind -> string

val describe : t -> string
(** e.g. ["ct/indirect/flood n=3"]. *)

(** {1 The flag table} *)

type spec = {
  keys : string list;  (** flag names; the head is canonical *)
  docv : string;
  doc : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
  samples : string list;
      (** canonical values the flag round-trips ([set] then [get] yields
          the sample back) — derived by the spec constructors, consumed
          by the table-driven round-trip test *)
}

val stack_specs : spec list
(** Shape flags: [--n]/[--nodes], [--algo], [--ordering],
    [--broadcast]/[--dissemination], [--batch], [--pipeline], [--flush]. *)

val workload_specs : spec list
(** Live workload flags: [--count], [--size], [--gap], [--warmup],
    [--hb-period], [--hb-timeout], [--timeout] (seconds). *)

val app_specs : spec list
(** Application-plane flags: [--app], [--clients], [--requests],
    [--app-seed], [--hash-every], [--retry]. *)

val specs : spec list
(** [stack_specs @ workload_specs @ app_specs]. *)

val set : t -> key:string -> value:string -> (t, string) result
(** Apply one flag by name (any name in a spec's [keys]). *)

val to_args : t -> string list
(** Render as [--key=value] tokens covering every spec — the argv a
    cluster parent hands to a forked [node] child.  Floats are printed
    so that [of_args (to_args p) = Ok p] exactly. *)

val of_args : ?base:t -> string list -> (t, string) result
(** Parse [--key=value] or [--key value] tokens over [base] (default
    {!default}).  Unknown flags and malformed values are errors. *)
