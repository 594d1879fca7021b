(* One description of a protocol stack's shape and workload, shared by
   every consumer that used to keep its own copy: the simulated stack,
   the live node runtime, the cluster forker, the chaos sweep, the bench
   tables and the CLI.  The [specs] table is the single flag parser: it
   drives [of_args]/[to_args] (how a cluster parent passes a profile to
   its forked children) and the CLI's generically-built cmdliner terms. *)

type algo = Ct | Mr | Lb
type broadcast_kind = Flood | Fd_relay | Uniform | Ring
type app_kind = No_app | Kv

type t = {
  n : int;
  algo : algo;
  ordering : Abcast.ordering;
  broadcast : broadcast_kind;
  batch : int;
  pipeline : int;
  flush_ms : float;
  count : int;
  body_bytes : int;
  gap_ms : float;
  warmup_ms : float;
  hb_period_ms : float;
  hb_timeout_ms : float;
  deadline_ms : float;
  app : app_kind;
  clients : int;  (* total client sessions across the cluster *)
  requests : int;  (* commands per client (closed loop) *)
  app_seed : int;  (* command-derivation seed; independent of the run seed *)
  hash_every : int;  (* applies between App_hash trace events *)
  retry_ms : float;  (* client retry window (base of the linear backoff) *)
}

let default =
  {
    n = 3;
    algo = Ct;
    ordering = Abcast.Indirect_consensus;
    broadcast = Flood;
    batch = Abcast.no_batching.Abcast.batch;
    pipeline = Abcast.no_batching.Abcast.pipeline;
    flush_ms = Abcast.no_batching.Abcast.flush_ms;
    count = 20;
    body_bytes = 128;
    gap_ms = 5.0;
    warmup_ms = 150.0;
    hb_period_ms = 25.0;
    hb_timeout_ms = 120.0;
    deadline_ms = 10_000.0;
    app = No_app;
    clients = 12;
    requests = 5;
    app_seed = 42;
    hash_every = 32;
    retry_ms = 500.0;
  }

let batching p =
  { Abcast.batch = p.batch; pipeline = p.pipeline; flush_ms = p.flush_ms }

(* Canonical names.  These strings are the CLI vocabulary and the wire
   format of [to_args]; everything that prints or parses a stack shape
   goes through them. *)

let algos = [ ("ct", Ct); ("mr", Mr); ("lb", Lb) ]

let orderings =
  [
    ("messages", Abcast.Consensus_on_messages);
    ("ids-faulty", Abcast.Consensus_on_ids);
    ("indirect", Abcast.Indirect_consensus);
  ]

let broadcasts =
  [ ("flood", Flood); ("fd-relay", Fd_relay); ("uniform", Uniform); ("ring", Ring) ]

let apps = [ ("none", No_app); ("kv", Kv) ]

let to_name table v =
  fst (List.find (fun (_, v') -> v' = v) table)

let algo_to_string a = to_name algos a
let ordering_to_string o = to_name orderings o
let broadcast_to_string b = to_name broadcasts b

(* ------------------------------------------------------------------ *)
(* The flag table.                                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  keys : string list;  (* flag names; the head is canonical *)
  docv : string;
  doc : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
  samples : string list;
      (* canonical values this flag must round-trip: [set] then [get]
         yields the sample back.  Derived by the constructors below, so
         every new flag is covered by the table-driven round-trip test
         without anyone remembering to extend it. *)
}

let bad key value what =
  Error (Printf.sprintf "--%s: %s is not %s" key value what)

let int_spec ~keys ~doc ?(min = 0) ~get ~put () =
  let key = List.hd keys in
  {
    keys;
    docv = "N";
    doc;
    get = (fun p -> string_of_int (get p));
    set =
      (fun p s ->
        match int_of_string_opt s with
        | Some v when v >= min -> Ok (put p v)
        | _ -> bad key s (Printf.sprintf "an integer >= %d" min));
    samples =
      List.map string_of_int [ min; min + 1; min + 97; (min * 2) + 10_000 ];
  }

(* %.17g round-trips every float through float_of_string exactly. *)
let float_str f = Printf.sprintf "%.17g" f

let float_spec ~keys ~doc ~get ~put () =
  let key = List.hd keys in
  {
    keys;
    docv = "MS";
    doc;
    get = (fun p -> float_str (get p));
    set =
      (fun p s ->
        match float_of_string_opt s with
        | Some v when v >= 0.0 && Float.is_finite v -> Ok (put p v)
        | _ -> bad key s "a non-negative number");
    (* Small binary fractions: exactly representable and exactly
       rescalable by 1000, so get-after-set is string-equal even for
       specs that convert units (e.g. --timeout's seconds <-> ms). *)
    samples = List.map float_str [ 0.0; 0.125; 12.5; 437.5 ];
  }

let enum_spec ~keys ~doc ~table ~get ~put () =
  let key = List.hd keys in
  let vocabulary = String.concat ", " (List.map fst table) in
  {
    keys;
    docv = "KIND";
    doc = Printf.sprintf "%s ($(docv): %s)" doc vocabulary;
    get = (fun p -> to_name table (get p));
    set =
      (fun p s ->
        match List.assoc_opt s table with
        | Some v -> Ok (put p v)
        | None -> bad key s ("one of " ^ vocabulary));
    samples = List.map fst table;
  }

let stack_specs =
  [
    int_spec ~keys:[ "n"; "nodes" ] ~min:1 ~doc:"Number of processes."
      ~get:(fun p -> p.n)
      ~put:(fun p n -> { p with n })
      ();
    enum_spec ~keys:[ "algo" ] ~doc:"Consensus algorithm" ~table:algos
      ~get:(fun p -> p.algo)
      ~put:(fun p algo -> { p with algo })
      ();
    enum_spec ~keys:[ "ordering" ] ~doc:"What consensus decides on"
      ~table:orderings
      ~get:(fun p -> p.ordering)
      ~put:(fun p ordering -> { p with ordering })
      ();
    enum_spec ~keys:[ "broadcast"; "dissemination" ]
      ~doc:"Reliable broadcast flavour / payload dissemination"
      ~table:broadcasts
      ~get:(fun p -> p.broadcast)
      ~put:(fun p broadcast -> { p with broadcast })
      ();
    int_spec ~keys:[ "batch" ] ~min:1
      ~doc:"Fresh ids that trigger a consensus proposal (1 = seed behaviour)."
      ~get:(fun p -> p.batch)
      ~put:(fun p batch -> { p with batch })
      ();
    int_spec ~keys:[ "pipeline" ] ~min:1
      ~doc:"Concurrent consensus instances (commits stay in instance order)."
      ~get:(fun p -> p.pipeline)
      ~put:(fun p pipeline -> { p with pipeline })
      ();
    float_spec ~keys:[ "flush" ]
      ~doc:
        "Batch flush timer, ms (fires while an instance is open and the residue \
         is below --batch).  With batching or pipelining on it also bounds how \
         long a proposer waits for the round-1 coordinator's proposal before \
         announcing the instance to every process."
      ~get:(fun p -> p.flush_ms)
      ~put:(fun p flush_ms -> { p with flush_ms })
      ();
  ]

let workload_specs =
  [
    int_spec ~keys:[ "count" ] ~doc:"A-broadcasts per node."
      ~get:(fun p -> p.count)
      ~put:(fun p count -> { p with count })
      ();
    int_spec ~keys:[ "size" ] ~doc:"Payload bytes."
      ~get:(fun p -> p.body_bytes)
      ~put:(fun p body_bytes -> { p with body_bytes })
      ();
    float_spec ~keys:[ "gap" ] ~doc:"Milliseconds between a node's A-broadcasts."
      ~get:(fun p -> p.gap_ms)
      ~put:(fun p gap_ms -> { p with gap_ms })
      ();
    float_spec ~keys:[ "warmup" ]
      ~doc:"Milliseconds before the first A-broadcast."
      ~get:(fun p -> p.warmup_ms)
      ~put:(fun p warmup_ms -> { p with warmup_ms })
      ();
    float_spec ~keys:[ "hb-period" ] ~doc:"Heartbeat period, ms."
      ~get:(fun p -> p.hb_period_ms)
      ~put:(fun p hb_period_ms -> { p with hb_period_ms })
      ();
    float_spec ~keys:[ "hb-timeout" ] ~doc:"Heartbeat suspicion timeout, ms."
      ~get:(fun p -> p.hb_timeout_ms)
      ~put:(fun p hb_timeout_ms -> { p with hb_timeout_ms })
      ();
    float_spec ~keys:[ "timeout" ] ~doc:"Hard deadline, seconds."
      ~get:(fun p -> p.deadline_ms /. 1000.0)
      ~put:(fun p s -> { p with deadline_ms = s *. 1000.0 })
      ();
  ]

let app_specs =
  [
    enum_spec ~keys:[ "app" ] ~doc:"Application hosted on A-deliveries" ~table:apps
      ~get:(fun p -> p.app)
      ~put:(fun p app -> { p with app })
      ();
    int_spec ~keys:[ "clients" ] ~min:1
      ~doc:"Closed-loop client sessions across the cluster."
      ~get:(fun p -> p.clients)
      ~put:(fun p clients -> { p with clients })
      ();
    int_spec ~keys:[ "requests" ] ~min:1 ~doc:"Commands per client."
      ~get:(fun p -> p.requests)
      ~put:(fun p requests -> { p with requests })
      ();
    int_spec ~keys:[ "app-seed" ]
      ~doc:"Command-derivation seed (independent of the run seed)."
      ~get:(fun p -> p.app_seed)
      ~put:(fun p app_seed -> { p with app_seed })
      ();
    int_spec ~keys:[ "hash-every" ] ~min:1
      ~doc:"Applies between state-hash trace events."
      ~get:(fun p -> p.hash_every)
      ~put:(fun p hash_every -> { p with hash_every })
      ();
    float_spec ~keys:[ "retry" ]
      ~doc:"Client retry window, ms (linear backoff base)."
      ~get:(fun p -> p.retry_ms)
      ~put:(fun p retry_ms -> { p with retry_ms })
      ();
  ]

let specs = stack_specs @ workload_specs @ app_specs

let set profile ~key ~value =
  match List.find_opt (fun s -> List.mem key s.keys) specs with
  | Some spec -> spec.set profile value
  | None -> Error (Printf.sprintf "--%s: unknown profile flag" key)

let to_args profile =
  List.map
    (fun spec -> Printf.sprintf "--%s=%s" (List.hd spec.keys) (spec.get profile))
    specs

let of_args ?(base = default) args =
  let rec go profile = function
    | [] -> Ok profile
    | arg :: rest -> (
        match String.length arg >= 2 && String.sub arg 0 2 = "--" with
        | false -> Error (Printf.sprintf "%s: expected a --flag" arg)
        | true -> (
            let flag = String.sub arg 2 (String.length arg - 2) in
            let key, value, rest =
              match String.index_opt flag '=' with
              | Some i ->
                  ( String.sub flag 0 i,
                    Some (String.sub flag (i + 1) (String.length flag - i - 1)),
                    rest )
              | None -> (
                  match rest with
                  | v :: rest' -> (flag, Some v, rest')
                  | [] -> (flag, None, rest))
            in
            match value with
            | None -> Error (Printf.sprintf "--%s: missing value" key)
            | Some value -> (
                match set profile ~key ~value with
                | Ok profile -> go profile rest
                | Error _ as e -> e)))
  in
  go base args

let describe p =
  Printf.sprintf "%s/%s/%s n=%d" (algo_to_string p.algo)
    (ordering_to_string p.ordering)
    (broadcast_to_string p.broadcast)
    p.n
