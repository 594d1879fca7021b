(* Closed-loop service workload: thousands of client sessions drive the
   replicated KV/ledger machine through the full broadcast stack, on the
   deterministic simulator and on the live loopback cluster.  Unlike the
   saturation sweep (open-loop, message-level), a service point measures
   what a client sees: submit -> applied-at-home latency, with every
   point gated by the full abcast battery *and* the application checker
   (dedup, per-client order, state-hash agreement, progress).  The same
   seed must yield the same final state hash on both backends — the
   machine is a function of the delivery order and the command stream is
   a function of the profile, so any divergence is a bug, not noise. *)

module Engine = Ics_sim.Engine
module Trace = Ics_sim.Trace
module Stats = Ics_prelude.Stats
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module App_host = Ics_core.App_host
module Machine = Ics_app.Machine
module Checker = Ics_checker.Checker
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

type point = {
  backend : [ `Sim | `Live ];
  n : int;
  clients : int;
  requests : int;
  commands : int;  (** clients * requests, the workload size *)
  achieved : float;  (** distinct commands ordered per second *)
  latency : Stats.summary;  (** client-visible: submit -> applied at home *)
  checker_ok : bool;  (** abcast battery + app battery on the trace *)
  clean : bool;
      (** every session completed and every replica applied the whole
          workload (sim); every node exited through the barrier (live) *)
  hash : (int * int64) option;  (** deepest (cursor, state hash) observed *)
}

(* Two backends agree when both finished the whole workload and landed on
   the same state hash at the same cursor.  An incomplete point never
   "agrees" — comparing partial prefixes would pass vacuously. *)
let hash_match a b =
  a.clean && b.clean
  &&
  match (a.hash, b.hash) with
  | Some (ca, ha), Some (cb, hb) ->
      ca = a.commands && cb = b.commands && ca = cb && Int64.equal ha hb
  | _ -> false

let status p =
  if p.checker_ok && p.clean then "ok"
  else if not p.checker_ok then "CHECKER FAIL"
  else "INCOMPLETE"

let pp_point ppf p =
  Format.fprintf ppf
    "%-4s n=%d clients=%d requests=%d: %d commands, %.0f cmd/s, p50 %.2f ms, p99 \
     %.2f ms, %s%s"
    (match p.backend with `Sim -> "sim" | `Live -> "live")
    p.n p.clients p.requests p.commands p.achieved p.latency.Stats.p50
    p.latency.Stats.p99 (status p)
    (match p.hash with Some (c, h) -> Printf.sprintf " (hash %Lx @ %d)" h c | None -> "")

(* The profile both backends run: the config's stack shape plus the
   closed-loop KV workload. *)
let app_profile config ~clients ~requests ~app_seed ~hash_every ~retry_ms =
  {
    (Stack.profile config) with
    Profile.app = Profile.Kv;
    clients;
    requests;
    app_seed;
    hash_every;
    retry_ms;
    count = clients * requests;
    body_bytes = 32;
  }

(* ------------------------------------------------------------------ *)
(* Simulated service point.                                           *)
(* ------------------------------------------------------------------ *)

(* Assemble a stack, install an App_host per replica (Service mode: the
   hosts own the client sessions), start the sessions staggered over
   [ramp_ms], and run to the horizon.  The hosts are wired through a ref
   because they need the stack's abcast, which does not exist until
   [Stack.create] returns — deliveries cannot race the assignment, the
   engine only runs inside [Stack.run]. *)
let simulate config ~profile ~ramp_ms ~horizon_ms =
  let hosts = ref [||] in
  let on_deliver p m =
    if Array.length !hosts > 0 then App_host.on_deliver !hosts.(p) m
  in
  let stack = Stack.create ~on_deliver config in
  hosts :=
    Array.init config.Stack.n (fun p ->
        App_host.install stack.Stack.transport ~abcast:stack.Stack.abcast
          ~profile ~self:p ~mode:App_host.Service);
  Array.iter (fun h -> App_host.start h ~at:10.0 ~over_ms:ramp_ms) !hosts;
  Stack.run ~until:horizon_ms stack;
  (Engine.trace stack.Stack.engine, !hosts)

let sim_point ?(seed = 1L) ?algo ?ordering ?batching ?(app_seed = 42)
    ?(hash_every = 1024) ?(retry_ms = 500.0) ?(ramp_ms = 1_000.0)
    ?(horizon_ms = 120_000.0) ~n ~clients ~requests () =
  let config = Run.setup2 ~seed ?algo ?ordering ?batching ~n () in
  let profile = app_profile config ~clients ~requests ~app_seed ~hash_every ~retry_ms in
  let trace, hosts = simulate config ~profile ~ramp_ms ~horizon_ms in
  let run = Checker.Run.of_trace trace ~n in
  let verdict =
    Checker.merge [ Checker.check_all_abcast run; Checker.check_app run ]
  in
  let _, _, app_lat, throughput = Cluster.measure (Trace.events trace) in
  let clean =
    Array.for_all App_host.complete hosts
    && Array.for_all App_host.sessions_done hosts
  in
  let hash =
    Array.fold_left
      (fun best h ->
        let c = Machine.cursor (App_host.machine h) in
        match best with
        | Some (cb, _) when cb >= c -> best
        | _ -> Some (c, App_host.hash h))
      None hosts
  in
  {
    backend = `Sim;
    n;
    clients;
    requests;
    commands = clients * requests;
    achieved = throughput;
    latency = Option.value app_lat ~default:Stats.empty_summary;
    checker_ok = Checker.ok verdict;
    clean;
    hash;
  }

(* ------------------------------------------------------------------ *)
(* Live service point.                                                *)
(* ------------------------------------------------------------------ *)

(* The same Setup-2 config and app profile as the sim point, run as a
   live cluster; retries stop at the first checker-clean, barrier-clean
   attempt (Run.live). *)
let live_point ?(seed = 1L) ?algo ?ordering ?batching ?(app_seed = 42)
    ?(hash_every = 1024) ?(retry_ms = 500.0) ?(deadline_ms = 20_000.0)
    ?(attempts = 1) ~n ~clients ~requests () =
  let config = Run.setup2 ?algo ?ordering ?batching ~n () in
  let profile =
    Run.live_profile
      (app_profile config ~clients ~requests ~app_seed ~hash_every ~retry_ms)
      ~window_ms:deadline_ms
  in
  Run.live ~attempts
    ~latency:(fun o -> o.Cluster.app_latency)
    ~stop:Cluster.ok
    { Node.default_workload with Node.profile; seed }
  |> Result.map (fun (o : Cluster.outcome) ->
         {
           backend = `Live;
           n;
           clients;
           requests;
           commands = clients * requests;
           achieved = o.Cluster.throughput_msg_s;
           latency = Option.value o.Cluster.app_latency ~default:Stats.empty_summary;
           checker_ok = Checker.ok o.Cluster.verdict;
           clean = Cluster.ok o;
           hash = o.Cluster.app_hash;
         })

(* ------------------------------------------------------------------ *)
(* Determinism gate.                                                  *)
(* ------------------------------------------------------------------ *)

(* The service cell under the replay discipline: two sim runs of the
   same seed must produce bit-identical traces — sessions, retries and
   state hashes included. *)
let sim_fingerprint ?(seed = 11L) ?algo ?ordering ?batching ?(clients = 24)
    ?(requests = 3) ~n () =
  let config = Run.setup2 ~seed ?algo ?ordering ?batching ~n () in
  let profile =
    app_profile config ~clients ~requests ~app_seed:42 ~hash_every:16
      ~retry_ms:500.0
  in
  let trace, _ = simulate config ~profile ~ramp_ms:200.0 ~horizon_ms:60_000.0 in
  Trace.fingerprint trace

let replay_check ?seed ?algo ?ordering ?batching ?clients ?requests ~n () =
  Run.replay (fun () ->
      sim_fingerprint ?seed ?algo ?ordering ?batching ?clients ?requests ~n ())
