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
module Workload = Ics_core.Workload
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

(* A point from what both backends measure. *)
let point backend ~n ~clients ~requests ~achieved ~latency ~verdict ~clean ~hash =
  {
    backend;
    n;
    clients;
    requests;
    commands = clients * requests;
    achieved;
    latency = Option.value latency ~default:Stats.empty_summary;
    checker_ok = Checker.ok verdict;
    clean;
    hash;
  }

(* The node config both backends run: CT with indirect consensus and
   flood at [n] and [batching], plus the closed-loop KV workload; a
   session resubmits after 500 ms without an answer.  Sessions start
   10 ms in on the simulator; [Run.live_profile] moves the start past
   connection warm-up. *)
let app_node ?(batching = Abcast.no_batching) ~n ~seed ~clients ~requests ~app_seed
    ~hash_every () =
  {
    Node.default_workload with
    Node.profile =
      {
        Profile.default with
        Profile.n;
        batch = batching.Abcast.batch;
        pipeline = batching.Abcast.pipeline;
        flush_ms = batching.Abcast.flush_ms;
        app = Profile.Kv;
        clients;
        requests;
        app_seed;
        hash_every;
        retry_ms = 500.0;
        count = clients * requests;
        body_bytes = 32;
        warmup_ms = 10.0;
      };
    seed;
  }

(* [node] on the simulator, on its profile's Setup-2 config. *)
let run_sim ~ramp_ms ~horizon node =
  let config = Run.setup2 node.Node.profile in
  Run.sim ~ramp_ms ~setup:config.Stack.setup ~fd:config.Stack.fd_kind ~horizon node

(* ------------------------------------------------------------------ *)
(* Simulated service point.                                           *)
(* ------------------------------------------------------------------ *)

let sim_point ?(seed = 1L) ?batching ?(app_seed = 42) ~n ~clients ~requests () =
  let s =
    run_sim ~ramp_ms:1_000.0 ~horizon:120_000.0
      (app_node ?batching ~n ~seed ~clients ~requests ~app_seed ~hash_every:1024 ())
  in
  let _, _, app_lat, throughput =
    Cluster.measure (Trace.events (Engine.trace s.Run.stack.Stack.engine))
  in
  let sessions_done w = Option.fold ~none:false ~some:App_host.sessions_done (Workload.host w) in
  let clean = Array.for_all (fun w -> Workload.complete w && sessions_done w) s.Run.loads in
  point `Sim ~n ~clients ~requests ~achieved:throughput ~latency:app_lat ~verdict:s.Run.verdict
    ~clean ~hash:(Cluster.app_hash s.Run.run)

(* ------------------------------------------------------------------ *)
(* Live service point.                                                *)
(* ------------------------------------------------------------------ *)

(* The same app profile as the sim point at the default app seed, run
   once as a live cluster with a 20 s window. *)
let live_point ?(seed = 1L) ?batching ~n ~clients ~requests () =
  let node = app_node ?batching ~n ~seed ~clients ~requests ~app_seed:42 ~hash_every:1024 () in
  Run.live { node with Node.profile = Run.live_profile node.Node.profile ~window_ms:20_000.0 }
  |> Result.map (fun (o : Cluster.outcome) ->
         point `Live ~n ~clients ~requests ~achieved:o.Cluster.throughput_msg_s
           ~latency:o.Cluster.app_latency ~verdict:o.Cluster.verdict ~clean:(Cluster.ok o)
           ~hash:o.Cluster.app_hash)

(* ------------------------------------------------------------------ *)
(* Determinism gate.                                                  *)
(* ------------------------------------------------------------------ *)

(* The service cell under the replay discipline: two sim runs of the
   same seed must produce bit-identical traces — sessions, retries and
   state hashes included. *)
let sim_fingerprint ?(seed = 11L) ?batching ?(clients = 24) ?(requests = 3) ~n () =
  let s =
    run_sim ~ramp_ms:200.0 ~horizon:60_000.0
      (app_node ?batching ~n ~seed ~clients ~requests ~app_seed:42 ~hash_every:16 ())
  in
  Trace.fingerprint (Engine.trace s.Run.stack.Stack.engine)
