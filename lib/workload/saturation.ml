(* Offered-load saturation sweep: drive one stack shape at increasing
   arrival rates and record throughput/latency at each point, on the
   deterministic simulator and on the live loopback cluster.  The knee of
   the resulting curve — the highest offered load the stack absorbs
   without its latency tail or its backlog exploding — is the headline
   number for the batching/pipelining/ring work (Ring Paxos's evaluation
   methodology, applied to the indirect-consensus split). *)

module Engine = Ics_sim.Engine
module Stats = Ics_prelude.Stats
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Checker = Ics_checker.Checker
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

type point = {
  offered : float;  (** target arrival rate, msg/s cluster-wide *)
  achieved : float;  (** distinct messages ordered per second *)
  latency : Stats.summary;  (** abroadcast -> adelivery, ms *)
  checker_ok : bool;  (** full battery on the (merged) trace *)
  clean : bool;
      (** sim: event queue drained; live: every node exited through the
          delivery barrier (an overloaded point times out instead) *)
  util : float;
      (** busiest resource's utilization over the arrival window (sim
          only; NaN on live, where the barrier timeout is the overload
          signal instead) *)
  delivered : int;  (** (message, process) delivery pairs observed *)
}

type curve = {
  backend : [ `Sim | `Live ];
  n : int;
  batching : Abcast.batching;
  broadcast : Profile.broadcast_kind;
  points : point list;
}

(* The knee: the fastest point that is still healthy.  Both backends
   eventually drain their whole backlog (the sim is open-loop; the live
   cluster gets a drain window after the arrival window), so achieved
   tracks offered even somewhat past capacity — the tail latency is the
   honest signal: below the knee the stack delivers in
   single-digit-to-tens of ms, past it p99 grows with the queue, so a
   fixed SLA bound separates serving from queueing.  The bound is set
   above the scheduling noise floor of an oversubscribed host: with n+1
   processes timesharing a core, a node's p99 includes waits of several
   scheduler quanta (tens of ms) even well below capacity, so a tighter
   bound would measure the host's scheduler rather than the stack's
   queue.  Falls back to the fastest point overall when nothing is
   healthy, so a degenerate sweep still reports. *)
let p99_bound_ms = 100.0

let healthy p =
  p.checker_ok && p.clean
  && (p.latency.Stats.count = 0 || p.latency.Stats.p99 <= p99_bound_ms)

let knee curve =
  let healthy = List.filter healthy curve.points in
  let fastest = function
    | [] -> None
    | ps ->
        Some
          (List.fold_left
             (fun best p -> if p.achieved > best.achieved then p else best)
             (List.hd ps) ps)
  in
  match fastest healthy with Some p -> Some p | None -> fastest curve.points

let status p =
  if healthy p then "ok"
  else if p.checker_ok then "overload (checker ok)"
  else "CHECKER FAIL"

(* ------------------------------------------------------------------ *)
(* Simulated sweep.                                                   *)
(* ------------------------------------------------------------------ *)

let sim_point ?(seed = 1L) ?(body_bytes = 32) ?(duration_ms = 4_000.0)
    ~config offered =
  let load =
    {
      Experiment.throughput = offered;
      body_bytes;
      duration = duration_ms;
      warmup = Float.min 1_000.0 (duration_ms /. 4.0);
    }
  in
  let r = Experiment.run ~check:true ~seed config load in
  let n = config.Stack.n in
  let window_s = (load.Experiment.duration -. load.Experiment.warmup) /. 1000.0 in
  {
    offered;
    achieved = float_of_int (r.Experiment.measured / n) /. window_s;
    latency = r.Experiment.latency;
    checker_ok =
      (match r.Experiment.verdict with
      | Some v -> Checker.ok v
      | None -> false);
    clean = r.Experiment.quiescent;
    util =
      List.fold_left (fun m (_, u) -> Float.max m u) 0.0
        r.Experiment.utilization;
    delivered = r.Experiment.measured;
  }

let sim_curve ?seed ?algo ?ordering ?body_bytes ?duration_ms ~n ~batching
    ~broadcast offered_loads =
  let config = Run.setup2 ?seed ?algo ?ordering ~broadcast ~batching ~n () in
  {
    backend = `Sim;
    n;
    batching;
    broadcast;
    points =
      List.map (fun o -> sim_point ?seed ?body_bytes ?duration_ms ~config o)
        offered_loads;
  }

(* ------------------------------------------------------------------ *)
(* Live sweep.                                                        *)
(* ------------------------------------------------------------------ *)

let live_of_outcome offered (o : Cluster.outcome) =
  {
    offered;
    achieved = o.Cluster.throughput_msg_s;
    latency = Option.value o.latency ~default:Stats.empty_summary;
    checker_ok = Checker.ok o.Cluster.verdict;
    clean = Cluster.ok o;
    util = Float.nan;
    delivered = Array.fold_left ( + ) 0 o.Cluster.delivered_per_node;
  }

(* A fixed arrival window: each node broadcasts its share of [offered] at
   even gaps for [duration_ms], then the cluster drains to the delivery
   barrier (or times out, which marks the point un-clean).  The drain
   window is deliberately generous: the barrier exits as soon as delivery
   completes, so the deadline only binds for points past the knee — and
   those must still drain to a checker-clean trace rather than be killed
   mid-protocol, or the sweep reports truncation noise instead of
   overload.  Retries stop at the first healthy attempt (Run.live). *)
let live_point ?(seed = 1L) ?algo ?ordering ?(body_bytes = 32)
    ?(duration_ms = 2_000.0) ?(drain_ms = 10_000.0) ?(attempts = 1) ~n
    ~batching ~broadcast offered =
  let config = Run.setup2 ?algo ?ordering ~broadcast ~batching ~n () in
  let per_node = offered /. float_of_int n in
  let count =
    int_of_float (Float.round (offered *. duration_ms /. 1000.0 /. float_of_int n))
  in
  let profile =
    Run.live_profile
      {
        (Stack.profile config) with
        Profile.count = max 1 count;
        body_bytes;
        gap_ms = 1000.0 /. per_node;
      }
      ~window_ms:(duration_ms +. drain_ms)
  in
  Run.live ~attempts
    ~latency:(fun (o : Cluster.outcome) -> o.latency)
    ~stop:(fun o -> healthy (live_of_outcome offered o))
    { Node.default_workload with Node.profile; seed }
  |> Result.map (live_of_outcome offered)

let live_curve ?seed ?algo ?ordering ?body_bytes ?duration_ms ?drain_ms
    ?attempts ~n ~batching ~broadcast offered_loads =
  let points =
    List.filter_map
      (fun o ->
        Result.to_option
          (live_point ?seed ?algo ?ordering ?body_bytes ?duration_ms ?drain_ms
             ?attempts ~n ~batching ~broadcast o))
      offered_loads
  in
  { backend = `Live; n; batching; broadcast; points }

(* ------------------------------------------------------------------ *)
(* Determinism gate for the smoke target.                             *)
(* ------------------------------------------------------------------ *)

(* Two sim runs of the same saturation cell must produce bit-identical
   traces — the same replay discipline the chaos sweep enforces, applied
   to the batched/pipelined/ring configuration. *)
let sim_fingerprint ?(seed = 11L) ?algo ?ordering ?(offered = 400.0)
    ?(duration_ms = 1_000.0) ~n ~batching ~broadcast () =
  let stack = Stack.create (Run.setup2 ~seed ?algo ?ordering ~broadcast ~batching ~n ()) in
  let engine = stack.Stack.engine in
  let gap = 1000.0 /. (offered /. float_of_int n) in
  let per_node = int_of_float (Float.round (duration_ms /. gap)) in
  for k = 0 to (per_node * n) - 1 do
    Engine.schedule engine
      ~at:(10.0 +. (gap *. float_of_int (k / n)))
      (fun () -> ignore (Stack.abroadcast stack ~src:(k mod n) ~body_bytes:32))
  done;
  Stack.run ~until:(duration_ms +. 10_000.0) stack;
  Ics_sim.Trace.fingerprint (Engine.trace engine)

let replay_check ?seed ?algo ?ordering ?offered ?duration_ms ~n ~batching
    ~broadcast () =
  Run.replay (fun () ->
      sim_fingerprint ?seed ?algo ?ordering ?offered ?duration_ms ~n ~batching
        ~broadcast ())
