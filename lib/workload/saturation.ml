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
  let healthy = List.filter healthy curve in
  let fastest = function
    | [] -> None
    | ps ->
        Some
          (List.fold_left
             (fun best p -> if p.achieved > best.achieved then p else best)
             (List.hd ps) ps)
  in
  match fastest healthy with Some p -> Some p | None -> fastest curve

let status p =
  if healthy p then "ok"
  else if p.checker_ok then "overload (checker ok)"
  else "CHECKER FAIL"

let pp_curve ppf curve =
  Format.fprintf ppf "@\n%10s %10s %9s %9s %9s %9s %6s  %s" "offered" "achieved"
    "mean" "p95" "p99" "max" "util" "status";
  List.iter
    (fun p ->
      Format.fprintf ppf "@\n%10.0f %10.0f %9.2f %9.2f %9.2f %9.2f %6s  %s" p.offered
        p.achieved p.latency.Stats.mean p.latency.Stats.p95 p.latency.Stats.p99
        p.latency.Stats.max
        (if Float.is_nan p.util then "-" else Printf.sprintf "%.0f%%" (p.util *. 100.0))
        (status p))
    curve;
  match knee curve with
  | Some k ->
      Format.fprintf ppf "@\n@\nknee: %.0f msg/s achieved at %.0f offered (p99 %.2f ms)"
        k.achieved k.offered k.latency.Stats.p99
  | None -> Format.fprintf ppf "@\n@\nknee: no points ran"

(* ------------------------------------------------------------------ *)
(* Simulated sweep.                                                   *)
(* ------------------------------------------------------------------ *)

let sim_point ?(seed = 1L) ?(duration_ms = 4_000.0) (profile : Profile.t) offered =
  let load =
    {
      Experiment.throughput = offered;
      body_bytes = profile.Profile.body_bytes;
      duration = duration_ms;
      warmup = Float.min 1_000.0 (duration_ms /. 4.0);
    }
  in
  let r = Experiment.run ~check:true ~seed (Run.setup2 profile) load in
  let window_s = (load.Experiment.duration -. load.Experiment.warmup) /. 1000.0 in
  {
    offered;
    achieved = float_of_int (r.Experiment.measured / profile.Profile.n) /. window_s;
    latency = r.Experiment.latency;
    checker_ok =
      (match r.Experiment.verdict with
      | Some v -> Checker.ok v
      | None -> false);
    clean = r.Experiment.quiescent;
    util =
      List.fold_left (fun m (_, u) -> Float.max m u) 0.0
        r.Experiment.utilization;
  }

let sim_curve ?seed ?duration_ms profile offered_loads =
  List.map (sim_point ?seed ?duration_ms profile) offered_loads

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
  }

(* [offered] msg/s cluster-wide for [duration_ms], as each node's even
   share of [profile]'s payloads: the profile a saturation cell runs on
   either backend. *)
let slots_profile (profile : Profile.t) ~offered ~duration_ms =
  let n = profile.Profile.n in
  let per_node = offered /. float_of_int n in
  {
    profile with
    Profile.count =
      max 1 (int_of_float (Float.round (offered *. duration_ms /. 1000.0 /. float_of_int n)));
    gap_ms = 1000.0 /. per_node;
  }

(* A fixed arrival window: each node broadcasts its share of [offered] at
   even gaps for [duration_ms], then the cluster drains to the delivery
   barrier (or times out, which marks the point un-clean).  The 10 s drain
   window is deliberately generous: the barrier exits as soon as delivery
   completes, so the deadline only binds for points past the knee — and
   those must still drain to a checker-clean trace rather than be killed
   mid-protocol, or the sweep reports truncation noise instead of
   overload. *)
let live_point ?(seed = 1L) ?(duration_ms = 2_000.0) profile offered =
  let profile =
    Run.live_profile
      (slots_profile profile ~offered ~duration_ms)
      ~window_ms:(duration_ms +. 10_000.0)
  in
  Run.live { Node.default_workload with Node.profile; seed }
  |> Result.map (live_of_outcome offered)

let live_curve ?seed ?duration_ms profile offered_loads =
  List.filter_map
    (fun o -> Result.to_option (live_point ?seed ?duration_ms profile o))
    offered_loads

(* ------------------------------------------------------------------ *)
(* Determinism gate for the smoke target.                             *)
(* ------------------------------------------------------------------ *)

(* Two sim runs of the same saturation cell must produce bit-identical
   traces — the same replay discipline the chaos sweep enforces, applied
   to the batched/pipelined/ring configuration.  The cell's payloads and
   warm-up are its own, whatever [profile] says. *)
let sim_fingerprint ?(seed = 11L) ?(offered = 400.0) ?(duration_ms = 1_000.0) profile =
  let config = Run.setup2 profile in
  let profile =
    {
      (slots_profile profile ~offered ~duration_ms) with
      Profile.body_bytes = 32;
      warmup_ms = 10.0;
    }
  in
  let s =
    Run.sim ~setup:config.Stack.setup ~fd:config.Stack.fd_kind
      ~horizon:(duration_ms +. 10_000.0)
      { Node.default_workload with Node.profile; seed }
  in
  Ics_sim.Trace.fingerprint (Engine.trace s.Run.stack.Stack.engine)
