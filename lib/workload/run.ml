(* The shared half of every workload point: one Setup-2 stack config,
   one runner per backend for the same Node.config, one replay check.
   Each workload keeps only what is its own — its Node.config and its
   rule for a good point. *)

module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Stack = Ics_core.Stack
module Workload = Ics_core.Workload
module Checker = Ics_checker.Checker
module Profile = Ics_core.Profile
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

let setup2 p = { (Stack.config_of_profile p) with Stack.setup = Stack.Setup2 }

(* A measured point injects no faults, so the failure detector's only job
   is crash liveness — but on an oversubscribed host, scheduler stalls
   routinely exceed the chaos-tuned 120 ms and a false suspicion triggers
   a round-change storm that measures the detector, not the stack.
   Suspect only after a genuinely dead interval. *)
let live_profile (p : Profile.t) ~window_ms =
  let warmup_ms = 400.0 in
  {
    p with
    Profile.hb_timeout_ms = 2_000.0;
    warmup_ms;
    deadline_ms = warmup_ms +. window_ms;
  }

(* One run, judged by the full battery.  A dirty run is reported as
   dirty: rerunning until one passed would hide a checker failure. *)
let live node = Cluster.run { Cluster.default with Cluster.node; check = `All }

type sim = {
  stack : Stack.t;
  loads : Workload.t array;
  run : Checker.Run.t;
  verdict : Checker.verdict;
  quiescent : bool;
  faults : (string * int) list;
  retx : (string * int) list;
}

(* The workloads exist before the stack so its delivery callback can
   feed them; they schedule nothing until installed, after the plan, in
   pid order. *)
let sim ?ramp_ms ~setup ~fd ~horizon (node : Node.config) =
  let p = node.Node.profile in
  let kind = Workload.kind p ~round_robin:node.Node.chaos_workload in
  let loads =
    Array.init p.Profile.n (fun self -> Workload.create p kind ~self ~seed:node.Node.seed)
  in
  let config =
    { (Stack.config_of_profile p) with Stack.seed = node.Node.seed; setup; fd_kind = fd }
  in
  let stack =
    Stack.create ~on_deliver:(fun pid m -> Workload.on_deliver loads.(pid) m) config
  in
  let _, plan_counters = Node.install_plan stack.Stack.transport node in
  Array.iter
    (fun w -> Workload.install ?ramp_ms w stack.Stack.transport ~abcast:stack.Stack.abcast)
    loads;
  Stack.run ~until:horizon stack;
  let quiescent = Engine.pending stack.Stack.engine = 0 in
  let run = Checker.Run.of_trace (Engine.trace stack.Stack.engine) ~n:p.Profile.n in
  let faults, retx = plan_counters () in
  { stack; loads; run; verdict = Cluster.judge ~check:`All p run; quiescent; faults; retx }

let replay fingerprint =
  let first = fingerprint () in
  let second = fingerprint () in
  if String.equal first second then Ok first else Error (first, second)
