module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Stats = Ics_prelude.Stats
module Variate = Ics_prelude.Variate
module App_msg = Ics_net.App_msg
module Stack = Ics_core.Stack
module Checker = Ics_checker.Checker

type load = {
  throughput : float;
  body_bytes : int;
  duration : Time.t;
  warmup : Time.t;
}

type result = {
  latency : Stats.summary;
  measured : int;
  abroadcasts : int;
  sent_messages : int;
  sent_bytes : int;
  quiescent : bool;
  wall_clock : Time.t;
  events : int;
  verdict : Checker.verdict option;
  utilization : (string * float) list;  (* over the arrival window *)
  per_layer : (string * int * int) list;
  consensus : (string * int) list;
}

let drain_horizon = 60_000.0

let run ?(check = false) ?seed ?(prepare = ignore) config load =
  if load.throughput <= 0.0 then invalid_arg "Experiment.run: throughput <= 0";
  if load.warmup >= load.duration then invalid_arg "Experiment.run: warmup >= duration";
  let config =
    match seed with None -> config | Some seed -> { config with Stack.seed }
  in
  (* Runs that never consult the checker skip trace recording entirely. *)
  let config = { config with Stack.trace = (if check then `On else `Off) } in
  let samples = Stats.Samples.create () in
  let measured = ref 0 in
  let abroadcasts = ref 0 in
  (* The delivery callback needs the engine's clock, so the stack is wired
     through a forward reference. *)
  let stack_ref = ref None in
  let on_deliver p (m : App_msg.t) =
    ignore p;
    match !stack_ref with
    | None -> ()
    | Some stack ->
        if m.created_at >= load.warmup && m.created_at < load.duration then begin
          incr measured;
          Stats.Samples.add samples
            (Time.( - ) (Engine.now stack.Stack.engine) m.created_at)
        end
  in
  let stack = Stack.create ~on_deliver config in
  prepare stack;
  stack_ref := Some stack;
  let engine = stack.Stack.engine in
  let n = config.Stack.n in
  (* Symmetric Poisson arrivals: each process broadcasts at throughput/n. *)
  let per_process_mean_ms = Time.of_s (float_of_int n /. load.throughput) in
  List.iter
    (fun p ->
      let rng = Engine.rng engine p in
      let rec arrival () =
        if Engine.now engine < load.duration && Engine.is_alive engine p then begin
          incr abroadcasts;
          ignore (Stack.abroadcast stack ~src:p ~body_bytes:load.body_bytes);
          Engine.after engine
            ~delay:(Variate.exponential rng ~mean:per_process_mean_ms)
            arrival
        end
      in
      Engine.after engine ~delay:(Variate.exponential rng ~mean:per_process_mean_ms) arrival)
    (Pid.all ~n);
  let horizon = Time.( + ) load.duration drain_horizon in
  Stack.run ~until:horizon stack;
  let quiescent = Engine.pending engine = 0 in
  let verdict =
    if check then
      Some (Checker.check_all_abcast (Checker.Run.of_trace (Engine.trace engine) ~n))
    else None
  in
  {
    latency = Stats.Samples.summarize samples;
    measured = !measured;
    abroadcasts = !abroadcasts;
    sent_messages = Ics_net.Transport.sent_messages stack.Stack.transport;
    sent_bytes = Ics_net.Transport.sent_bytes stack.Stack.transport;
    quiescent;
    wall_clock = Engine.now engine;
    events = Engine.events_executed engine;
    verdict;
    utilization = Stack.utilization ~horizon:load.duration stack;
    per_layer = Ics_net.Transport.per_layer_stats stack.Stack.transport;
    consensus = Ics_core.Abcast.consensus_counters stack.Stack.abcast;
  }

let run_seeds ?(check = false) ~seeds config load =
  let results = List.map (fun seed -> run ~check ~seed config load) seeds in
  match results with
  | [] -> invalid_arg "Experiment.run_seeds: empty seed list"
  | first :: _ ->
      let total_measured = List.fold_left (fun a r -> a + r.measured) 0 results in
      let pooled_mean =
        List.fold_left (fun a r -> a +. (r.latency.Stats.mean *. float_of_int r.measured)) 0.0
          results
        /. float_of_int (max 1 total_measured)
      in
      let latency = { first.latency with Stats.mean = pooled_mean; count = total_measured } in
      {
        latency;
        measured = total_measured;
        abroadcasts = List.fold_left (fun a r -> a + r.abroadcasts) 0 results;
        sent_messages = List.fold_left (fun a r -> a + r.sent_messages) 0 results;
        sent_bytes = List.fold_left (fun a r -> a + r.sent_bytes) 0 results;
        quiescent = List.for_all (fun r -> r.quiescent) results;
        wall_clock = (List.hd (List.rev results)).wall_clock;
        events = List.fold_left (fun a r -> a + r.events) 0 results;
        utilization =
          List.map
            (fun (name, _) ->
              let busy r = Option.value ~default:0.0 (List.assoc_opt name r.utilization) in
              let total = List.fold_left (fun a r -> a +. busy r) 0.0 results in
              (name, total /. float_of_int (List.length results)))
            first.utilization;
        per_layer =
          List.concat_map (fun r -> r.per_layer) results
          |> List.stable_sort (fun (a, _, _) (b, _, _) -> String.compare a b)
          |> List.fold_left
               (fun acc (name, msgs, bytes) ->
                 match acc with
                 | (prev, m, b) :: rest when String.equal prev name ->
                     (name, m + msgs, b + bytes) :: rest
                 | _ -> (name, msgs, bytes) :: acc)
               []
          |> List.rev;
        consensus =
          List.map
            (fun (k, _) ->
              (k, List.fold_left (fun a r -> a + List.assoc k r.consensus) 0 results))
            first.consensus;
        verdict =
          (if check then
             Some
               {
                 Checker.violations =
                   List.concat_map
                     (fun r ->
                       match r.verdict with
                       | Some v -> v.Checker.violations
                       | None -> [])
                     results;
                 checked =
                   (match first.verdict with Some v -> v.Checker.checked | None -> []);
               }
           else None);
      }
