(* Layer probes: microbenchmarks of single layers, simulated runs driven
   the way Experiment.run drives them, and the failover cell.  Every
   call into the libraries that gets timed is wrapped in a span. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Event_queue = Ics_sim.Event_queue
module Rng = Ics_prelude.Rng
module Stats = Ics_prelude.Stats
module Variate = Ics_prelude.Variate
module App_msg = Ics_net.App_msg
module Transport = Ics_net.Transport
module Codec = Ics_codec.Codec
module Bq = Ics_codec.Bq
module Machine = Ics_app.Machine
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Codecs = Ics_core.Codecs
module Experiment = Ics_workload.Experiment
module Checker = Ics_checker.Checker

(* ------------------------------------------------------------------ *)
(* Microbenchmarks                                                     *)
(* ------------------------------------------------------------------ *)

(* Median over [batches] of the per-iteration cost of [f], in ns. *)
let per_op_ns ?(batches = 7) ~iters f =
  let batch () =
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      f i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  f 0;
  (Report.stat (List.init batches (fun _ -> batch ()))).Report.median

let minor_words_per ~iters f =
  let w0 = Gc.minor_words () in
  for i = 1 to iters do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let wire_layer tag =
  match String.split_on_char '.' tag with
  | "rb" :: _ -> "rb"
  | "app" :: _ -> "app"
  | _ -> "consensus"

(* Frame encode into a connection-style outbound queue, and checksum +
   decode of the same frame, per tag; payloads are drawn from each tag's
   registered generator at the seed. *)
let codec ~seed ~iters =
  Codecs.ensure ();
  Span.record "codec" @@ fun () ->
  List.concat_map
    (fun tag ->
      let entry =
        match List.find_opt (fun (e : Codec.entry) -> e.Codec.name = tag) (Codec.entries ()) with
        | Some e -> e
        | None -> failwith ("no codec registered for " ^ tag)
      in
      let payload = entry.Codec.gen (Rng.create (Int64.of_int (seed + entry.Codec.tag))) in
      let layer = wire_layer tag in
      let q = Bq.create 256 in
      let encode _ =
        ignore (Codec.encode_frame q ~src:1 ~dst:2 ~layer payload : int);
        Bq.consume q (Bq.length q)
      in
      let enc_ns = Span.record "Codec.encode_frame" (fun () -> per_op_ns ~iters encode) in
      let words = minor_words_per ~iters encode in
      ignore (Codec.encode_frame q ~src:1 ~dst:2 ~layer payload : int);
      let frame = Bq.contents q in
      Bq.consume q (Bq.length q);
      let header =
        match Codec.decode_header frame with Ok h -> h | Error e -> failwith e
      in
      let decode _ =
        match Codec.decode_body ~pos:Codec.header_bytes frame header with
        | Ok _ -> ()
        | Error e -> failwith e
      in
      let dec_ns = Span.record "Codec.decode_body" (fun () -> per_op_ns ~iters decode) in
      [
        ("codec.encode_frame_ns." ^ tag, enc_ns);
        ("codec.decode_ns." ^ tag, dec_ns);
        ("codec.minor_words_per_frame." ^ tag, words);
      ])
    Metrics.codec_tags

(* One frame's worth of queue discipline: reserve and backpatch a header
   span, then the read(2) half — ensure room, advance — and drain. *)
let bq ~iters =
  let q = Bq.create 256 in
  let body = String.make 48 'x' in
  Span.record "Bq" @@ fun () ->
  per_op_ns ~iters (fun i ->
      let at = Bq.reserve q 8 in
      Bq.add_string q body;
      Bq.patch_u32 q ~at i;
      Bq.patch_u32 q ~at:(at + 4) (i lxor 0x5a5a);
      Bq.ensure q 64;
      Bq.advance q 64;
      Bq.consume q (Bq.length q))

(* Heap push then pop at seeded times around a standing population. *)
let event_queue ~seed ~iters =
  let rng = Rng.create (Int64.of_int seed) in
  let q = Event_queue.create () in
  let now = ref 0.0 in
  for _ = 1 to 1024 do
    Event_queue.push q ~time:(Rng.float rng 10.0) ignore
  done;
  Span.record "Event_queue" @@ fun () ->
  per_op_ns ~iters (fun _ ->
      Event_queue.push q ~time:(!now +. Rng.float rng 10.0) ignore;
      now := Event_queue.min_time_exn q;
      Event_queue.pop_run_exn q ())

(* Machine.apply over a closed-loop-shaped history (every client's
   requests in order), and the canonical state hash of the result. *)
let machine ~seed ~clients ~requests =
  let fresh () = Machine.create ~nclients:clients ~seed:(Int64.of_int seed) () in
  let m = ref (fresh ()) in
  let total = clients * requests in
  let apply_ns =
    Span.record "Machine.apply" @@ fun () ->
    per_op_ns ~iters:total (fun i ->
        if i = 1 then m := fresh ();
        if i >= 1 then begin
          let k = i - 1 in
          ignore (Machine.apply !m ~client:(k mod clients) ~req:(k / clients) : Machine.outcome)
        end)
  in
  let hash_us =
    Span.record "Machine.hash" @@ fun () ->
    per_op_ns ~iters:50 (fun _ -> ignore (Machine.hash !m : int64)) /. 1e3
  in
  [ ("app.machine_apply_ns", apply_ns); ("app.hash_us", hash_us) ]

(* ------------------------------------------------------------------ *)
(* Simulated runs                                                      *)
(* ------------------------------------------------------------------ *)

(* Experiment.run's drain horizon past the end of arrivals. *)
let drain_ms = 60_000.0

(* The symmetric engine-RNG Poisson arrivals of Experiment.run, driven
   through Stack.create/Stack.run so the trace can be switched on: with
   equal config and load this schedules exactly what Experiment.run
   schedules, so the latency summary must match bit for bit. *)
let poisson_run config (load : Experiment.load) =
  let samples = Stats.Samples.create () in
  let stack_ref = ref None in
  let on_deliver _ (m : App_msg.t) =
    match !stack_ref with
    | Some s when m.App_msg.created_at >= load.Experiment.warmup
                  && m.App_msg.created_at < load.Experiment.duration ->
        Stats.Samples.add samples (Engine.now s.Stack.engine -. m.App_msg.created_at)
    | _ -> ()
  in
  let stack = Span.record "Stack.create" (fun () -> Stack.create ~on_deliver config) in
  stack_ref := Some stack;
  let engine = stack.Stack.engine in
  let n = config.Stack.n in
  let abroadcasts = ref 0 in
  let mean = Time.of_s (float_of_int n /. load.Experiment.throughput) in
  List.iter
    (fun p ->
      let rng = Engine.rng engine p in
      let rec arrival () =
        if Engine.now engine < load.Experiment.duration && Engine.is_alive engine p then begin
          incr abroadcasts;
          ignore (Stack.abroadcast stack ~src:p ~body_bytes:load.Experiment.body_bytes);
          Engine.after engine ~delay:(Variate.exponential rng ~mean) arrival
        end
      in
      Engine.after engine ~delay:(Variate.exponential rng ~mean) arrival)
    (Pid.all ~n);
  Span.record "Stack.run" (fun () ->
      Stack.run ~until:(load.Experiment.duration +. drain_ms) stack);
  (stack, Stats.Samples.summarize samples, !abroadcasts)

(* The failover cell: ct/indirect, n=3, Setup 2, heartbeat detector,
   batch 8 / pipeline 2, 1,000 msg/s cluster-wide at fixed gaps, and the
   coordinator p0 crashing one second in.  The seed draws each replica's
   arrival phase and the crash instant within one heartbeat period: a
   crash lands anywhere between two heartbeats, and how long the
   detector stays silent depends on where. *)
let failover_victim = 0
let failover_crash_ms = 1_000.0
let failover_rate = 1_000.0
let hb_period_ms = 25.0

let failover_config ~seed ~trace =
  {
    Stack.default_config with
    Stack.n = 3;
    seed = Int64.of_int seed;
    batching = { Abcast.batch = 8; pipeline = 2; flush_ms = 1.0 };
    setup = Stack.Setup2;
    fd_kind = Stack.Heartbeat { period = hb_period_ms; timeout = 120.0 };
    trace;
  }

let failover_cell ~seed ~arrivals_end ~trace =
  let config = failover_config ~seed ~trace in
  let stack = Span.record "Stack.create" (fun () -> Stack.create config) in
  let engine = stack.Stack.engine in
  let n = config.Stack.n in
  let gap = float_of_int n *. 1000.0 /. failover_rate in
  let rng = Rng.create (Int64.of_int (seed + 0x5eed)) in
  let abroadcasts = ref 0 in
  List.iter
    (fun p ->
      let phase = Rng.float rng gap in
      let rec at k =
        let t = 100.0 +. phase +. (gap *. float_of_int k) in
        if t < arrivals_end then begin
          Engine.schedule engine ~at:t (fun () ->
              incr abroadcasts;
              ignore (Stack.abroadcast stack ~src:p ~body_bytes:32 : App_msg.t));
          at (k + 1)
        end
      in
      at 0)
    (Pid.all ~n);
  Engine.crash_at engine failover_victim
    ~at:(failover_crash_ms +. Rng.float rng hb_period_ms);
  Span.record "Stack.run" (fun () ->
      Stack.run ~until:(arrivals_end +. 3_000.0) stack;
      (* Heartbeats still on the wire at the horizon land; the detector
         loops have retired, so this drains. *)
      Stack.run stack);
  (stack, !abroadcasts)

(* Per-layer counters of one simulated run: the simulator's speed,
   engine events, allocation and busiest resource per abcast, traffic
   per layer per abcast, and the wall-time cost of tracing (traced wall
   / untraced wall). *)
let sim_layers (stack : Stack.t) ~abroadcasts ~minor_words ~wall ~traced_wall =
  let per x = x /. float_of_int (max 1 abroadcasts) in
  let traffic = Transport.per_layer_stats stack.Stack.transport in
  let layer l =
    match List.find_opt (fun (name, _, _) -> name = l) traffic with
    | Some (_, msgs, bytes) -> (float_of_int msgs, float_of_int bytes)
    | None -> (0.0, 0.0)
  in
  let events = float_of_int (Engine.events_executed stack.Stack.engine) in
  [
    ("sim.events_per_s", events /. wall);
    ("sim.events_per_abcast", per events);
    ("sim.minor_words_per_abcast", per minor_words);
    ("sim.util_max", List.fold_left (fun a (_, u) -> Float.max a u) 0.0 (Stack.utilization stack));
    ("sim.trace_overhead_ratio", traced_wall /. wall);
  ]
  @ List.concat_map
      (fun l ->
        let msgs, bytes = layer l in
        [
          (Printf.sprintf "net.%s.msgs_per_abcast" l, per msgs);
          (Printf.sprintf "net.%s.bytes_per_abcast" l, per bytes);
        ])
      [ "rb"; "consensus"; "fd" ]

(* Time [f] with allocation counted, after a compaction so earlier work
   does not leave a GC debt inside the timed region. *)
let measured name f =
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let v, wall = Span.timed name f in
  (v, wall, Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Checker                                                             *)
(* ------------------------------------------------------------------ *)

type check = {
  verdict : Checker.verdict;
  of_trace_s : float;
  abcast_s : float;
  app_s : float;
  events : int;
}

let check_trace ~n trace =
  Span.record "check" @@ fun () ->
  let run, of_trace_s = Span.timed "Run.of_trace" (fun () -> Checker.Run.of_trace trace ~n) in
  let abcast, abcast_s = Span.timed "check_all_abcast" (fun () -> Checker.check_all_abcast run) in
  let app, app_s = Span.timed "check_app" (fun () -> Checker.check_app run) in
  {
    verdict = Checker.merge [ abcast; app ];
    of_trace_s;
    abcast_s;
    app_s;
    events = Ics_sim.Trace.length trace;
  }

let check_layers c =
  [
    ("checker.of_trace_s", c.of_trace_s);
    ("checker.abcast_s", c.abcast_s);
    ("checker.app_s", c.app_s);
    ( "checker.events_per_s",
      float_of_int c.events /. (c.of_trace_s +. c.abcast_s +. c.app_s) );
  ]
