(* Benchmark harness.

   Regenerates every figure of the paper's evaluation (Figures 1 and 3–7;
   Figure 2 is a diagram), replays the two adversarial scenarios, runs the
   design-decision ablations called out in DESIGN.md, and finishes with
   Bechamel microbenchmarks of the hot data structures.

   Usage:
     dune exec bench/main.exe            # everything, full length (~3 min)
     dune exec bench/main.exe -- quick   # quarter-length simulation sweeps
     dune exec bench/main.exe -- figures # one section only; sections are
                                         # figures, scenarios, ablations,
                                         # faults, faults-live, claims,
                                         # micro, wire, saturation, wire2,
                                         # service, perf (combinable)

   The perf section measures real wall-clock time and allocation on a fixed
   deterministic workload and writes the numbers to BENCH_PR1.json; the
   faults-live section runs the same seeded drop plans on forked loopback
   clusters and writes BENCH_PR5.json; the saturation section sweeps
   offered load over the batched/pipelined/ring stack on both backends
   and writes the knee curves to BENCH_PR6.json; the wire2 section
   measures the in-place frame encoder against the legacy stage-then-copy
   path, re-runs the batched live knee over the poll(2) loop, times the
   chaos sweep at --jobs 1/2/4 and writes BENCH_PR10.json. *)

module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Experiment = Ics_workload.Experiment
module Figures = Ics_workload.Figures
module Scenarios = Ics_workload.Scenarios
module Table = Ics_prelude.Table
module Stats = Ics_prelude.Stats
module Quorum = Ics_consensus.Quorum
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

let section title = Format.printf "@.##### %s #####@.@." title

(* --- The paper's figures ------------------------------------------------ *)

let run_figures ~quick =
  section "Paper figures (latency in ms; '*' marks saturated cells)";
  List.iter
    (fun f ->
      let table = Figures.run ~quick f in
      Table.print table;
      Format.printf "paper shape: %s@.@." f.Figures.paper_shape)
    Figures.all

(* --- Adversarial scenarios (S2.2, S3.3.2) ------------------------------- *)

let run_scenarios () =
  section "Violation scenarios (viol-ct = S2.2, viol-mr = S3.3.2)";
  List.iter
    (fun o -> Format.printf "%a@." Scenarios.pp_outcome o)
    [
      Scenarios.validity_scenario Scenarios.Faulty_ids;
      Scenarios.validity_scenario Scenarios.Indirect;
      Scenarios.mr_scenario Scenarios.Naive;
      Scenarios.mr_scenario Scenarios.Indirect_mr;
    ]

(* --- Ablations ----------------------------------------------------------- *)

(* abl-network: the latency-vs-throughput knee depends on the contention
   model.  Same P-III hosts, same 100 Mbit NICs — half-duplex shared
   segment vs full-duplex switch.  This isolates the fabric as a
   load-bearing modelling choice (and justifies reading the paper's
   "100 Base-TX Ethernet" as switched: the bus column collapses under
   loads their testbed demonstrably sustained). *)
let ablation_network ~quick =
  section "Ablation abl-network: fig1b sweep, shared bus vs switched (same hosts)";
  let sizes = [ 0; 1000; 2000; 3000; 4000 ] in
  let table =
    Table.create ~title:"indirect consensus, n=3, 800 msg/s, Setup 1 hosts"
      ~columns:[ "size[B]"; "shared-bus[ms]"; "switched[ms]" ]
  in
  List.iter
    (fun size ->
      let cell setup =
        let config = { Stack.abcast_indirect with Stack.setup } in
        let scale = if quick then 0.25 else 1.0 in
        let load =
          {
            Experiment.throughput = 800.0;
            body_bytes = size;
            duration = 500.0 +. (scale *. 4_000.0);
            warmup = 500.0;
          }
        in
        let r = Experiment.run config load in
        let saturated =
          (not r.Experiment.quiescent) || r.Experiment.latency.Stats.mean > 200.0
        in
        Printf.sprintf "%.3f%s" r.Experiment.latency.Stats.mean
          (if saturated then "*" else "")
      in
      Table.add_row table
        [ string_of_int size; cell Stack.Setup1_shared_bus; cell Stack.Setup1 ])
    sizes;
  Table.print table;
  Format.printf
    "expectation: the shared segment saturates ('*') as payloads grow while the@.\
     switch carries the same load — the contention model, isolated.@."

(* abl-quorum: MR-indirect's resilience boundary f < n/3, measured.  For
   each n we crash f processes and report whether atomic broadcast still
   terminates for the survivors. *)
let ablation_quorum () =
  section "Ablation abl-quorum: MR-indirect liveness at the f < n/3 boundary";
  let table =
    Table.create ~title:"MR-indirect: crashes vs termination (ideal LAN)"
      ~columns:[ "n"; "quorum"; "f"; "f<n/3"; "delivered-by-survivors" ]
  in
  List.iter
    (fun (n, f) ->
      let config =
        {
          Stack.default_config with
          Stack.n;
          algo = Stack.Mr;
          setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.1 };
          fd_kind = Stack.Oracle 10.0;
        }
      in
      let stack = Stack.create config in
      let engine = stack.Stack.engine in
      for c = 0 to f - 1 do
        Ics_sim.Engine.crash_at engine (n - 1 - c) ~at:1.0
      done;
      (* Survivors broadcast after the crashes have settled. *)
      Ics_sim.Engine.schedule engine ~at:40.0 (fun () ->
          ignore (Stack.abroadcast stack ~src:0 ~body_bytes:16));
      Stack.run ~until:3_000.0 ~max_events:3_000_000 stack;
      let delivered = List.length (Abcast.delivered_sequence stack.Stack.abcast 0) in
      Table.add_row table
        [
          string_of_int n;
          string_of_int (Quorum.two_thirds ~n);
          string_of_int f;
          string_of_bool (f <= Quorum.max_faults_two_thirds ~n);
          string_of_int delivered;
        ])
    [ (3, 0); (3, 1); (4, 1); (5, 1); (5, 2); (6, 1); (6, 2); (7, 2); (7, 3) ];
  Table.print table;
  Format.printf
    "expectation: delivered=1 exactly on rows where f<n/3 is true — the paper's@.\
     resilience loss (S3.3.3) made measurable.@."

(* abl-rb: message complexity of the three broadcast substrates in good
   runs, per abcast (the O(n) vs O(n^2) axis of S4.4).  Per-layer
   transport statistics isolate broadcast-layer messages from consensus
   traffic, so fd-relay's good-run count is exactly n-1. *)
let ablation_broadcast_cost ~quick =
  section "Ablation abl-rb: broadcast-layer messages per abcast by substrate";
  let table =
    Table.create
      ~title:"n=3..7, 64B payloads, 200 msg/s, ideal LAN (consensus column for scale)"
      ~columns:[ "n"; "flood"; "fd-relay"; "uniform"; "consensus(flood run)" ]
  in
  let scale = if quick then 0.25 else 1.0 in
  List.iter
    (fun n ->
      let run broadcast =
        let ordering =
          if broadcast = Stack.Uniform then Abcast.Consensus_on_ids
          else Abcast.Indirect_consensus
        in
        let config =
          {
            Stack.abcast_indirect with
            Stack.n;
            broadcast;
            ordering;
            setup = Stack.Ideal_lan { delay = 0.2; jitter = 0.02 };
          }
        in
        let load =
          {
            Experiment.throughput = 200.0;
            body_bytes = 64;
            duration = 500.0 +. (scale *. 3_000.0);
            warmup = 500.0;
          }
        in
        Experiment.run config load
      in
      let layer_per_abcast r layer =
        let msgs =
          List.fold_left
            (fun acc (l, m, _) -> if l = layer then acc + m else acc)
            0 r.Experiment.per_layer
        in
        float_of_int msgs /. float_of_int (max 1 r.Experiment.abroadcasts)
      in
      let flood_run = run Stack.Flood in
      Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.1f" (layer_per_abcast flood_run "rb");
          Printf.sprintf "%.1f" (layer_per_abcast (run Stack.Fd_relay) "rb");
          Printf.sprintf "%.1f" (layer_per_abcast (run Stack.Uniform) "urb");
          Printf.sprintf "%.1f" (layer_per_abcast flood_run "consensus");
        ])
    [ 3; 4; 5; 6; 7 ];
  Table.print table;
  Format.printf
    "expectation: fd-relay is exactly n-1 (O(n) good runs); flood is exactly@.\
     (n-1) + (n-1)(n-2); uniform is ~n^2 (payloads + acks) — S4.4's axis.@."

(* abl-rcv: sensitivity of Figure 3's overhead to the modelled cost of one
   rcv check.  The paper attributes the indirect-consensus overhead to
   those calls growing with the proposal size; scaling the per-identifier
   cost should scale the measured overhead roughly linearly below
   saturation and super-linearly near it. *)
let ablation_rcv_cost ~quick =
  section "Ablation abl-rcv: overhead vs rcv-check cost (fig3b's 700 msg/s point)";
  let table =
    Table.create ~title:"n=5, 1B payloads, 700 msg/s, Setup 1 hosts"
      ~columns:[ "rcv-cost-scale"; "indirect[ms]"; "faulty[ms]"; "overhead[ms]" ]
  in
  let scale_sim = if quick then 0.25 else 1.0 in
  let load =
    {
      Experiment.throughput = 700.0;
      body_bytes = 1;
      duration = 500.0 +. (scale_sim *. 4_000.0);
      warmup = 500.0;
    }
  in
  List.iter
    (fun scale ->
      let host =
        {
          Ics_net.Host.pentium3 with
          Ics_net.Host.rcv_check_fixed = Ics_net.Host.pentium3.rcv_check_fixed *. scale;
          rcv_check_per_id = Ics_net.Host.pentium3.rcv_check_per_id *. scale;
        }
      in
      let setup =
        Stack.Custom
          {
            name = Printf.sprintf "setup1-rcv-x%g" scale;
            build =
              (fun ~n -> (Ics_net.Model.switched Ics_net.Model.params_100mbps ~n, host));
          }
      in
      let run ordering =
        Experiment.run { Stack.abcast_indirect with Stack.n = 5; setup; ordering } load
      in
      let ind = run Abcast.Indirect_consensus in
      let fau = run Abcast.Consensus_on_ids in
      let mi = ind.Experiment.latency.Stats.mean in
      let mf = fau.Experiment.latency.Stats.mean in
      Table.add_row table
        [
          Printf.sprintf "%g" scale;
          Printf.sprintf "%.3f" mi;
          Printf.sprintf "%.3f" mf;
          Printf.sprintf "%.3f" (mi -. mf);
        ])
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ];
  Table.print table;
  Format.printf
    "expectation: overhead ~0 at scale 0, growing with the scale — the Figure 3@.\
     gap is the rcv cost and nothing else (the faulty column is unaffected).@."

(* ext-algo: the indirect adaptation generalized — Chandra–Toueg vs
   Mostéfaoui–Raynal vs the leader-based (Paxos-style) extension, all with
   the rcv guard, all above the same RB flood.  The paper remarks (§3.2.2)
   that Paxos and PBFT use "similar approaches"; this quantifies the
   latency profile of the three engines. *)
let extension_algorithms ~quick =
  section "Extension ext-algo: indirect consensus engines compared (Setup 1, n=3, 1B)";
  let table =
    Table.create ~title:"latency vs throughput by consensus engine"
      ~columns:[ "tput[msg/s]"; "ct[ms]"; "mr[ms]"; "lb[ms]" ]
  in
  let scale = if quick then 0.25 else 1.0 in
  List.iter
    (fun tput ->
      let cell algo =
        let config = { Stack.abcast_indirect with Stack.algo } in
        let load =
          {
            Experiment.throughput = tput;
            body_bytes = 1;
            duration = 500.0 +. (scale *. 4_000.0);
            warmup = 500.0;
          }
        in
        let r = Experiment.run config load in
        Printf.sprintf "%.3f%s" r.Experiment.latency.Stats.mean
          (if r.Experiment.quiescent then "" else "*")
      in
      Table.add_row table
        [ Printf.sprintf "%g" tput; cell Stack.Ct; cell Stack.Mr; cell Stack.Lb ])
    [ 100.; 300.; 500.; 700. ];
  Table.print table;
  Format.printf
    "expectation: MR's two-step fast path wins at low load; CT and LB pay an@.\
     extra step (coordinator proposal / accept round).  All three stay correct@.\
     under the same workloads (see the test suite's configuration matrix).@."

(* ext-scale: latency vs kernel size.  The paper's footnote 1 argues that
   ordering kernels are deliberately small; this sweep shows why — every
   stack's latency grows with n, and the O(n²)-broadcast stacks grow
   fastest. *)
let extension_scalability ~quick =
  section "Extension ext-scale: latency vs number of processes (Setup 1, 200 msg/s, 100B)";
  let table =
    Table.create ~title:"latency vs n by stack"
      ~columns:[ "n"; "indirect+flood[ms]"; "indirect+fd-relay[ms]"; "urb+ids[ms]" ]
  in
  let scale = if quick then 0.25 else 1.0 in
  let load =
    {
      Experiment.throughput = 200.0;
      body_bytes = 100;
      duration = 500.0 +. (scale *. 4_000.0);
      warmup = 500.0;
    }
  in
  List.iter
    (fun n ->
      let cell config =
        let r = Experiment.run { config with Stack.n } load in
        Printf.sprintf "%.3f%s" r.Experiment.latency.Stats.mean
          (if r.Experiment.quiescent then "" else "*")
      in
      Table.add_row table
        [
          string_of_int n;
          cell Stack.abcast_indirect;
          cell { Stack.abcast_indirect with Stack.broadcast = Stack.Fd_relay };
          cell Stack.abcast_urb;
        ])
    [ 3; 4; 5; 6; 7; 9 ];
  Table.print table;
  Format.printf
    "expectation: all grow with n; the O(n) fd-relay broadcast flattens the@.\
     curve relative to the flood, and URB's ack storm grows fastest.@."

(* --- Fault injection: the cost of lossy links ----------------------------- *)

(* What does packet loss cost once the retransmission channel heals it?
   Latency should degrade gracefully with the drop probability (each lost
   frame costs ~one RTO), and the retransmit/ack overhead quantifies the
   bandwidth price of quasi-reliability over a fair-lossy link. *)
let run_faults ~quick =
  section "Fault injection: lossy links healed by retransmission (indirect, n=3, 200 msg/s, 64B)";
  let module Nemesis = Ics_faults.Nemesis in
  let module Retransmit = Ics_net.Retransmit in
  let table =
    Table.create ~title:"per-frame drop probability vs delivery cost"
      ~columns:
        [ "drop-p"; "latency[ms]"; "retx/abcast"; "acks/abcast"; "drops"; "quiescent" ]
  in
  let scale = if quick then 0.25 else 1.0 in
  List.iter
    (fun p ->
      let fstats = ref None in
      let rstats = ref None in
      let setup =
        Stack.Custom
          {
            name = Printf.sprintf "lossy-%.2f" p;
            build =
              (fun ~n ->
                let base =
                  Ics_net.Model.constant ~delay:1.0 ~n ~seed:4242L ()
                in
                let plan =
                  if p = 0.0 then []
                  else
                    [
                      Nemesis.Drop
                        { link = Nemesis.any_link; prob = p; window = Nemesis.always };
                    ]
                in
                let lossy, fs = Nemesis.apply ~seed:7L ~plan ~base () in
                let model, rs = Retransmit.wrap lossy in
                fstats := Some fs;
                rstats := Some rs;
                (model, Ics_net.Host.instant));
          }
      in
      let config =
        { Stack.abcast_indirect with Stack.setup; fd_kind = Stack.Oracle 10.0 }
      in
      let load =
        {
          Experiment.throughput = 200.0;
          body_bytes = 64;
          duration = 500.0 +. (scale *. 2_000.0);
          warmup = 500.0;
        }
      in
      let r = Experiment.run config load in
      let ab = float_of_int (max 1 r.Experiment.abroadcasts) in
      let retx, acks =
        match !rstats with
        | Some s -> (s.Retransmit.retransmits, s.Retransmit.acks_sent)
        | None -> (0, 0)
      in
      let drops =
        match !fstats with
        | Some fs -> Ics_net.Model.Fault_stats.total_drops fs
        | None -> 0
      in
      Table.add_row table
        [
          Printf.sprintf "%.2f" p;
          Printf.sprintf "%.3f" r.Experiment.latency.Stats.mean;
          Printf.sprintf "%.2f" (float_of_int retx /. ab);
          Printf.sprintf "%.2f" (float_of_int acks /. ab);
          string_of_int drops;
          string_of_bool r.Experiment.quiescent;
        ])
    [ 0.0; 0.01; 0.05; 0.10 ];
  Table.print table;
  Format.printf
    "expectation: latency degrades gracefully with drop-p (a lost frame costs@.\
     ~one RTO); retransmits track the loss rate; every run stays quiescent.@."

(* --- Fault injection on the live backend ---------------------------------- *)

(* The lossy-link experiment replayed on real sockets: the same Nemesis
   drop plans, compiled by the same interposer, healed by the same
   retransmission channel — but over loopback TCP with forked OS
   processes.  The sim column is virtual time under a 1 ms constant-delay
   model; the live column is wall clock on loopback, so magnitudes differ
   by design and the comparison is about shape: latency degrading
   gracefully with drop-p, retransmissions tracking the loss rate, and
   the checker staying green on both backends. *)
let run_faults_live ~quick =
  section
    "Fault injection, live backend: seeded drops on loopback TCP (indirect, n=3, 64B)";
  let module Nemesis = Ics_faults.Nemesis in
  let module Retransmit = Ics_net.Retransmit in
  let module Profile = Ics_core.Profile in
  let drop_plan p =
    if p = 0.0 then []
    else [ Nemesis.Drop { link = Nemesis.any_link; prob = p; window = Nemesis.always } ]
  in
  let total key l = Option.value ~default:0 (List.assoc_opt key l) in
  let sim_cell p =
    let fstats = ref None in
    let rstats = ref None in
    let setup =
      Stack.Custom
        {
          name = Printf.sprintf "live-cmp-lossy-%.2f" p;
          build =
            (fun ~n ->
              let base = Ics_net.Model.constant ~delay:1.0 ~n ~seed:4242L () in
              let lossy, fs = Nemesis.apply ~seed:42L ~plan:(drop_plan p) ~base () in
              let model, rs = Retransmit.wrap lossy in
              fstats := Some fs;
              rstats := Some rs;
              (model, Ics_net.Host.instant));
        }
    in
    let config =
      { Stack.abcast_indirect with Stack.setup; fd_kind = Stack.Oracle 10.0 }
    in
    let scale = if quick then 0.25 else 1.0 in
    let load =
      {
        Experiment.throughput = 200.0;
        body_bytes = 64;
        duration = 500.0 +. (scale *. 2_000.0);
        warmup = 500.0;
      }
    in
    let r = Experiment.run config load in
    let ab = float_of_int (max 1 r.Experiment.abroadcasts) in
    let retx =
      match !rstats with Some s -> s.Retransmit.retransmits | None -> 0
    in
    let drops =
      match !fstats with
      | Some fs -> Ics_net.Model.Fault_stats.total_drops fs
      | None -> 0
    in
    ( r.Experiment.latency.Stats.mean,
      drops,
      float_of_int retx /. ab,
      r.Experiment.quiescent )
  in
  let live_cell p =
    let count = if quick then 10 else 25 in
    let node =
      {
        Node.default_workload with
        Node.profile =
          {
            Profile.default with
            Profile.n = 3;
            count;
            body_bytes = 64;
            gap_ms = 2.0;
            warmup_ms = 400.0;
            deadline_ms = 20_000.0;
          };
        seed = 42L;
        plan = drop_plan p;
        plan_seed = 42L;
      }
    in
    match Cluster.run { Cluster.default with Cluster.node } with
    | Error e ->
        Format.printf "drop-p %.2f: skipped (%s)@." p e;
        None
    | Ok o ->
        let ab = float_of_int (max 1 (3 * count)) in
        let l = Option.value o.latency ~default:Stats.empty_summary in
        Some
          ( l.Stats.mean,
            l.Stats.p95,
            total "drops" o.Cluster.faults,
            float_of_int (total "retransmits" o.Cluster.retx) /. ab,
            Cluster.ok o )
  in
  let rows =
    if not (Cluster.supported ()) then begin
      Format.printf "live fault runs skipped: no loopback sockets here@.";
      []
    end
    else
      List.filter_map
        (fun p ->
          match live_cell p with
          | None -> None
          | Some live -> Some (p, sim_cell p, live))
        [ 0.0; 0.05; 0.10 ]
  in
  if rows <> [] then begin
    let table =
      Table.create
        ~title:
          "same drop plan, both backends (sim latency is virtual; live is wall clock)"
        ~columns:
          [
            "drop-p";
            "sim-lat[ms]";
            "sim-drops";
            "sim-retx/ab";
            "sim-quiet";
            "live-lat[ms]";
            "live-p95[ms]";
            "live-drops";
            "live-retx/ab";
            "live-ok";
          ]
    in
    List.iter
      (fun (p, (smean, sdrops, sretx, squiet), (lmean, lp95, ldrops, lretx, lok)) ->
        Table.add_row table
          [
            Printf.sprintf "%.2f" p;
            Printf.sprintf "%.3f" smean;
            string_of_int sdrops;
            Printf.sprintf "%.2f" sretx;
            string_of_bool squiet;
            Printf.sprintf "%.2f" lmean;
            Printf.sprintf "%.2f" lp95;
            string_of_int ldrops;
            Printf.sprintf "%.2f" lretx;
            string_of_bool lok;
          ])
      rows;
    Table.print table;
    Format.printf
      "expectation: both columns degrade gracefully with drop-p and stay@.\
       checker-green; retransmits track the loss rate on each backend.@."
  end;
  let oc = open_out "BENCH_PR5.json" in
  let row_json =
    String.concat ",\n"
      (List.map
         (fun (p, (smean, sdrops, sretx, squiet), (lmean, lp95, ldrops, lretx, lok)) ->
           Printf.sprintf
             {|    {"drop_p": %.2f,
     "sim": {"latency_mean_ms": %.3f, "drops": %d, "retx_per_abcast": %.2f, "quiescent": %b},
     "live": {"latency_mean_ms": %.2f, "latency_p95_ms": %.2f, "drops": %d, "retx_per_abcast": %.2f, "checker_ok": %b}}|}
             p smean sdrops sretx squiet lmean lp95 ldrops lretx lok)
         rows)
  in
  Printf.fprintf oc
    "{\n  \"workload\": {\"n\": 3, \"ordering\": \"indirect\", \"body_bytes\": 64},\n\
    \  \"faults_live\": [\n%s\n  ]\n}\n"
    row_json;
  close_out oc;
  Format.printf "wrote BENCH_PR5.json@."

(* --- Claim verification --------------------------------------------------- *)

let run_claims ~quick =
  section "Shape claims: the paper's conclusions, machine-checked";
  let verdicts = Ics_workload.Claims.verify ~quick () in
  List.iter (fun v -> Format.printf "%a@." Ics_workload.Claims.pp_verdict v) verdicts;
  Format.printf "@.%d/%d claims hold.@."
    (List.length (List.filter (fun v -> v.Ics_workload.Claims.holds) verdicts))
    (List.length verdicts)

(* --- Wall-clock perf harness --------------------------------------------- *)

(* A fixed, deterministic workload: the latency table it produces is
   bit-identical across runs and across hot-path refactors (same seed, same
   event order), so any change in the fingerprint line signals a semantics
   change, not noise.  Wall clock and Gc.minor_words are the real-time
   costs of simulating it. *)
let perf_config = { Stack.abcast_indirect with Stack.n = 3 }

let perf_load ~quick =
  {
    Experiment.throughput = 800.0;
    body_bytes = 1000;
    duration = 500.0 +. (if quick then 5_000.0 else 20_000.0);
    warmup = 500.0;
  }

let run_perf ~quick =
  section
    (Printf.sprintf
       "Perf harness: indirect consensus, n=3, 1kB, 800 msg/s, %g s of traffic"
       ((perf_load ~quick).Experiment.duration /. 1000.0));
  let load = perf_load ~quick in
  (* Warm-up run faults in every code path before timing starts. *)
  ignore (Experiment.run perf_config { load with Experiment.duration = 600.0 });
  let measure ~check =
    Gc.compact ();
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = Experiment.run ~check perf_config load in
    let wall = Unix.gettimeofday () -. t0 in
    (r, wall, Gc.minor_words () -. minor0)
  in
  let r, wall, minor = measure ~check:false in
  let rc, wallc, minorc = measure ~check:true in
  let per_abcast m (r : Experiment.result) =
    m /. float_of_int (max 1 r.Experiment.abroadcasts)
  in
  let events_per_s (r : Experiment.result) w = float_of_int r.Experiment.events /. w in
  let table =
    Table.create ~title:"simulator wall-clock cost (real time, not virtual)"
      ~columns:[ "mode"; "wall[s]"; "events"; "events/s"; "minor-w/abcast" ]
  in
  let row name r w m =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.4f" w;
        string_of_int r.Experiment.events;
        Printf.sprintf "%.0f" (events_per_s r w);
        Printf.sprintf "%.1f" (per_abcast m r);
      ]
  in
  row "trace-off" r wall minor;
  row "trace-on+checker" rc wallc minorc;
  Table.print table;
  let s = r.Experiment.latency in
  Format.printf "fingerprint: mean=%.9f p50=%.9f p99=%.9f sent_messages=%d@."
    s.Stats.mean s.Stats.p50 s.Stats.p99 r.Experiment.sent_messages;
  (match rc.Experiment.verdict with
  | Some v -> Format.printf "checker verdict ok: %b@." (Ics_checker.Checker.ok v)
  | None -> ());
  let oc = open_out "BENCH_PR1.json" in
  Printf.fprintf oc
    {|{
  "workload": {"n": 3, "ordering": "indirect", "body_bytes": 1000,
               "throughput": 800.0, "virtual_duration_ms": %g},
  "trace_off": {"wall_s": %.4f, "events": %d, "events_per_s": %.0f,
                "abroadcasts": %d, "minor_words_per_abroadcast": %.1f},
  "trace_on_checked": {"wall_s": %.4f, "events": %d, "events_per_s": %.0f,
                       "minor_words_per_abroadcast": %.1f},
  "fingerprint": {"latency_mean_ms": %.9f, "latency_p50_ms": %.9f,
                  "latency_p99_ms": %.9f, "sent_messages": %d}
}
|}
    load.Experiment.duration wall r.Experiment.events (events_per_s r wall)
    r.Experiment.abroadcasts (per_abcast minor r) wallc rc.Experiment.events
    (events_per_s rc wallc) (per_abcast minorc rc) s.Stats.mean s.Stats.p50
    s.Stats.p99 r.Experiment.sent_messages;
  close_out oc;
  Format.printf "wrote BENCH_PR1.json@."

(* --- Wire: codec throughput + live loopback clusters --------------------- *)

module Codec = Ics_codec.Codec
module Codecs = Ics_core.Codecs

let run_wire ~quick =
  section "Wire: codec throughput and live loopback clusters";
  Codecs.ensure ();
  (* Codec throughput on the two hot payload shapes: a full application
     message riding the rb layer, and a consensus estimate carrying a
     16-id proposal. *)
  (* Constructors stay private to their layers; draw representative
     payloads from each layer's registered fuzz generator. *)
  let payload_of name =
    let rng = Ics_prelude.Rng.create 7L in
    match
      List.find_opt (fun (e : Codec.entry) -> e.Codec.name = name) (Codec.entries ())
    with
    | Some e -> e.Codec.gen rng
    | None -> Fmt.failwith "no codec named %s" name
  in
  let app = payload_of "rb.data" in
  let est = payload_of "ct.est" in
  let codec_cell name payload =
    let iters = if quick then 50_000 else 200_000 in
    let w = Buffer.create 256 in
    (* encode *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Buffer.clear w;
      Codec.encode_payload_legacy w payload
    done;
    let enc_s = Unix.gettimeofday () -. t0 in
    let bytes = Buffer.contents w in
    (* decode *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Codec.decode_payload (Ics_codec.Prim.reader bytes))
    done;
    let dec_s = Unix.gettimeofday () -. t0 in
    let mbps s = float_of_int (iters * String.length bytes) /. s /. 1e6 in
    ( name,
      String.length bytes,
      float_of_int iters /. enc_s,
      mbps enc_s,
      float_of_int iters /. dec_s,
      mbps dec_s )
  in
  let codec_rows = [ codec_cell "rb.data" app; codec_cell "ct.est" est ] in
  let table =
    Table.create ~title:"codec throughput (single core)"
      ~columns:[ "payload"; "bytes"; "enc[Mop/s]"; "enc[MB/s]"; "dec[Mop/s]"; "dec[MB/s]" ]
  in
  List.iter
    (fun (name, bytes, enc_ops, enc_mb, dec_ops, dec_mb) ->
      Table.add_row table
        [
          name;
          string_of_int bytes;
          Printf.sprintf "%.2f" (enc_ops /. 1e6);
          Printf.sprintf "%.0f" enc_mb;
          Printf.sprintf "%.2f" (dec_ops /. 1e6);
          Printf.sprintf "%.0f" dec_mb;
        ])
    codec_rows;
  Table.print table;
  (* Live loopback clusters: real processes, real TCP, checker-verified. *)
  let live_rows =
    if not (Cluster.supported ()) then begin
      Format.printf "live clusters skipped: no loopback sockets here@.";
      []
    end
    else
      List.filter_map
        (fun n ->
          let count = if quick then 20 else 50 in
          let node =
            {
              Node.default_workload with
              Node.profile =
                {
                  Ics_core.Profile.default with
                  Ics_core.Profile.n;
                  count;
                  gap_ms = 2.0;
                  deadline_ms = 30_000.0;
                };
            }
          in
          match Cluster.run { Cluster.default with Cluster.node } with
          | Error e ->
              Format.printf "n=%d: skipped (%s)@." n e;
              None
          | Ok o ->
              let l = Option.value o.latency ~default:Stats.empty_summary in
              Some (n, count, Cluster.ok o, l, o.Cluster.throughput_msg_s))
        [ 3; 5; 7 ]
  in
  if live_rows <> [] then begin
    let table =
      Table.create
        ~title:"live loopback abcast (ct, indirect, flood; every node broadcasts)"
        ~columns:
          [ "n"; "msgs/node"; "checker"; "mean[ms]"; "p95[ms]"; "p99[ms]"; "max[ms]"; "tput[msg/s]" ]
    in
    List.iter
      (fun (n, count, ok, (l : Stats.summary), tput) ->
        Table.add_row table
          [
            string_of_int n;
            string_of_int count;
            (if ok then "ok" else "FAIL");
            Printf.sprintf "%.2f" l.Stats.mean;
            Printf.sprintf "%.2f" l.Stats.p95;
            Printf.sprintf "%.2f" l.Stats.p99;
            Printf.sprintf "%.2f" l.Stats.max;
            Printf.sprintf "%.0f" tput;
          ])
      live_rows;
    Table.print table
  end;
  let oc = open_out "BENCH_PR3.json" in
  let codec_json =
    String.concat ",\n"
      (List.map
         (fun (name, bytes, enc_ops, enc_mb, dec_ops, dec_mb) ->
           Printf.sprintf
             {|    {"payload": %S, "bytes": %d, "enc_ops_s": %.0f, "enc_mb_s": %.1f, "dec_ops_s": %.0f, "dec_mb_s": %.1f}|}
             name bytes enc_ops enc_mb dec_ops dec_mb)
         codec_rows)
  in
  let live_json =
    String.concat ",\n"
      (List.map
         (fun (n, count, ok, (l : Stats.summary), tput) ->
           Printf.sprintf
             {|    {"n": %d, "msgs_per_node": %d, "checker_ok": %b, "latency_mean_ms": %.3f, "latency_p95_ms": %.3f, "latency_p99_ms": %.3f, "latency_max_ms": %.3f, "throughput_msg_s": %.0f}|}
             n count ok l.Stats.mean l.Stats.p95 l.Stats.p99 l.Stats.max tput)
         live_rows)
  in
  Printf.fprintf oc "{\n  \"codec\": [\n%s\n  ],\n  \"live_loopback\": [\n%s\n  ]\n}\n"
    codec_json live_json;
  close_out oc;
  Format.printf "wrote BENCH_PR3.json@."

(* --- Saturation: offered-load knee curves -------------------------------- *)

module Saturation = Ics_workload.Saturation
module Profile = Ics_core.Profile

(* The PR3 live headline this PR's tentpole is measured against: ct/
   indirect/flood, unbatched, n=5, from BENCH_PR3.json's live_loopback. *)
let pr3_live_msg_s = 2_525.0

let run_saturation ~quick =
  section "Saturation: batched/pipelined indirect consensus, offered-load sweep";
  Codecs.ensure ();
  let n = 5 in
  let batched = { Abcast.batch = 32; pipeline = 4; flush_ms = 1.0 } in
  let print_curve title (c : Saturation.curve) =
    let table =
      Table.create ~title
        ~columns:
          [ "offered"; "achieved"; "mean[ms]"; "p95[ms]"; "p99[ms]"; "max[ms]"; "status" ]
    in
    List.iter
      (fun (p : Saturation.point) ->
        Table.add_row table
          [
            Printf.sprintf "%.0f" p.Saturation.offered;
            Printf.sprintf "%.0f" p.Saturation.achieved;
            Printf.sprintf "%.2f" p.Saturation.latency.Stats.mean;
            Printf.sprintf "%.2f" p.Saturation.latency.Stats.p95;
            Printf.sprintf "%.2f" p.Saturation.latency.Stats.p99;
            Printf.sprintf "%.2f" p.Saturation.latency.Stats.max;
            Saturation.status p;
          ])
      c.Saturation.points;
    Table.print table;
    match Saturation.knee c with
    | Some k ->
        Format.printf "knee: %.0f msg/s achieved at %.0f offered (p99 %.2f ms)@."
          k.Saturation.achieved k.Saturation.offered k.Saturation.latency.Stats.p99;
        Some k
    | None ->
        Format.printf "knee: no points@.";
        None
  in
  let point_json (p : Saturation.point) =
    let f v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
    Printf.sprintf
      {|      {"offered": %.0f, "achieved": %.1f, "mean_ms": %s, "p95_ms": %s, "p99_ms": %s, "max_ms": %s, "util": %s, "checker_ok": %b, "clean": %b, "delivered": %d}|}
      p.Saturation.offered p.Saturation.achieved
      (f p.Saturation.latency.Stats.mean)
      (f p.Saturation.latency.Stats.p95)
      (f p.Saturation.latency.Stats.p99)
      (f p.Saturation.latency.Stats.max)
      (f p.Saturation.util) p.Saturation.checker_ok p.Saturation.clean
      p.Saturation.delivered
  in
  let curve_json (c : Saturation.curve) =
    String.concat ",\n" (List.map point_json c.Saturation.points)
  in
  let knee_json = function
    | Some (k : Saturation.point) -> Printf.sprintf "%.1f" k.Saturation.achieved
    | None -> "null"
  in
  (* Simulated sweeps: the seed shape saturates around 1 k msg/s, the
     batched/pipelined/ring shape around 4 k; past the knee the open-loop
     sim drains everything, so p99 is the overload signal. *)
  let sim_dur = if quick then 2_000.0 else 4_000.0 in
  let sim_seed =
    Saturation.sim_curve ~duration_ms:sim_dur ~n ~batching:Abcast.no_batching
      ~broadcast:Profile.Flood
      [ 250.0; 500.0; 750.0; 1_000.0; 1_500.0; 2_000.0 ]
  in
  let k_sim_seed = print_curve "sim: seed (unbatched, flood)" sim_seed in
  let sim_batched =
    Saturation.sim_curve ~duration_ms:sim_dur ~n ~batching:batched
      ~broadcast:Profile.Ring
      [ 1_000.0; 2_000.0; 3_000.0; 4_000.0; 5_000.0; 6_000.0 ]
  in
  let k_sim_batched =
    print_curve "sim: batch=32 pipeline=4 flush=1ms, ring" sim_batched
  in
  (* Live sweeps: real processes on loopback TCP.  Overload shows up as
     the drain running long (p99 explodes), never as a dirty trace. *)
  let live_seed, live_batched =
    if not (Cluster.supported ()) then begin
      Format.printf "live sweeps skipped: no loopback sockets here@.";
      (None, None)
    end
    else
      (* Best-of-3 per point: one co-tenant burst during a 1 s arrival
         window is noise, not a capacity statement (see Saturation). *)
      let seed =
        Saturation.live_curve ~duration_ms:1_000.0 ~attempts:3 ~n
          ~batching:Abcast.no_batching ~broadcast:Profile.Flood
          [ 1_000.0; 2_000.0; 3_000.0; 4_000.0 ]
      in
      let batched_c =
        Saturation.live_curve ~duration_ms:1_000.0 ~attempts:3 ~n
          ~batching:batched ~broadcast:Profile.Ring
          [ 2_000.0; 5_000.0; 8_000.0; 11_000.0; 13_000.0; 15_000.0 ]
      in
      (Some seed, Some batched_c)
  in
  let k_live_seed = Option.map (print_curve "live: seed (unbatched, flood)") live_seed in
  let k_live_batched =
    Option.map (print_curve "live: batch=32 pipeline=4 flush=1ms, ring") live_batched
  in
  (match Option.join k_live_batched with
  | Some k ->
      Format.printf "@.live knee vs BENCH_PR3 (%.0f msg/s): %.1fx@." pr3_live_msg_s
        (k.Saturation.achieved /. pr3_live_msg_s)
  | None -> ());
  let oc = open_out "BENCH_PR6.json" in
  Printf.fprintf oc
    {|{
  "n": %d,
  "config": {"batch": %d, "pipeline": %d, "flush_ms": %.1f, "dissemination": "ring", "algo": "ct", "ordering": "indirect"},
  "p99_bound_ms": %.1f,
  "sim": {
    "seed": [
%s
    ],
    "batched": [
%s
    ]
  },
  "live": {
    "seed": [
%s
    ],
    "batched": [
%s
    ]
  },
  "knee_msg_s": {"sim_seed": %s, "sim_batched": %s, "live_seed": %s, "live_batched": %s},
  "pr3_live_msg_s": %.0f
}
|}
    n batched.Abcast.batch batched.Abcast.pipeline batched.Abcast.flush_ms
    Saturation.p99_bound_ms (curve_json sim_seed) (curve_json sim_batched)
    (match live_seed with Some c -> curve_json c | None -> "")
    (match live_batched with Some c -> curve_json c | None -> "")
    (knee_json k_sim_seed) (knee_json k_sim_batched)
    (knee_json (Option.join k_live_seed))
    (knee_json (Option.join k_live_batched))
    pr3_live_msg_s;
  close_out oc;
  Format.printf "wrote BENCH_PR6.json@."

(* --- Wire2: the encode-into/poll/jobs plane ------------------------------ *)

module Bq = Ics_codec.Bq
module Chaos = Ics_workload.Chaos

(* The PR6 live headline the poll(2) rewrite is measured against:
   batch=32/pipeline=4/ring at n=5 over the select(2) loop, from
   BENCH_PR6.json's knee_msg_s.live_batched. *)
let pr6_live_msg_s = 14_906.1

(* Time one full sim sweep at a given [jobs] in a forked child: the child
   may spawn domains freely, while this process must stay fork-capable
   for the live sections (a process that ever spawned a domain can no
   longer fork). *)
let timed_sweep_in_child ~quick ~jobs =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let seeds = if quick then 2 else 4 in
      let t0 = Unix.gettimeofday () in
      let cells =
        Chaos.sweep ~seed_base:11L ~seeds
          ~progress:(fun _ -> ())
          ~jobs ~stacks:Chaos.all_stacks ~plans:Chaos.all_plans ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      let ok = Chaos.indirect_clean cells && Chaos.blackout_reproduced cells in
      let line = Printf.sprintf "%b %.6f\n" ok dt in
      let b = Bytes.of_string line in
      ignore (Unix.write w b 0 (Bytes.length b) : int);
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let buf = Bytes.create 256 in
      let n = Unix.read r buf 0 256 in
      Unix.close r;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> failwith "sweep child died");
      match Scanf.sscanf (Bytes.sub_string buf 0 n) " %B %f" (fun ok dt -> (ok, dt)) with
      | ok, dt -> (ok, dt))

let run_wire2 ~quick =
  section "Wire2: in-place frame encoding, poll(2) loop, parallel sweep";
  Codecs.ensure ();
  (* Frame encode rate: the stage-then-copy legacy path against
     encode-into — header reserved and backpatched around an in-place
     body, straight into the (drained-per-frame) outbound queue, exactly
     as the transport's emit path runs it. *)
  let payload_of name =
    let rng = Ics_prelude.Rng.create 7L in
    match
      List.find_opt (fun (e : Codec.entry) -> e.Codec.name = name) (Codec.entries ())
    with
    | Some e -> e.Codec.gen rng
    | None -> Fmt.failwith "no codec named %s" name
  in
  let iters = if quick then 100_000 else 400_000 in
  let frame_cell name =
    let payload = payload_of name in
    let b = Buffer.create 256 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Buffer.clear b;
      ignore (Codec.encode_frame_legacy b ~src:1 ~dst:2 ~layer:"consensus" payload : int)
    done;
    let legacy_s = Unix.gettimeofday () -. t0 in
    let frame_bytes = Buffer.length b in
    let q = Bq.create 256 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Codec.encode_frame q ~src:1 ~dst:2 ~layer:"consensus" payload : int);
      Bq.consume q (Bq.length q)
    done;
    let into_s = Unix.gettimeofday () -. t0 in
    ( name,
      frame_bytes,
      float_of_int iters /. legacy_s,
      float_of_int iters /. into_s,
      legacy_s /. into_s )
  in
  let enc_rows = [ frame_cell "rb.data"; frame_cell "ct.est" ] in
  let table =
    Table.create ~title:"frame encode (header+crc+body, single core)"
      ~columns:[ "payload"; "frame[B]"; "legacy[Mf/s]"; "into[Mf/s]"; "speedup" ]
  in
  List.iter
    (fun (name, bytes, legacy_fs, into_fs, speedup) ->
      Table.add_row table
        [
          name;
          string_of_int bytes;
          Printf.sprintf "%.2f" (legacy_fs /. 1e6);
          Printf.sprintf "%.2f" (into_fs /. 1e6);
          Printf.sprintf "%.2fx" speedup;
        ])
    enc_rows;
  Table.print table;
  (* Live saturation knee over the poll(2) loop, same shape as the PR6
     headline (batch=32/pipeline=4/ring, n=5, best-of-3). *)
  let batched = { Abcast.batch = 32; pipeline = 4; flush_ms = 1.0 } in
  let live_knee =
    if not (Cluster.supported ()) then begin
      Format.printf "live sweep skipped: no loopback sockets here@.";
      None
    end
    else begin
      let c =
        Saturation.live_curve ~duration_ms:1_000.0 ~attempts:3 ~n:5
          ~batching:batched ~broadcast:Profile.Ring
          [ 2_000.0; 5_000.0; 8_000.0; 11_000.0; 13_000.0; 15_000.0 ]
      in
      let table =
        Table.create ~title:"live: batch=32 pipeline=4 flush=1ms, ring, poll loop"
          ~columns:[ "offered"; "achieved"; "p99[ms]"; "status" ]
      in
      List.iter
        (fun (p : Saturation.point) ->
          Table.add_row table
            [
              Printf.sprintf "%.0f" p.Saturation.offered;
              Printf.sprintf "%.0f" p.Saturation.achieved;
              Printf.sprintf "%.2f" p.Saturation.latency.Stats.p99;
              Saturation.status p;
            ])
        c.Saturation.points;
      Table.print table;
      match Saturation.knee c with
      | Some k ->
          Format.printf "knee: %.0f msg/s; vs BENCH_PR6 select loop (%.0f): %.2fx@."
            k.Saturation.achieved pr6_live_msg_s
            (k.Saturation.achieved /. pr6_live_msg_s);
          Some k.Saturation.achieved
      | None ->
          Format.printf "knee: no points@.";
          None
    end
  in
  (* Sweep wall clock at jobs = 1/2/4.  Each level runs in its own forked
     child (domains forbid forking afterwards); speedup is bounded by the
     host's core count, which the JSON records. *)
  let cores = Domain.recommended_domain_count () in
  let jobs_rows =
    List.map
      (fun jobs ->
        let ok, dt = timed_sweep_in_child ~quick ~jobs in
        (jobs, ok, dt))
      [ 1; 2; 4 ]
  in
  let base = match jobs_rows with (_, _, dt) :: _ -> dt | [] -> Float.nan in
  let table =
    Table.create
      ~title:(Printf.sprintf "chaos sweep wall clock (%d cores available)" cores)
      ~columns:[ "jobs"; "gates"; "wall[s]"; "speedup" ]
  in
  List.iter
    (fun (jobs, ok, dt) ->
      Table.add_row table
        [
          string_of_int jobs;
          (if ok then "ok" else "FAIL");
          Printf.sprintf "%.2f" dt;
          Printf.sprintf "%.2fx" (base /. dt);
        ])
    jobs_rows;
  Table.print table;
  let oc = open_out "BENCH_PR10.json" in
  let enc_json =
    String.concat ",\n"
      (List.map
         (fun (name, bytes, legacy_fs, into_fs, speedup) ->
           Printf.sprintf
             {|    {"payload": %S, "frame_bytes": %d, "legacy_frames_s": %.0f, "into_frames_s": %.0f, "speedup": %.3f}|}
             name bytes legacy_fs into_fs speedup)
         enc_rows)
  in
  let jobs_json =
    String.concat ",\n"
      (List.map
         (fun (jobs, ok, dt) ->
           Printf.sprintf
             {|    {"jobs": %d, "gates_ok": %b, "wall_s": %.3f, "speedup": %.3f}|}
             jobs ok dt (base /. dt))
         jobs_rows)
  in
  Printf.fprintf oc
    {|{
  "encode_frame": [
%s
  ],
  "live_knee_msg_s": %s,
  "pr6_live_msg_s": %.1f,
  "cores": %d,
  "sweep_jobs": [
%s
  ]
}
|}
    enc_json
    (match live_knee with Some k -> Printf.sprintf "%.1f" k | None -> "null")
    pr6_live_msg_s cores jobs_json;
  close_out oc;
  Format.printf "wrote BENCH_PR10.json@."

(* --- Service: closed-loop client plane ----------------------------------- *)

module Service = Ics_workload.Service

(* Tens of thousands of closed-loop clients against the replicated
   KV/ledger, sim and live at n=3 and n=5.  Every point is gated by the
   abcast battery plus the application battery, and the headline number
   is what a client sees: submit -> applied-at-home p50/p99.  The
   sim/live pair at each n must land on the same final state hash. *)
let run_service ~quick =
  section "Service: closed-loop KV/ledger clients, checker- and hash-gated";
  Codecs.ensure ();
  let batching = { Abcast.batch = 256; pipeline = 8; flush_ms = 1.0 } in
  let clients = if quick then 2_000 else 10_000 in
  let requests = 1 in
  let live_ok = Cluster.supported () in
  let pair n =
    let sim = Service.sim_point ~seed:1L ~batching ~n ~clients ~requests () in
    let live =
      if not live_ok then None
      else
        match
          Service.live_point ~seed:1L ~batching ~attempts:3 ~deadline_ms:60_000.0
            ~n ~clients ~requests ()
        with
        | Ok p -> Some p
        | Error _ -> None
    in
    (n, sim, live)
  in
  let results = List.map pair [ 3; 5 ] in
  let table =
    Table.create ~title:(Printf.sprintf "service: %d closed-loop clients" clients)
      ~columns:
        [ "backend"; "n"; "cmd/s"; "p50[ms]"; "p99[ms]"; "status"; "hash" ]
  in
  let row (p : Service.point) =
    Table.add_row table
      [
        (match p.Service.backend with `Sim -> "sim" | `Live -> "live");
        string_of_int p.Service.n;
        Printf.sprintf "%.0f" p.Service.achieved;
        Printf.sprintf "%.2f" p.Service.latency.Stats.p50;
        Printf.sprintf "%.2f" p.Service.latency.Stats.p99;
        Service.status p;
        (match p.Service.hash with
        | Some (c, h) -> Printf.sprintf "%Lx@%d" h c
        | None -> "-");
      ]
  in
  List.iter
    (fun (_, sim, live) ->
      row sim;
      Option.iter row live)
    results;
  Table.print table;
  if not live_ok then
    Format.printf "live points skipped: no loopback sockets here@.";
  List.iter
    (fun (n, sim, live) ->
      match live with
      | None -> ()
      | Some lp ->
          if Service.hash_match sim lp then
            Format.printf "n=%d: sim and live state hashes agree@." n
          else Format.printf "n=%d: STATE HASH DIVERGENCE@." n)
    results;
  let point_json (p : Service.point) =
    Printf.sprintf
      {|      {"n": %d, "clients": %d, "requests": %d, "commands": %d, "achieved_cmd_s": %.1f, "p50_ms": %.3f, "p99_ms": %.3f, "mean_ms": %.3f, "checker_ok": %b, "clean": %b, "state_hash": %s, "cursor": %s}|}
      p.Service.n p.Service.clients p.Service.requests p.Service.commands
      p.Service.achieved p.Service.latency.Stats.p50
      p.Service.latency.Stats.p99 p.Service.latency.Stats.mean
      p.Service.checker_ok p.Service.clean
      (match p.Service.hash with
      | Some (_, h) -> Printf.sprintf {|"%Lx"|} h
      | None -> "null")
      (match p.Service.hash with
      | Some (c, _) -> string_of_int c
      | None -> "null")
  in
  let sims = List.map (fun (_, s, _) -> point_json s) results in
  let lives = List.filter_map (fun (_, _, l) -> Option.map point_json l) results in
  let agree =
    List.filter_map
      (fun (n, sim, live) ->
        Option.map
          (fun lp ->
            Printf.sprintf {|"n%d": %b|} n (Service.hash_match sim lp))
          live)
      results
  in
  let oc = open_out "BENCH_PR8.json" in
  Printf.fprintf oc
    {|{
  "clients": %d,
  "requests": %d,
  "config": {"batch": %d, "pipeline": %d, "flush_ms": %.1f, "algo": "ct", "ordering": "indirect"},
  "sim": [
%s
  ],
  "live": [
%s
  ],
  "hash_agreement": {%s}
}
|}
    clients requests batching.Abcast.batch batching.Abcast.pipeline
    batching.Abcast.flush_ms
    (String.concat ",\n" sims)
    (String.concat ",\n" lives)
    (String.concat ", " agree);
  close_out oc;
  Format.printf "wrote BENCH_PR8.json@."

(* --- Bechamel microbenchmarks -------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let rng_test =
    Test.make ~name:"rng.next_int64"
      (Staged.stage
         (let rng = Ics_prelude.Rng.create 1L in
          fun () -> ignore (Ics_prelude.Rng.next_int64 rng)))
  in
  let queue_test =
    Test.make ~name:"event_queue.push+pop"
      (Staged.stage
         (let q = Ics_sim.Event_queue.create () in
          let t = ref 0.0 in
          fun () ->
            t := !t +. 1.0;
            Ics_sim.Event_queue.push q ~time:!t (fun () -> ());
            ignore (Ics_sim.Event_queue.pop q)))
  in
  let proposal_test =
    Test.make ~name:"proposal.on_ids(16)"
      (Staged.stage
         (let ids = List.init 16 (fun i -> Ics_net.Msg_id.make ~origin:(i mod 5) ~seq:i) in
          fun () -> ignore (Ics_consensus.Proposal.on_ids ids)))
  in
  let stats_test =
    Test.make ~name:"stats.summarize(1k)"
      (Staged.stage
         (let data = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 997)) in
          fun () -> ignore (Ics_prelude.Stats.summarize_array data)))
  in
  let abcast_test =
    Test.make ~name:"abcast.end-to-end(1 msg, n=3, ideal)"
      (Staged.stage (fun () ->
           let config =
             {
               Stack.abcast_indirect with
               Stack.setup = Stack.Ideal_lan { delay = 0.1; jitter = 0.0 };
             }
           in
           let stack = Stack.create config in
           ignore (Stack.abroadcast stack ~src:0 ~body_bytes:8);
           Stack.run stack))
  in
  Test.make_grouped ~name:"micro"
    [ rng_test; queue_test; proposal_test; stats_test; abcast_test ]

let run_micro () =
  section "Bechamel microbenchmarks (ns per run, OLS estimate)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ clock ] (micro_tests ()) in
  let results = Analyze.all ols clock raw in
  let table =
    Table.create ~title:"microbenchmarks" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
      Table.add_row table [ name; Printf.sprintf "%.1f" est; Printf.sprintf "%.4f" r2 ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Table.print table

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "quick" args in
  let only = List.filter (fun a -> a <> "quick") args in
  let want what = only = [] || List.mem what only in
  if want "figures" then run_figures ~quick;
  if want "scenarios" then run_scenarios ();
  if want "ablations" then begin
    ablation_network ~quick;
    ablation_quorum ();
    ablation_broadcast_cost ~quick;
    ablation_rcv_cost ~quick;
    extension_algorithms ~quick;
    extension_scalability ~quick
  end;
  if want "faults" then run_faults ~quick;
  if want "faults-live" then run_faults_live ~quick;
  if want "claims" then run_claims ~quick;
  if want "micro" then run_micro ();
  if want "wire" then run_wire ~quick;
  if want "saturation" then run_saturation ~quick;
  if want "wire2" then run_wire2 ~quick;
  if want "service" then run_service ~quick;
  if want "perf" then run_perf ~quick;
  Format.printf "@.done.@."
