module Table = Ics_prelude.Table
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast

type axis = Message_size of int list | Throughput of float list

type series = { label : string; config : Stack.config }

type t = {
  id : string;
  title : string;
  axis : axis;
  throughput : float;
  body_bytes : int;
  series : series list;
  paper_shape : string;
}

let sizes_to n step = List.init ((n / step) + 1) (fun i -> i * step)

let tputs_fig3 = [ 10.; 50.; 100.; 200.; 300.; 400.; 500.; 600.; 700.; 800. ]
let tputs_fig7 = [ 500.; 750.; 1000.; 1250.; 1500.; 1750.; 2000. ]

(* Series constructors (all CT-based, as in the paper's implementation). *)
let indirect ~n ~setup ~broadcast =
  {
    label = "indirect";
    config = { Stack.abcast_indirect with n; setup; broadcast };
  }

let on_messages ~n ~setup =
  { label = "on-messages"; config = { Stack.abcast_msgs with n; setup } }

let faulty_ids ~n ~setup =
  { label = "faulty-ids"; config = { Stack.abcast_ids_faulty with n; setup } }

let urb_ids ~n ~setup =
  { label = "urb+ids"; config = { Stack.abcast_urb with n; setup } }

let fig1 id ~tput ~sizes =
  {
    id;
    title =
      Printf.sprintf
        "Fig 1%s: latency vs message size, n=3, %.0f msg/s (consensus on messages vs indirect)"
        (String.sub id 4 1) tput;
    axis = Message_size sizes;
    throughput = tput;
    body_bytes = 1;
    series =
      [
        indirect ~n:3 ~setup:Stack.Setup1 ~broadcast:Stack.Flood;
        on_messages ~n:3 ~setup:Stack.Setup1;
      ];
    paper_shape =
      "Consensus on messages degrades steeply with size; indirect stays nearly flat. \
       Gap widens with throughput.";
  }

let fig3 id ~n =
  {
    id;
    title =
      Printf.sprintf
        "Fig 3%s: latency vs throughput, n=%d, 1-byte payload (indirect vs faulty consensus on ids)"
        (String.sub id 4 1) n;
    axis = Throughput tputs_fig3;
    throughput = 0.;
    body_bytes = 1;
    series =
      [
        indirect ~n ~setup:Stack.Setup1 ~broadcast:Stack.Flood;
        faulty_ids ~n ~setup:Stack.Setup1;
      ];
    paper_shape =
      "Indirect consensus costs a rcv-check overhead that grows with throughput \
       (<=1.3ms at n=3, <=9.5ms at n=5); both curves otherwise track each other.";
  }

let fig4 id ~tput ~max_size =
  {
    id;
    title =
      Printf.sprintf
        "Fig 4%s: latency vs payload, n=5, %.0f msg/s (indirect vs faulty consensus on ids)"
        (String.sub id 4 1) tput;
    axis = Message_size (sizes_to max_size (max_size / 10));
    throughput = tput;
    body_bytes = 1;
    series =
      [
        indirect ~n:5 ~setup:Stack.Setup1 ~broadcast:Stack.Flood;
        faulty_ids ~n:5 ~setup:Stack.Setup1;
      ];
    paper_shape =
      "Overhead ratio stable across payload sizes (both algorithms only exchange ids); \
       negligible at 10 msg/s, measurable at higher throughputs.";
  }

let fig56 id ~tput ~broadcast =
  let rb = match broadcast with Stack.Fd_relay -> "O(n)" | _ -> "O(n^2)" in
  {
    id;
    title =
      Printf.sprintf
        "Fig %c%s: latency vs payload, n=3, %.0f msg/s, Setup 2, RB in %s (indirect+rb vs consensus+urb)"
        id.[3] (String.sub id 4 1) tput rb;
    axis = Message_size (sizes_to 2500 250);
    throughput = tput;
    body_bytes = 1;
    series =
      [ indirect ~n:3 ~setup:Stack.Setup2 ~broadcast; urb_ids ~n:3 ~setup:Stack.Setup2 ];
    paper_shape =
      (if broadcast = Stack.Fd_relay then
         "With O(n) reliable broadcast, indirect consensus is clearly better than \
          consensus-on-ids over uniform reliable broadcast."
       else
         "With O(n^2) reliable broadcast, indirect consensus is slightly better (URB \
          pays one extra communication step).");
  }

let fig7 id ~broadcast =
  let rb = match broadcast with Stack.Fd_relay -> "O(n)" | _ -> "O(n^2)" in
  {
    id;
    title =
      Printf.sprintf
        "Fig 7%s: latency vs throughput, n=3, 1-byte payload, Setup 2, RB in %s"
        (String.sub id 4 1) rb;
    axis = Throughput tputs_fig7;
    throughput = 0.;
    body_bytes = 1;
    series =
      [ indirect ~n:3 ~setup:Stack.Setup2 ~broadcast; urb_ids ~n:3 ~setup:Stack.Setup2 ];
    paper_shape =
      (if broadcast = Stack.Fd_relay then
         "With O(n) RB, atomic broadcast over indirect consensus is much less affected \
          by throughput than the URB-based solution."
       else
         "Both degrade with throughput; the indirect solution stays slightly ahead.");
  }

let all =
  [
    fig1 "fig1a" ~tput:100. ~sizes:(sizes_to 5000 500);
    fig1 "fig1b" ~tput:800. ~sizes:(sizes_to 4000 500);
    fig3 "fig3a" ~n:3;
    fig3 "fig3b" ~n:5;
    (* The paper's own x-ranges shrink as throughput rises (Fig 4(d) stops
       at 2000 B): beyond that the offered load exceeds testbed capacity. *)
    fig4 "fig4a" ~tput:10. ~max_size:5000;
    fig4 "fig4b" ~tput:100. ~max_size:5000;
    fig4 "fig4c" ~tput:400. ~max_size:5000;
    fig4 "fig4d" ~tput:800. ~max_size:2000;
    fig56 "fig5a" ~tput:500. ~broadcast:Stack.Flood;
    fig56 "fig5b" ~tput:1500. ~broadcast:Stack.Flood;
    fig56 "fig5c" ~tput:2000. ~broadcast:Stack.Flood;
    fig56 "fig6a" ~tput:500. ~broadcast:Stack.Fd_relay;
    fig56 "fig6b" ~tput:1500. ~broadcast:Stack.Fd_relay;
    fig56 "fig6c" ~tput:2000. ~broadcast:Stack.Fd_relay;
    fig7 "fig7a" ~broadcast:Stack.Flood;
    fig7 "fig7b" ~broadcast:Stack.Fd_relay;
  ]

let load_for ?(quick = false) t ~x =
  let throughput, body_bytes =
    match t.axis with
    | Message_size _ -> (t.throughput, int_of_float x)
    | Throughput _ -> (x, t.body_bytes)
  in
  let scale = if quick then 0.25 else 1.0 in
  (* Enough samples even on slow sweeps: at least ~400 measured messages. *)
  let measure_ms = scale *. Float.max 4000.0 (400_000.0 /. throughput) in
  let warmup = Float.max 500.0 (Float.min 1000.0 (measure_ms /. 8.0)) in
  {
    Experiment.throughput;
    body_bytes;
    duration = warmup +. measure_ms;
    warmup;
  }

let axis_values t =
  match t.axis with
  | Message_size sizes -> List.map float_of_int sizes
  | Throughput tputs -> tputs

let axis_label t =
  match t.axis with
  | Message_size _ -> "size[B]"
  | Throughput _ -> "tput[msg/s]"

let run ?(quick = false) ?(seed = 1L) ?(seeds = 1) ?(progress = fun _ -> ()) t =
  if seeds < 1 then invalid_arg "Figures.run: seeds < 1";
  let seed_list = List.init seeds (fun i -> Int64.add seed (Int64.of_int i)) in
  let xs = axis_values t in
  let columns =
    axis_label t :: List.concat_map (fun s -> [ s.label ^ "[ms]" ]) t.series
  in
  let table = Table.create ~title:(t.id ^ " — " ^ t.title) ~columns in
  List.iter
    (fun x ->
      let cells =
        List.map
          (fun s ->
            let load = load_for ~quick t ~x in
            let r =
              if seeds = 1 then Experiment.run ~seed s.config load
              else Experiment.run_seeds ~seeds:seed_list s.config load
            in
            let mean = r.Experiment.latency.Ics_prelude.Stats.mean in
            (* Saturation: either the run could not drain before the
               horizon, or latencies reached queue-buildup magnitudes. *)
            let saturated = (not r.Experiment.quiescent) || mean > 200.0 in
            progress
              (Printf.sprintf "%s %s x=%g mean=%.3fms%s" t.id s.label x mean
                 (if saturated then " (saturated)" else ""));
            Printf.sprintf "%.3f%s" mean (if saturated then "*" else ""))
          t.series
      in
      Table.add_row table (Printf.sprintf "%g" x :: cells))
    xs;
  table

(* --- Every table [ics_cli figure] prints ----------------------------------- *)

type entry = {
  name : string;
  caption : string;
  note : string;
  build :
    quick:bool -> seed:int64 -> seeds:int -> progress:(string -> unit) -> Table.t;
}

let panel ?(label = "paper") f =
  {
    name = f.id;
    caption = f.title;
    note = label ^ ": " ^ f.paper_shape;
    build = (fun ~quick ~seed ~seeds ~progress -> run ~quick ~seed ~seeds ~progress f);
  }

(* A table whose rows are not a latency sweep: it runs once, at [seed]. *)
let study name caption ~columns ~expectation rows =
  {
    name;
    caption;
    note = "expectation: " ^ expectation;
    build =
      (fun ~quick ~seed ~seeds:_ ~progress:_ ->
        let table = Table.create ~title:(name ^ " — " ^ caption) ~columns in
        List.iter (Table.add_row table) (rows ~quick ~seed);
        table);
  }

(* A load with the fixed 500 ms warmup the studies use. *)
let study_load ~quick ~tput ~size ~measure_ms =
  let scale = if quick then 0.25 else 1.0 in
  {
    Experiment.throughput = tput;
    body_bytes = size;
    duration = 500.0 +. (scale *. measure_ms);
    warmup = 500.0;
  }

let mean (r : Experiment.result) = r.Experiment.latency.Ics_prelude.Stats.mean

(* abl-network: the latency-vs-throughput knee depends on the contention
   model.  Same P-III hosts, same 100 Mbit NICs — half-duplex shared
   segment vs full-duplex switch.  This isolates the fabric as a
   load-bearing modelling choice (and justifies reading the paper's
   "100 Base-TX Ethernet" as switched: the bus column collapses under
   loads their testbed demonstrably sustained). *)
let abl_network =
  {
    id = "abl-network";
    title =
      "fig1b sweep, shared bus vs switched (indirect consensus, n=3, 800 msg/s, Setup 1 hosts)";
    axis = Message_size (sizes_to 4000 1000);
    throughput = 800.;
    body_bytes = 1;
    series =
      List.map
        (fun (label, setup) -> { label; config = { Stack.abcast_indirect with setup } })
        [ ("shared-bus", Stack.Setup1_shared_bus); ("switched", Stack.Setup1) ];
    paper_shape =
      "the shared segment saturates ('*') as payloads grow while the\n\
       switch carries the same load — the contention model, isolated.";
  }

(* How many messages process 0 A-delivers when the last [f] of [n]
   MR-indirect processes crash at 1 ms and it A-broadcasts once the
   crashes have settled (ideal LAN, oracle detector): 1 is live, 0
   blocked. *)
let mr_delivered ~seed ~n ~f =
  let stack =
    Stack.create
      {
        Stack.default_config with
        Stack.n;
        seed;
        algo = Stack.Mr;
        setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.1 };
        fd_kind = Stack.Oracle 10.0;
      }
  in
  let engine = stack.Stack.engine in
  for c = 0 to f - 1 do
    Ics_sim.Engine.crash_at engine (n - 1 - c) ~at:1.0
  done;
  Ics_sim.Engine.schedule engine ~at:40.0 (fun () ->
      ignore (Stack.abroadcast stack ~src:0 ~body_bytes:16));
  Stack.run ~until:3_000.0 ~max_events:3_000_000 stack;
  List.length (Abcast.delivered_sequence stack.Stack.abcast 0)

(* abl-quorum: MR-indirect's resilience boundary f < n/3, measured.  For
   each n, f processes crash and the row reports whether atomic broadcast
   still terminates for the survivors. *)
let abl_quorum =
  study "abl-quorum"
    "MR-indirect liveness at the f < n/3 boundary (crashes vs termination, ideal LAN)"
    ~columns:[ "n"; "quorum"; "f"; "f<n/3"; "delivered-by-survivors" ]
    ~expectation:
      "delivered=1 exactly on rows where f<n/3 is true — the paper's\n\
       resilience loss (S3.3.3) made measurable."
    (fun ~quick:_ ~seed ->
      List.map
        (fun (n, f) ->
          [
            string_of_int n;
            string_of_int (Ics_consensus.Quorum.two_thirds ~n);
            string_of_int f;
            string_of_bool (f <= Ics_consensus.Quorum.max_faults_two_thirds ~n);
            string_of_int (mr_delivered ~seed ~n ~f);
          ])
        [ (3, 0); (3, 1); (4, 1); (5, 1); (5, 2); (6, 1); (6, 2); (7, 2); (7, 3) ])

(* abl-rb: message complexity of the three broadcast substrates in good
   runs, per abcast (the O(n) vs O(n^2) axis of S4.4).  Per-layer
   transport statistics isolate broadcast-layer messages from consensus
   traffic, so fd-relay's good-run count is exactly n-1. *)
let abl_rb =
  study "abl-rb"
    "broadcast-layer messages per abcast by substrate (n=3..7, 64B payloads, 200 \
     msg/s, ideal LAN; consensus column for scale)"
    ~columns:[ "n"; "flood"; "fd-relay"; "uniform"; "consensus(flood run)" ]
    ~expectation:
      "fd-relay is exactly n-1 (O(n) good runs); flood is exactly\n\
       (n-1) + (n-1)(n-2); uniform is ~n^2 (payloads + acks) — S4.4's axis."
    (fun ~quick ~seed ->
      let load = study_load ~quick ~tput:200.0 ~size:64 ~measure_ms:3_000.0 in
      List.map
        (fun n ->
          let run broadcast =
            let ordering =
              if broadcast = Stack.Uniform then Abcast.Consensus_on_ids
              else Abcast.Indirect_consensus
            in
            Experiment.run ~seed
              {
                Stack.abcast_indirect with
                Stack.n;
                broadcast;
                ordering;
                setup = Stack.Ideal_lan { delay = 0.2; jitter = 0.02 };
              }
              load
          in
          let per_abcast r layer =
            let msgs =
              List.fold_left
                (fun acc (l, m, _) -> if l = layer then acc + m else acc)
                0 r.Experiment.per_layer
            in
            Printf.sprintf "%.1f"
              (float_of_int msgs /. float_of_int (max 1 r.Experiment.abroadcasts))
          in
          let flood = run Stack.Flood in
          [
            string_of_int n;
            per_abcast flood "rb";
            per_abcast (run Stack.Fd_relay) "rb";
            per_abcast (run Stack.Uniform) "urb";
            per_abcast flood "consensus";
          ])
        [ 3; 4; 5; 6; 7 ])

(* abl-rcv: sensitivity of Figure 3's overhead to the modelled cost of one
   rcv check.  The paper attributes the indirect-consensus overhead to
   those calls growing with the proposal size; scaling the per-identifier
   cost should scale the measured overhead roughly linearly below
   saturation and super-linearly near it. *)
let abl_rcv =
  study "abl-rcv"
    "overhead vs rcv-check cost at fig3b's 700 msg/s point (n=5, 1B payloads, Setup 1 \
     hosts)"
    ~columns:[ "rcv-cost-scale"; "indirect[ms]"; "faulty[ms]"; "overhead[ms]" ]
    ~expectation:
      "overhead ~0 at scale 0, growing with the scale — the Figure 3\n\
       gap is the rcv cost and nothing else (the faulty column is unaffected)."
    (fun ~quick ~seed ->
      let load = study_load ~quick ~tput:700.0 ~size:1 ~measure_ms:4_000.0 in
      let p3 = Ics_net.Host.pentium3 in
      List.map
        (fun scale ->
          let host =
            {
              p3 with
              Ics_net.Host.rcv_check_fixed = p3.rcv_check_fixed *. scale;
              rcv_check_per_id = p3.rcv_check_per_id *. scale;
            }
          in
          let setup =
            Stack.Custom
              {
                name = Printf.sprintf "setup1-rcv-x%g" scale;
                build =
                  (fun ~n ->
                    (Ics_net.Model.switched Ics_net.Model.params_100mbps ~n, host));
              }
          in
          let run ordering =
            mean
              (Experiment.run ~seed
                 { Stack.abcast_indirect with Stack.n = 5; setup; ordering }
                 load)
          in
          let ind = run Abcast.Indirect_consensus in
          let fau = run Abcast.Consensus_on_ids in
          [
            Printf.sprintf "%g" scale;
            Printf.sprintf "%.3f" ind;
            Printf.sprintf "%.3f" fau;
            Printf.sprintf "%.3f" (ind -. fau);
          ])
        [ 0.0; 0.5; 1.0; 2.0; 4.0 ])

(* ext-algo: the indirect adaptation generalized — Chandra–Toueg vs
   Mostéfaoui–Raynal vs the leader-based (Paxos-style) extension, all with
   the rcv guard, all above the same RB flood.  The paper remarks (§3.2.2)
   that Paxos and PBFT use "similar approaches"; this quantifies the
   latency profile of the three engines. *)
let ext_algo =
  {
    id = "ext-algo";
    title = "indirect consensus engines compared, latency vs throughput (Setup 1, n=3, 1B)";
    axis = Throughput [ 100.; 300.; 500.; 700. ];
    throughput = 0.;
    body_bytes = 1;
    series =
      List.map
        (fun (label, algo) -> { label; config = { Stack.abcast_indirect with algo } })
        [ ("ct", Stack.Ct); ("mr", Stack.Mr); ("lb", Stack.Lb) ];
    paper_shape =
      "MR's two-step fast path wins at low load; CT and LB pay an\n\
       extra step (coordinator proposal / accept round).  All three stay correct\n\
       under the same workloads (see the test suite's configuration matrix).";
  }

(* ext-scale: latency vs kernel size.  The paper's footnote 1 argues that
   ordering kernels are deliberately small; this sweep shows why — every
   stack's latency grows with n, and the O(n²)-broadcast stacks grow
   fastest. *)
let ext_scale =
  study "ext-scale"
    "latency vs number of processes by stack (Setup 1, 200 msg/s, 100B)"
    ~columns:[ "n"; "indirect+flood[ms]"; "indirect+fd-relay[ms]"; "urb+ids[ms]" ]
    ~expectation:
      "all grow with n; the O(n) fd-relay broadcast flattens the\n\
       curve relative to the flood, and URB's ack storm grows fastest."
    (fun ~quick ~seed ->
      let load = study_load ~quick ~tput:200.0 ~size:100 ~measure_ms:4_000.0 in
      List.map
        (fun n ->
          let cell config =
            let r = Experiment.run ~seed { config with Stack.n } load in
            Printf.sprintf "%.3f%s" (mean r) (if r.Experiment.quiescent then "" else "*")
          in
          [
            string_of_int n;
            cell Stack.abcast_indirect;
            cell { Stack.abcast_indirect with Stack.broadcast = Stack.Fd_relay };
            cell Stack.abcast_urb;
          ])
        [ 3; 4; 5; 6; 7; 9 ])

(* lossy: what packet loss costs once the retransmission channel heals it.
   Each row installs a seeded drop plan (plan seed 7) on the stack's
   transport, healed by the retransmission channel a live node installs.
   Latency should degrade gracefully with the drop probability (each lost
   frame costs ~one RTO), and the retransmit/ack overhead quantifies the
   bandwidth price of quasi-reliability over a fair-lossy link. *)
let lossy =
  study "lossy"
    "per-frame drop probability vs delivery cost, healed by retransmission \
     (indirect, n=3, 200 msg/s, 64B)"
    ~columns:
      [ "drop-p"; "latency[ms]"; "retx/abcast"; "acks/abcast"; "drops"; "quiescent" ]
    ~expectation:
      "latency degrades gracefully with drop-p (a lost frame costs\n\
       ~one RTO); retransmits track the loss rate; every run stays quiescent."
    (fun ~quick ~seed ->
      let module Nemesis = Ics_faults.Nemesis in
      let module Retransmit = Ics_net.Retransmit in
      let load = study_load ~quick ~tput:200.0 ~size:64 ~measure_ms:2_000.0 in
      let config =
        {
          Stack.abcast_indirect with
          Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
          fd_kind = Stack.Oracle 10.0;
        }
      in
      List.map
        (fun p ->
          let plan =
            if p = 0.0 then []
            else
              [ Nemesis.Drop { link = Nemesis.any_link; prob = p; window = Nemesis.always } ]
          in
          let counters = ref None in
          let prepare (stack : Stack.t) =
            counters :=
              Some (Nemesis.install stack.Stack.transport ~seed:7L ~plan ~retransmit:true)
          in
          let r = Experiment.run ~seed ~prepare config load in
          let faults, channel = Option.get !counters in
          let rs = Retransmit.channel_stats (Option.get channel) in
          let per_abcast count =
            Printf.sprintf "%.2f"
              (float_of_int count /. float_of_int (max 1 r.Experiment.abroadcasts))
          in
          [
            Printf.sprintf "%.2f" p;
            Printf.sprintf "%.3f" (mean r);
            per_abcast rs.Retransmit.retransmits;
            per_abcast rs.Retransmit.acks_sent;
            string_of_int (Ics_net.Model.Fault_stats.total_drops faults);
            string_of_bool r.Experiment.quiescent;
          ])
        [ 0.0; 0.01; 0.05; 0.10 ])

let registry =
  List.map panel all
  @ [
      panel ~label:"expectation" abl_network;
      abl_quorum;
      abl_rb;
      abl_rcv;
      panel ~label:"expectation" ext_algo;
      ext_scale;
      lossy;
    ]

let find name = List.find_opt (fun e -> e.name = name) registry
let ids () = List.map (fun e -> e.name) registry
