(* The suite's metric and workload tables: the single source of
   BENCHMARK.json ([describe]) and of the bounds [compare] applies. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type workload = {
  w_name : string;
  simulated : bool;  (** runs on the deterministic simulator *)
  why : string;
}

(* Names are stable: recorded results and comparisons refer to them. *)
let workloads =
  [
    {
      w_name = "live-open";
      simulated = false;
      why =
        "Open-loop n=3 loopback cluster, ring + batch 32 at 2k msg/s: socket, \
         codec, Bq and poll path at a rate carried without queueing, so \
         per-message path cost sets latency";
    };
    {
      w_name = "live-service";
      simulated = false;
      why =
        "Closed-loop KV/ledger clients on a flood-disseminated n=3 cluster: the \
         same live path through the app layer and the app checker, which \
         live-open bypasses";
    };
    {
      w_name = "sim-steady";
      simulated = true;
      why =
        "The paper's symmetric Poisson load on the simulator, unbatched: engine, \
         event queue, network model and consensus handlers do all the work, \
         with no sockets or codec";
    };
    {
      w_name = "sim-faults";
      simulated = true;
      why =
        "Chaos sweep (3 stacks x 7 fault plans, app battery) plus \
         coordinator-crash failover cells: fault plane, retransmission and \
         checker on about a thousand short traced runs per repetition";
    };
  ]

(* Every workload reports every end-to-end metric, each in its own terms
   (README.md defines them per workload).  [bounds] holds one bound per
   workload, in table order: the share of the base median a change may
   worsen the metric by, sized from the spread measured on that workload
   (README.md records the spreads).  BENCHMARK.json carries the largest.
   With [virtual_on_sim] the metric is a virtual-time number on the
   simulated workloads, exact for a given seed. *)
type e2e = {
  e_name : string;
  e_unit : string;
  e_better : better;
  bounds : float list;
  virtual_on_sim : bool;
}

let latency_p50 = "latency_p50_ms"
let latency_tail = "latency_tail_ms"
let throughput = "throughput_per_s"
let setup = "setup_s"

let end_to_end =
  [
    {
      e_name = latency_p50;
      e_unit = "ms";
      e_better = Lower;
      bounds = [ 0.25; 0.20; 0.05; 0.10 ];
      virtual_on_sim = true;
    };
    {
      e_name = latency_tail;
      e_unit = "ms";
      e_better = Lower;
      bounds = [ 0.25; 0.25; 0.10; 0.10 ];
      virtual_on_sim = true;
    };
    {
      e_name = throughput;
      e_unit = "1/s";
      e_better = Higher;
      bounds = [ 0.05; 0.25; 0.05; 0.05 ];
      virtual_on_sim = true;
    };
    {
      e_name = setup;
      e_unit = "s";
      e_better = Lower;
      bounds = [ 0.10; 0.10; 0.25; 0.25 ];
      virtual_on_sim = false;
    };
  ]

let find_e2e name = List.find_opt (fun m -> m.e_name = name) end_to_end
let find_workload name = List.find_opt (fun w -> w.w_name = name) workloads
let bound m = List.fold_left Float.max 0.0 m.bounds

let bound_on m ~workload =
  List.assoc_opt workload (List.combine (List.map (fun w -> w.w_name) workloads) m.bounds)

let exact_on m ~workload =
  m.virtual_on_sim
  && match find_workload workload with Some w -> w.simulated | None -> false

type layer = { l_name : string; l_unit : string; l_better : better }

let codec_tags = [ "rb.ring"; "rb.data"; "ct.est"; "ct.decide"; "app.submit" ]
let layer ?(better = Lower) l_name l_unit = { l_name; l_unit; l_better = better }

(* What each one should move is tabled in README.md. *)
let per_layer =
  List.concat_map
    (fun tag ->
      [
        layer ("codec.encode_frame_ns." ^ tag) "ns";
        layer ("codec.decode_ns." ^ tag) "ns";
        layer ("codec.minor_words_per_frame." ^ tag) "words";
      ])
    codec_tags
  @ [
      layer "bq.reserve_patch_advance_ns" "ns";
      layer ~better:Higher "sim.events_per_s" "1/s";
      layer "sim.event_queue_push_pop_ns" "ns";
      layer "sim.events_per_abcast" "count";
      layer "sim.minor_words_per_abcast" "words";
      layer "sim.util_max" "ratio";
      layer "sim.trace_overhead_ratio" "ratio";
    ]
  @ List.concat_map
      (fun l ->
        [
          layer (Printf.sprintf "net.%s.msgs_per_abcast" l) "count";
          layer (Printf.sprintf "net.%s.bytes_per_abcast" l) "bytes";
        ])
      [ "rb"; "consensus"; "fd" ]
  @ [
      layer "net.retransmits_per_run" "count";
      layer "net.acks_per_run" "count";
      layer "faults.drops_per_run" "count";
      layer "faults.dups_per_run" "count";
    ]
  @ List.concat_map
      (fun s -> [ layer (s ^ "_mean_ms") "ms"; layer (s ^ "_p50_ms") "ms" ])
      [
        "broadcast.disseminate";
        "abcast.propose_wait";
        "consensus.decide";
        "abcast.commit_wait";
      ]
  @ [
      layer "abcast.mean_ms" "ms";
      layer "abcast.p99_ms" "ms";
      layer ~better:Higher "consensus.ids_per_decision" "count";
      layer ~better:Higher "consensus.decisions_per_s" "1/s";
      layer "checker.of_trace_s" "s";
      layer "checker.abcast_s" "s";
      layer "checker.app_s" "s";
      layer ~better:Higher "checker.events_per_s" "1/s";
      layer "app.machine_apply_ns" "ns";
      layer "app.hash_us" "us";
      layer "fd.detect_ms" "ms";
      layer "consensus.recover_ms" "ms";
      layer "consensus.undecided_per_cell" "count";
    ]

(* ------------------------------------------------------------------ *)
(* describe                                                            *)
(* ------------------------------------------------------------------ *)

let run_seconds = 20
let paths = [ "bench/suite" ]

let command =
  [
    "dune"; "exec"; "--root"; "."; "--display"; "quiet"; "bench/suite/ics_bench.exe";
    "--"; "run";
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Fixed formatting: the committed BENCHMARK.json is diffed against it. *)
let benchmark_json () =
  let list items = String.concat ",\n" items in
  let strings l = "[" ^ String.concat ", " (List.map json_string l) ^ "]" in
  Printf.sprintf
    "{\n\
    \  \"command\": %s,\n\
    \  \"paths\": %s,\n\
    \  \"run_seconds\": %d,\n\
    \  \"workloads\": [\n\
     %s\n\
    \  ],\n\
    \  \"end_to_end\": [\n\
     %s\n\
    \  ],\n\
    \  \"per_layer\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    (strings command) (strings paths) run_seconds
    (list
       (List.map
          (fun w ->
            Printf.sprintf "    {\"name\": %s, \"why\": %s}" (json_string w.w_name)
              (json_string w.why))
          workloads))
    (list
       (List.map
          (fun m ->
            Printf.sprintf
              "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
              (json_string m.e_name) (json_string m.e_unit)
              (json_string (better_name m.e_better))
              (bound m))
          end_to_end))
    (list
       (List.map
          (fun l ->
            Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s}"
              (json_string l.l_name) (json_string l.l_unit)
              (json_string (better_name l.l_better)))
          per_layer))
