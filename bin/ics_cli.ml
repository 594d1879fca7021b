(* Command-line driver for the indirect-consensus atomic broadcast
   simulator: run single experiments, regenerate the paper's figures, and
   replay the adversarial scenarios. *)

open Cmdliner
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Experiment = Ics_workload.Experiment
module Figures = Ics_workload.Figures
module Scenarios = Ics_workload.Scenarios
module Chaos = Ics_workload.Chaos
module Table = Ics_prelude.Table
module Stats = Ics_prelude.Stats

(* Profile flags are not written by hand: every command that takes a
   stack shape (and, for the live commands, a workload) folds the
   relevant [Profile.specs] rows into one cmdliner term.  Adding a knob
   to the profile adds the flag to every command at once. *)
let profile_term ?(specs = Profile.specs) base =
  List.fold_left
    (fun term (spec : Profile.spec) ->
      let arg =
        Arg.(
          value
          & opt (some string) None
          & info spec.Profile.keys ~docv:spec.Profile.docv ~doc:spec.Profile.doc
              ~absent:(spec.Profile.get base))
      in
      let apply profile = function
        | None -> profile
        | Some value -> (
            match spec.Profile.set profile value with
            | Ok profile -> profile
            | Error msg ->
                Format.eprintf "ics-cli: %s@." msg;
                exit 2)
      in
      Term.(const apply $ term $ arg))
    (Term.const base) specs

(* Selected rows of the flag table, under their canonical name only (a
   command that never had a row's aliases does not grow them). *)
let spec_rows keys =
  List.map
    (fun key ->
      let spec =
        List.find (fun (s : Profile.spec) -> List.hd s.Profile.keys = key) Profile.specs
      in
      { spec with Profile.keys = [ key ] })
    keys

(* The live commands' exit 2: this environment has no loopback sockets,
   which the smoke targets treat as a skip, not a failure. *)
let skip_live cmd reason =
  Format.eprintf "%s: skip: %s@." cmd reason;
  exit 2

let require_sockets cmd =
  if not (Ics_runtime.Cluster.supported ()) then
    skip_live cmd "loopback sockets unavailable in this environment"

(* The verdict of a single-cell replay check; a divergence fails the run. *)
let report_replay ~what = function
  | Ok fp -> Format.printf "replay check: bit-identical (%s)@." fp
  | Error (a, b) ->
      Format.printf "FAIL: %s cell replayed differently: %s vs %s@." what a b;
      exit 1

let setup_conv =
  Arg.enum
    [
      ("setup1", Stack.Setup1);
      ("setup2", Stack.Setup2);
      ("ideal", Stack.Ideal_lan { delay = 1.0; jitter = 0.1 });
    ]

let stack_config_of_profile (p : Profile.t) =
  {
    Stack.default_config with
    n = p.Profile.n;
    algo = p.Profile.algo;
    ordering = p.Profile.ordering;
    broadcast = p.Profile.broadcast;
    batching = Profile.batching p;
  }

(* `run` command: one configuration under one load. *)

let run_cmd =
  let exec profile setup tput size duration seed check =
    let config = { (stack_config_of_profile profile) with Stack.setup; seed } in
    let load =
      {
        Experiment.throughput = tput;
        body_bytes = size;
        duration = duration *. 1000.0;
        warmup = Float.min 1000.0 (duration *. 100.0);
      }
    in
    let r = Experiment.run ~check config load in
    Format.printf "config: n=%d algo=%s ordering=%s broadcast=%s@."
      profile.Profile.n
      (Profile.algo_to_string profile.Profile.algo)
      (Profile.ordering_to_string profile.Profile.ordering)
      (Profile.broadcast_to_string profile.Profile.broadcast);
    Format.printf "load: %.0f msg/s, %d B payloads, %.1f s@." tput size duration;
    Format.printf "latency: %a@." Stats.pp_summary r.Experiment.latency;
    Format.printf "measured=%d abroadcasts=%d transport-messages=%d wire-bytes=%d@."
      r.Experiment.measured r.Experiment.abroadcasts r.Experiment.sent_messages
      r.Experiment.sent_bytes;
    Format.printf "quiescent=%b (virtual time %.1f ms)@." r.Experiment.quiescent
      r.Experiment.wall_clock;
    (match r.Experiment.verdict with
    | Some v -> Format.printf "checker: %a@." Ics_checker.Checker.pp_verdict v
    | None -> ());
    (match r.Experiment.utilization with
    | [] -> ()
    | util ->
        let busiest =
          List.sort (fun (_, a) (_, b) -> Float.compare b a) util
          |> List.filteri (fun i _ -> i < 4)
        in
        Format.printf "busiest resources:%s@."
          (String.concat ""
             (List.map (fun (name, u) -> Printf.sprintf " %s=%.0f%%" name (u *. 100.0))
                busiest)));
    if not r.Experiment.quiescent then exit 2
  in
  let profile = profile_term ~specs:Profile.stack_specs Profile.default in
  let setup =
    Arg.(value & opt setup_conv Stack.Setup1 & info [ "setup" ] ~doc:"setup1, setup2 or ideal.")
  in
  let tput =
    Arg.(value & opt float 100.0 & info [ "throughput" ] ~doc:"Global rate, msgs/s.")
  in
  let size = Arg.(value & opt int 1 & info [ "size" ] ~doc:"Payload bytes.") in
  let duration = Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Seconds of arrivals.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Simulation seed.") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Validate the trace against the formal properties.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one atomic-broadcast configuration under a synthetic load")
    Term.(const exec $ profile $ setup $ tput $ size $ duration $ seed $ check)

(* `figure` command: regenerate one of the paper's figures (or all). *)

let figure_cmd =
  let exec id quick csv seed seeds verbose =
    let figures =
      if id = "all" then Figures.all
      else
        match Figures.find id with
        | Some f -> [ f ]
        | None ->
            Format.eprintf "unknown figure %s; available: %s@." id
              (String.concat ", " (Figures.ids ()));
            exit 1
    in
    List.iter
      (fun f ->
        let progress = if verbose then fun s -> Format.eprintf "  %s@." s else fun _ -> () in
        let table = Figures.run ~quick ~seed ~seeds ~progress f in
        if csv then print_string (Table.to_csv table) else Table.print table;
        if not csv then
          Format.printf "paper: %s@.@." f.Figures.paper_shape)
      figures
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc:"Figure id or 'all'.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Quarter-length runs.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"CSV output.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Simulation seed.") in
  let seeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~doc:"Pool results over this many seeds.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-cell progress on stderr.") in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a figure of the paper's evaluation")
    Term.(const exec $ id $ quick $ csv $ seed $ seeds $ verbose)

(* `violation` command: the adversarial scenarios. *)

let violation_cmd =
  let exec which =
    let outcomes =
      match which with
      | "ct" ->
          [
            Scenarios.validity_scenario Scenarios.Faulty_ids;
            Scenarios.validity_scenario Scenarios.Indirect;
          ]
      | "mr" ->
          [ Scenarios.mr_scenario Scenarios.Naive; Scenarios.mr_scenario Scenarios.Indirect_mr ]
      | _ ->
          Format.eprintf "unknown scenario %s (ct or mr)@." which;
          exit 1
    in
    List.iter (fun o -> Format.printf "%a@." Scenarios.pp_outcome o) outcomes
  in
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"'ct' (S2.2) or 'mr' (S3.3.2).")
  in
  Cmd.v
    (Cmd.info "violation"
       ~doc:"Replay the paper's counterexamples (faulty vs indirect consensus)")
    Term.(const exec $ which)

(* `trace` command: run a small configuration and dump the full protocol
   trace — invaluable for studying an execution step by step. *)

let trace_cmd =
  let exec profile messages crash csv =
    let config =
      {
        (stack_config_of_profile profile) with
        Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
        fd_kind = Stack.Oracle 10.0;
      }
    in
    let n = profile.Profile.n in
    let stack = Stack.create config in
    let engine = stack.Stack.engine in
    for i = 0 to messages - 1 do
      Ics_sim.Engine.schedule engine ~at:(1.0 +. (5.0 *. float_of_int i)) (fun () ->
          ignore (Stack.abroadcast stack ~src:(i mod n) ~body_bytes:16))
    done;
    (match crash with
    | Some p -> Ics_sim.Engine.crash_at engine p ~at:10.0
    | None -> ());
    Stack.run ~until:10_000.0 stack;
    let trace = Ics_sim.Engine.trace engine in
    if csv then begin
      print_endline "time_ms,pid,event";
      List.iter
        (fun (e : Ics_sim.Trace.event) ->
          Printf.printf "%.3f,p%d,%s\n" e.time e.pid
            (Format.asprintf "%a" Ics_sim.Trace.pp_kind e.kind))
        (Ics_sim.Trace.events trace)
    end
    else begin
      Format.printf "%a" Ics_sim.Trace.pp trace;
      Format.printf "@.-- %d trace events, stack: %s@." (Ics_sim.Trace.length trace)
        (Stack.describe stack)
    end
  in
  let profile = profile_term ~specs:Profile.stack_specs Profile.default in
  let messages = Arg.(value & opt int 2 & info [ "messages" ] ~doc:"How many abroadcasts.") in
  let crash =
    Arg.(value & opt (some int) None & info [ "crash" ] ~doc:"Crash this process at t=10ms.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"CSV output.") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the full protocol trace of a small execution")
    Term.(const exec $ profile $ messages $ crash $ csv)

(* `chaos` command: seeded fault-injection sweep over stacks × plans,
   simulated by default or — with --live — run as forked loopback-TCP
   clusters judged by the same checker. *)

let chaos_cmd =
  let exec seeds seed_base n stacks plans profile no_retransmit app live
      replay_check jobs jobs_check verbose =
    let batching = Profile.batching profile in
    let parse_csv ~what ~of_string ~all s =
      if s = "all" then all
      else
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map (fun name ->
               match of_string name with
               | Some v -> v
               | None ->
                   Format.eprintf "unknown %s %s@." what name;
                   exit 2)
    in
    let stacks =
      parse_csv ~what:"stack" ~of_string:Chaos.stack_of_string
        ~all:Chaos.all_stacks stacks
    in
    let plans =
      parse_csv ~what:"plan" ~of_string:Chaos.plan_of_string
        ~all:Chaos.all_plans plans
    in
    let backend = if live then `Live else `Sim in
    if live then require_sockets "chaos";
    if jobs < 1 then begin
      Format.eprintf "chaos: --jobs must be >= 1@.";
      exit 2
    end;
    if live && jobs > 1 then
      Format.eprintf
        "chaos: note: --live forks node processes, so the sweep runs with \
         --jobs 1@.";
    let progress =
      if verbose then fun s -> Format.eprintf "  %s@." s else fun _ -> ()
    in
    let cells =
      Chaos.sweep ~backend ~batching ~app ~retransmit:(not no_retransmit) ?n
        ~seed_base ~seeds ~progress ~jobs ~stacks ~plans ()
    in
    Chaos.report ~verbose Format.std_formatter cells;
    if jobs_check then begin
      if live then begin
        Format.eprintf "chaos: --jobs-check needs the sim backend@.";
        exit 2
      end;
      (* The jobs-determinism fence: the same sweep at --jobs 1 and at
         the requested width must agree on every run's fingerprint, not
         just on the failures the matrix shows. *)
      let fingerprints j =
        Chaos.sweep_results ~batching ~app ~retransmit:(not no_retransmit) ?n
          ~seed_base ~seeds ~jobs:j ~stacks ~plans ()
        |> List.concat_map (fun (_, results) ->
               List.map (fun r -> r.Chaos.fingerprint) results)
      in
      let wide = max jobs 2 in
      if fingerprints 1 = fingerprints wide then
        Format.printf
          "jobs check: %d run(s) fingerprint-identical at --jobs 1 and \
           --jobs %d@."
          (List.length stacks * List.length plans * seeds)
          wide
      else begin
        Format.printf
          "FAIL: jobs check — sweep fingerprints differ between --jobs 1 \
           and --jobs %d@."
          wide;
        exit 1
      end
    end;
    if replay_check then begin
      if live then
        Format.printf
          "replay check: skipped — live scheduling is not deterministic \
           (fault counters are; the sweep above already used them)@."
      else
        let mismatches =
          Chaos.replay_check ~batching ~app ~retransmit:(not no_retransmit) ?n
            ~seed_base ~jobs ~stacks ~plans ()
        in
        match mismatches with
        | [] ->
            Format.printf "replay check: %d cell(s) reran bit-identically@."
              (List.length stacks * List.length plans)
        | ms ->
            Format.printf
              "FAIL: replay check found nondeterminism — seeded reruns \
               diverged:@.";
            List.iter
              (fun m -> Format.printf "  %a@." Chaos.pp_mismatch m)
              ms;
            exit 1
    end;
    if not (Chaos.blackout_reproduced cells) then begin
      Format.printf
        "FAIL: the ct-on-ids x blackout cell passed on the %s backend — \
         the paper's S2.2 violation should always reproduce@."
        (Chaos.backend_name backend);
      exit 1
    end;
    if Chaos.indirect_clean cells then begin
      Format.printf "indirect stacks clean over %d seeds (%s backend)@." seeds
        (Chaos.backend_name backend);
      if List.exists (fun c -> c.Chaos.failures <> []) cells then
        Format.printf
          "on-ids failures above are expected: that stack is the paper's \
           counterexample@."
    end
    else begin
      Format.printf "FAIL: an indirect stack violated its properties@.";
      exit 1
    end
  in
  let seeds =
    Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"Seeds per (stack, plan) cell.")
  in
  let seed_base =
    Arg.(value & opt int64 1L & info [ "seed-base" ] ~doc:"First seed; cell seeds are base..base+seeds-1.")
  in
  let n =
    Arg.(value & opt (some int) None & info [ "n" ] ~doc:"Override the per-stack process count.")
  in
  let stacks =
    Arg.(
      value & opt string "all"
      & info [ "stacks" ] ~doc:"Comma-separated: ct-indirect, mr-indirect, ct-on-ids; or 'all'.")
  in
  let plans =
    Arg.(
      value & opt string "all"
      & info [ "plans" ]
          ~doc:"Comma-separated: drop, dup, reorder, partition, storm, blackout, mixed; or 'all'.")
  in
  let profile =
    profile_term ~specs:(spec_rows [ "batch"; "pipeline"; "flush" ]) Profile.default
  in
  let no_retransmit =
    Arg.(
      value & flag
      & info [ "no-retransmit" ]
          ~doc:"Run directly over the lossy links, without the retransmission channel.")
  in
  let app_flag =
    Arg.(
      value & flag
      & info [ "app" ]
          ~doc:
            "Host the replicated KV/ledger machine on every cell's \
             broadcasts and add the application battery (dedup, order, \
             state-hash agreement, progress) to each verdict: a cell \
             where ordered commands never take effect fails semantically, \
             not just at the message level.")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Run each cell as a forked loopback-TCP cluster instead of a \
             simulation: the same seeded plan drives each node's transport \
             interposer and the merged trace goes through the same checker. \
             Exit 2 when the environment cannot create loopback sockets.")
  in
  let replay_check =
    Arg.(
      value & flag
      & info [ "replay-check" ]
          ~doc:
            "After the sweep, rerun one seed per (stack, plan) cell twice \
             and fail if the trace fingerprints differ — a determinism gate \
             for the replay commands the sweep prints.  Simulation only; \
             skipped (with a note) under $(b,--live).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ]
          ~doc:
            "Run up to $(docv) (stack, plan) cells concurrently on OCaml \
             domains.  Each cell's simulation stays single-domain and the \
             merged matrix, fingerprints and exit criteria are bit-identical \
             to --jobs 1; only progress-line interleaving varies.  Forced to \
             1 under $(b,--live) (live cells fork processes).")
  in
  let jobs_check =
    Arg.(
      value & flag
      & info [ "jobs-check" ]
          ~doc:
            "After the sweep, rerun it at --jobs 1 and at max(--jobs, 2) \
             and fail unless every run's trace fingerprint is identical — \
             the determinism fence on the parallel sweep.  Simulation only.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-cell progress and every failing seed.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Seeded fault-injection sweep (stacks x fault plans x seeds), simulated or live")
    Term.(
      const exec $ seeds $ seed_base $ n $ stacks $ plans $ profile
      $ no_retransmit $ app_flag $ live $ replay_check $ jobs $ jobs_check
      $ verbose)

(* Live runtime: `cluster` forks a real loopback-TCP cluster and checks
   the merged delivery logs; `node` runs a single process of one (for
   driving a cluster by hand across terminals, or as the child of
   `cluster --exec`). *)

module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster
module Trace_io = Ics_runtime.Trace_io

let cluster_cmd =
  let exec profile keep_dir use_exec =
    let spawn = if use_exec then `Exec Sys.executable_name else `Fork in
    let config =
      {
        Cluster.default with
        Cluster.node = { Node.default_workload with Node.profile };
        keep_dir;
        spawn;
      }
    in
    match Cluster.run config with
    | Error reason -> skip_live "cluster" reason
    | Ok o ->
        Format.printf "cluster: %s, %d msgs/node, %d B payloads over loopback TCP%s@."
          (Profile.describe profile) profile.Profile.count
          profile.Profile.body_bytes
          (if use_exec then " (exec spawn)" else "");
        Array.iteri
          (fun i d ->
            Format.printf "  node %d: %d/%d adelivered, exit %d@." i d
              o.Cluster.expected_per_node o.Cluster.exits.(i))
          o.Cluster.delivered_per_node;
        Option.iter (Format.printf "latency: %a@." Stats.pp_summary) o.latency;
        Format.printf "throughput: %.0f msg/s over %.1f ms (%d trace events)@."
          o.Cluster.throughput_msg_s o.Cluster.duration_ms o.Cluster.events;
        if keep_dir then Format.printf "traces: %s@." o.Cluster.trace_dir;
        Format.printf "checker: %a@." Ics_checker.Checker.pp_verdict o.Cluster.verdict;
        if not (Cluster.ok o) then exit 1
  in
  let profile = profile_term Profile.default in
  let keep_dir =
    Arg.(value & flag & info [ "keep-traces" ] ~doc:"Keep the per-node trace files.")
  in
  let use_exec =
    Arg.(
      value & flag
      & info [ "exec" ]
          ~doc:
            "Spawn children as fresh $(b,node) processes of this executable \
             (configuration passed as flags) instead of forking — exercises \
             the Profile.to_args round-trip a hand-driven cluster uses.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Fork a live n-node cluster over loopback TCP and check the merged delivery logs"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Forks $(b,--n) real OS processes, each running the full protocol stack \
              over the binary wire codec and a localhost TCP mesh. Every node \
              A-broadcasts $(b,--count) messages; the run ends when all nodes have \
              A-delivered everything (or at $(b,--timeout)). The per-node delivery \
              logs are merged and replayed through the same checker the simulator \
              uses. Exit status: 0 on success, 1 if the checker or a node failed, 2 \
              if the environment cannot create loopback sockets.";
         ])
    Term.(const exec $ profile $ keep_dir $ use_exec)

let node_cmd =
  let exec self ports profile epoch trace_out stats_out =
    let ports =
      String.split_on_char ',' ports
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some p when p > 0 && p < 65536 -> p
             | _ ->
                 Format.eprintf "node: bad port %s@." s;
                 exit 2)
    in
    let n = List.length ports in
    if n < 2 then begin
      Format.eprintf "node: need at least two ports@.";
      exit 2
    end;
    if self < 0 || self >= n then begin
      Format.eprintf "node: --self %d out of range for %d ports@." self n;
      exit 2
    end;
    let addrs =
      Array.of_list
        (List.map (fun p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)) ports)
    in
    let listen =
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (e, _, _) ->
          skip_live "node" ("cannot create sockets (" ^ Unix.error_message e ^ ")")
      | fd -> (
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          match
            Unix.bind fd addrs.(self);
            Unix.listen fd 64
          with
          | () -> fd
          | exception Unix.Unix_error (e, _, _) ->
              Format.eprintf "node: cannot bind port %d: %s@." (List.nth ports self)
                (Unix.error_message e);
              exit 2)
    in
    (* lint: allow D2 — the live node's shared time origin defaults to the real clock by design *)
    let epoch = match epoch with Some e -> e | None -> Unix.gettimeofday () in
    let config =
      {
        Node.default_workload with
        Node.self;
        profile = { profile with Profile.n };
      }
    in
    let r = Node.run ~epoch ~listen ~peer_addrs:addrs config in
    (match trace_out with
    | Some path ->
        Trace_io.save path r.Node.trace ~keep:(fun e -> e.Ics_sim.Trace.pid = self)
    | None -> ());
    (match stats_out with
    | Some path -> Trace_io.save_kv path (Node.result_kv r)
    | None -> ());
    Format.printf "node %d: %d/%d adelivered, %s@." self r.Node.delivered r.Node.expected
      (if r.Node.clean_exit then "all nodes done" else "deadline hit");
    Format.printf "net: %d frames out (%d B), %d frames in (%d B), %d decode errors@."
      r.Node.net.Ics_runtime.Socket_transport.frames_out
      r.Node.net.Ics_runtime.Socket_transport.bytes_out
      r.Node.net.Ics_runtime.Socket_transport.frames_in
      r.Node.net.Ics_runtime.Socket_transport.bytes_in
      r.Node.net.Ics_runtime.Socket_transport.decode_errors;
    if not r.Node.clean_exit then exit 10
  in
  let self =
    Arg.(required & opt (some int) None & info [ "self" ] ~doc:"This node's index into the port list.")
  in
  let ports =
    Arg.(
      required
      & opt (some string) None
      & info [ "ports" ] ~docv:"P0,P1,..."
          ~doc:"Comma-separated loopback ports, one per node; index $(b,--self) is ours.")
  in
  let profile = profile_term Profile.default in
  let epoch =
    Arg.(
      value
      & opt (some float) None
      & info [ "epoch" ]
          ~doc:"Shared time origin (seconds since the Unix epoch); defaults to now. Give \
                all nodes the same value to align their workload timers.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"PATH"
          ~doc:"Write this node's delivery log here on exit (the format Cluster merges).")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"PATH"
          ~doc:"Write this node's fault/retransmission counters here on exit.")
  in
  Cmd.v
    (Cmd.info "node"
       ~doc:"Run one live node of a cluster (for driving a cluster by hand)"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a single process of an n-node stack over loopback TCP, dialing the \
              peers in $(b,--ports). Start one in each terminal; they retry their \
              dials briefly, so start order does not matter. The process count comes \
              from the port list. Exit status: 0 when all nodes completed the \
              workload, 10 on deadline, 2 on setup errors.";
         ])
    Term.(const exec $ self $ ports $ profile $ epoch $ trace_out $ stats_out)

(* `bench` command: the saturation sweep — offered-load points on the
   sim or live backend, each point correctness-gated by the full checker
   battery, knee reported at the end. *)

module Saturation = Ics_workload.Saturation

let bench_cmd =
  let exec profile offered live duration size seed replay_check =
    let loads =
      String.split_on_char ',' offered
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match float_of_string_opt s with
             | Some v when v > 0.0 && Float.is_finite v -> v
             | _ ->
                 Format.eprintf "bench: bad offered load %s@." s;
                 exit 2)
    in
    if loads = [] then begin
      Format.eprintf "bench: --offered-load is empty@.";
      exit 2
    end;
    let n = profile.Profile.n in
    let algo = profile.Profile.algo in
    let ordering = profile.Profile.ordering in
    let broadcast = profile.Profile.broadcast in
    let batching = Profile.batching profile in
    Format.printf
      "saturation: %s dissemination=%s batch=%d pipeline=%d flush=%.1fms %s@."
      (Profile.describe profile)
      (Profile.broadcast_to_string broadcast)
      batching.Abcast.batch batching.Abcast.pipeline batching.Abcast.flush_ms
      (if live then "live" else "sim");
    if replay_check then
      report_replay ~what:"saturation"
        (Saturation.replay_check ~seed ~algo ~ordering ~n ~batching ~broadcast ());
    let curve =
      if live then begin
        require_sockets "bench";
        Saturation.live_curve ~seed ~algo ~ordering ~body_bytes:size
          ~duration_ms:(duration *. 1000.0) ~n ~batching ~broadcast loads
      end
      else
        Saturation.sim_curve ~seed ~algo ~ordering ~body_bytes:size
          ~duration_ms:(duration *. 1000.0) ~n ~batching ~broadcast loads
    in
    Format.printf
      "@.%10s %10s %9s %9s %9s %9s %6s  %s@." "offered" "achieved" "mean"
      "p95" "p99" "max" "util" "status";
    List.iter
      (fun (p : Saturation.point) ->
        Format.printf "%10.0f %10.0f %9.2f %9.2f %9.2f %9.2f %6s  %s@."
          p.Saturation.offered p.Saturation.achieved p.Saturation.latency.Stats.mean
          p.Saturation.latency.Stats.p95 p.Saturation.latency.Stats.p99
          p.Saturation.latency.Stats.max
          (if Float.is_nan p.Saturation.util then "-"
           else Printf.sprintf "%.0f%%" (p.Saturation.util *. 100.0))
          (Saturation.status p))
      curve.Saturation.points;
    (match Saturation.knee curve with
    | Some k ->
        Format.printf "@.knee: %.0f msg/s achieved at %.0f offered (p99 %.2f ms)@."
          k.Saturation.achieved k.Saturation.offered k.Saturation.latency.Stats.p99
    | None -> Format.printf "@.knee: no points ran@.");
    if List.exists (fun (p : Saturation.point) -> not p.Saturation.checker_ok)
         curve.Saturation.points
    then begin
      Format.printf "FAIL: a point violated the checker battery@.";
      exit 1
    end
  in
  let profile = profile_term ~specs:Profile.stack_specs Profile.default in
  let offered =
    Arg.(
      value
      & opt string "500,1000,2000,4000,8000"
      & info [ "offered-load" ] ~docv:"R0,R1,..."
          ~doc:"Comma-separated offered loads, msg/s cluster-wide.")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Run each point as a forked loopback-TCP cluster instead of a \
             simulation. Exit 2 when the environment cannot create sockets.")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Seconds of arrivals per point.")
  in
  let size = Arg.(value & opt int 32 & info [ "size" ] ~doc:"Payload bytes.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Run seed.") in
  let replay_check =
    Arg.(
      value & flag
      & info [ "replay-check" ]
          ~doc:
            "First rerun one deterministic sim cell of this configuration \
             twice and fail unless the trace fingerprints match — the \
             determinism gate for the batched/pipelined/ring path.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Offered-load saturation sweep (knee curve), simulated or live"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the configured stack at each $(b,--offered-load) point with \
              the full checker battery on, reports achieved throughput and \
              latency percentiles per point, and prints the knee — the fastest \
              point that is still checker-green and finished cleanly. Exit \
              status: 0 on success (overloaded points are expected past the \
              knee), 1 if any point fails the checker, 2 if $(b,--live) has no \
              socket support.";
         ])
    Term.(
      const exec $ profile $ offered $ live $ duration $ size $ seed
      $ replay_check)

(* `service` command: the closed-loop client plane — sessions submit to
   the replicated KV/ledger through the full stack, the point is judged
   by the abcast battery plus the application battery, and (with --live)
   the live cluster's final state hash must match the simulator's. *)

module Service = Ics_workload.Service

let service_cmd =
  let exec (profile : Profile.t) seed live attempts replay_check =
    let n = profile.Profile.n
    and clients = profile.Profile.clients
    and requests = profile.Profile.requests
    and batching = Profile.batching profile in
    if replay_check then
      report_replay ~what:"service" (Service.replay_check ~seed ~batching ~n ());
    let pp_point (p : Service.point) =
      Format.printf
        "%-4s n=%d clients=%d requests=%d: %d commands, %.0f cmd/s, p50 %.2f \
         ms, p99 %.2f ms, %s%s@."
        (match p.Service.backend with `Sim -> "sim" | `Live -> "live")
        p.Service.n p.Service.clients p.Service.requests p.Service.commands
        p.Service.achieved p.Service.latency.Stats.p50
        p.Service.latency.Stats.p99 (Service.status p)
        (match p.Service.hash with
        | Some (c, h) -> Printf.sprintf " (hash %Lx @ %d)" h c
        | None -> "")
    in
    let sim = Service.sim_point ~seed ~batching ~n ~clients ~requests () in
    pp_point sim;
    let failed = ref (not (sim.Service.checker_ok && sim.Service.clean)) in
    if live then begin
      match
        Service.live_point ~seed ~batching ~attempts ~n ~clients ~requests ()
      with
      | Error reason -> skip_live "service" reason
      | Ok lp ->
          pp_point lp;
          if not (lp.Service.checker_ok && lp.Service.clean) then failed := true;
          if Service.hash_match sim lp then
            Format.printf "state hash: sim and live agree@."
          else begin
            Format.printf
              "FAIL: sim and live disagree on the final state hash@.";
            failed := true
          end
    end;
    if !failed then begin
      Format.printf "FAIL: a service point violated its battery@.";
      exit 1
    end
  in
  let profile =
    profile_term
      ~specs:(spec_rows [ "n"; "clients"; "requests"; "batch"; "pipeline"; "flush" ])
      {
        Profile.default with
        Profile.clients = 200;
        requests = 3;
        batch = 8;
        pipeline = 4;
        flush_ms = 1.0;
      }
  in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Run seed.") in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Also run the point as a forked loopback-TCP cluster and require \
             its final state hash to match the simulator's, bit for bit. \
             Exit 2 when the environment cannot create sockets.")
  in
  let attempts =
    Arg.(
      value & opt int 2
      & info [ "attempts" ]
          ~doc:"Best-of-k reruns for an unhealthy live point (checker-gated).")
  in
  let replay_check =
    Arg.(
      value & flag
      & info [ "replay-check" ]
          ~doc:
            "First rerun one deterministic sim service cell twice and fail \
             unless the trace fingerprints match.")
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:"Closed-loop KV/ledger service point, checker- and hash-gated"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs $(b,--clients) closed-loop sessions of $(b,--requests) \
              commands each against the replicated KV/ledger machine, on the \
              simulator and (with $(b,--live)) on a real loopback cluster. \
              Every point is gated by the full abcast checker battery plus \
              the application battery (exactly-once, per-client order, \
              state-hash agreement, progress); the live point must also \
              reproduce the simulator's final state hash. Exit status: 0 on \
              success, 1 on any checker/hash failure, 2 when $(b,--live) has \
              no socket support.";
         ])
    Term.(
      const exec $ profile $ seed $ live $ attempts $ replay_check)

let list_cmd =
  let exec () =
    List.iter
      (fun f -> Format.printf "%-6s %s@." f.Figures.id f.Figures.title)
      Figures.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the figures this tool can regenerate") Term.(const exec $ const ())

let () =
  let doc = "Atomic broadcast with indirect consensus (Ekwall & Schiper, DSN 2006) simulator" in
  let info = Cmd.info "ics-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            figure_cmd;
            violation_cmd;
            chaos_cmd;
            trace_cmd;
            cluster_cmd;
            node_cmd;
            bench_cmd;
            service_cmd;
            list_cmd;
          ]))
