(* Command-line driver for the indirect-consensus atomic broadcast
   simulator: run single experiments, regenerate the paper's figures, and
   replay the adversarial scenarios. *)

open Cmdliner
module Stack = Ics_core.Stack
module Profile = Ics_core.Profile
module Experiment = Ics_workload.Experiment
module Figures = Ics_workload.Figures
module Scenarios = Ics_workload.Scenarios
module Chaos = Ics_workload.Chaos
module Run = Ics_workload.Run
module Saturation = Ics_workload.Saturation
module Service = Ics_workload.Service
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster
module Trace_io = Ics_runtime.Trace_io
module Table = Ics_prelude.Table
module Stats = Ics_prelude.Stats

(* --- Exit codes ---------------------------------------------------------- *)

(* Every command's term evaluates to its exit code; [exit] is called once,
   at the bottom.  A command prints its own usage errors (exit [usage]):
   cmdliner reports an unknown flag as a term error, so a [~term_err] of 2
   would take that flag's 124 too.  [skip] is what the smoke targets read
   as "no loopback sockets". *)
let ok, failed, usage, deadline, skip = (0, 1, 2, 10, 77)

(* The one table of the codes; each man page's EXIT STATUS section is the
   rows its command passes to [exits]. *)
let exit_table =
  [
    (ok, "on success.");
    ( failed,
      "if a check failed: the checker battery, a claim, a determinism fence, a \
       node, or a run that did not drain." );
    ( usage,
      "on a usage error the command finds itself: a bad name, comma list or \
       profile-row value, a value out of range, conflicting flags, or (for \
       $(b,node)) a port it cannot bind." );
    (deadline, "if a $(b,node) hit its deadline before every node was done.");
    (skip, "if the environment cannot create loopback sockets (automake's SKIP code).");
    ( Cmd.Exit.cli_error,
      "if cmdliner rejects an option: an unknown flag or a value of the wrong type." );
    (Cmd.Exit.internal_error, "on an unexpected internal error.");
  ]

(* 0, 2, 124 and 125 apply to every command; [codes] are its others. *)
let exits codes =
  let mine = ok :: usage :: Cmd.Exit.cli_error :: Cmd.Exit.internal_error :: codes in
  List.filter_map
    (fun (code, doc) -> if List.mem code mine then Some (Cmd.Exit.info code ~doc) else None)
    exit_table

(* One line on stdout (or stderr), then [code]. *)
let say ?(ppf = Format.std_formatter) code fmt =
  Format.kfprintf (fun _ -> code) ppf (fmt ^^ "@.")

let fail fmt = say failed ("FAIL: " ^^ fmt)

(* A command whose body returns [Ok code] or [Error usage_message]. *)
let command ?man ?(codes = []) name ~doc term =
  let code = function
    | Ok code -> code
    | Error msg -> say ~ppf:Format.err_formatter usage "ics-cli: %s" msg
  in
  Cmd.v (Cmd.info name ~doc ?man ~exits:(exits codes)) Term.(const code $ term)

let ( let* ) = Result.bind
let check cond msg = if cond then Ok () else Error msg

(* Range checks, worded as the profile table's. *)
let at_least lo flag v =
  check (v >= lo) (Printf.sprintf "%s: %d is not an integer >= %d" flag v lo)

let positive flag v =
  check (v > 0.0 && Float.is_finite v) (Printf.sprintf "%s: %g is not a finite number > 0" flag v)

(* The most abroadcasts, load x duration, that one [run] or [bench] point
   may schedule; [work_cap_man] states the measured rate behind it. *)
let max_abroadcasts = 1e6

let bounded_work flag load duration =
  let count = load *. duration in
  check (count <= max_abroadcasts)
    (Printf.sprintf "%s x --duration: %.3g abroadcasts exceeds the cap of %.0f per point"
       flag count max_abroadcasts)

let work_cap_man =
  [
    `S "WORK CAP";
    `P
      (Printf.sprintf
         "A point whose load times $(b,--duration) exceeds %.0f abroadcasts is a \
          usage error (exit 2), found before any run. The simulator runs about \
          2.4 M events/s on a 2-vCPU host (n = 3, flood, CT indirect: 37 events \
          per abroadcast), so a point at the cap is about 16 s of simulation \
          there; more processes cost more events per abroadcast."
         max_abroadcasts);
  ]

(* The first failing gate's code, the later gates unrun; a gate whose
   flag is off is skipped. *)
let first_failure gates =
  List.fold_left (fun code (on, gate) -> if code = ok && on then gate () else code) ok gates

(* The verdict of a single-cell replay check; a divergence fails the run. *)
let report_replay ~what = function
  | Ok fp -> say ok "replay check: bit-identical (%s)" fp
  | Error (a, b) -> fail "%s cell replayed differently: %s vs %s" what a b

let skip_live cmd reason = say ~ppf:Format.err_formatter skip "%s: skip: %s" cmd reason

let no_sockets cmd = skip_live cmd "loopback sockets unavailable in this environment"

(* --- Flags --------------------------------------------------------------- *)

(* Profile flags are not written by hand: every command that takes a
   stack shape (and, for the live commands, a workload) folds the
   relevant [Profile.specs] rows into one cmdliner term, whose first bad
   value is the command's usage error.  Adding a knob to the profile adds
   the flag to every command at once. *)
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
      let apply profile value =
        match (profile, value) with
        | Ok profile, Some value -> spec.Profile.set profile value
        | profile, _ -> profile
      in
      Term.(const apply $ term $ arg))
    (Term.const (Ok base)) specs

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

(* The flags several commands share. *)
let seed_arg = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Run seed.")
let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Quarter-length runs.")
let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"CSV output.")
let verbose_arg ~doc = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
let live_arg ~doc = Arg.(value & flag & info [ "live" ] ~doc)
let replay_check_arg ~doc = Arg.(value & flag & info [ "replay-check" ] ~doc)

let setup_conv =
  Arg.enum
    [
      ("setup1", Stack.Setup1);
      ("setup2", Stack.Setup2);
      ("ideal", Stack.Ideal_lan { delay = 1.0; jitter = 0.1 });
    ]

(* A comma-separated flag value: entries trimmed, empty ones dropped, each
   parsed by [parse]; the first it rejects is the usage error [bad entry]. *)
let comma_list ~parse ~bad s =
  let entries = List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s)) in
  match List.find_opt (fun entry -> parse entry = None) entries with
  | Some entry -> Error (bad entry)
  | None -> Ok (List.filter_map parse entries)

(* The consensus layer's counters as one line (CT: coordinator decisions
   by round, nacks sent, remote sends by kind; every stack: the frames
   its sends went out in). *)
let print_consensus_counters = function
  | [] -> ()
  | counters ->
      Format.printf "consensus:%s@."
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) counters))

(* `run` command: one configuration under one load. *)

let run_cmd =
  let exec profile setup tput duration seed check =
    let* profile = profile in
    let* () = positive "--throughput" tput in
    let* () = positive "--duration" duration in
    let* () = bounded_work "--throughput" tput duration in
    let config = { (Stack.config_of_profile profile) with Stack.setup; seed } in
    let size = profile.Profile.body_bytes in
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
    print_consensus_counters r.Experiment.consensus;
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
    Ok
      (if not r.Experiment.quiescent then fail "the run did not drain"
       else if not (Option.fold ~none:true ~some:Ics_checker.Checker.ok r.Experiment.verdict)
       then fail "the checker found a violation"
       else ok)
  in
  let profile =
    profile_term
      ~specs:(Profile.stack_specs @ spec_rows [ "size" ])
      { Profile.default with Profile.body_bytes = 1 }
  in
  let setup =
    Arg.(value & opt setup_conv Stack.Setup1 & info [ "setup" ] ~doc:"setup1, setup2 or ideal.")
  in
  let tput =
    Arg.(value & opt float 100.0 & info [ "throughput" ] ~doc:"Global rate, msgs/s.")
  in
  let duration = Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Seconds of arrivals.") in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Validate the trace against the formal properties.")
  in
  command "run" ~codes:[ failed ] ~man:work_cap_man
    ~doc:"Run one atomic-broadcast configuration under a synthetic load"
    Term.(const exec $ profile $ setup $ tput $ duration $ seed_arg $ check)

(* `figure` command: regenerate one table of the evaluation (or all). *)

let figure_cmd =
  let exec id quick csv seed seeds verbose =
    let* entries =
      if id = "all" then Ok Figures.registry
      else
        Option.to_result (Option.map (fun e -> [ e ]) (Figures.find id))
          ~none:
            (Printf.sprintf "unknown figure %s; available: %s" id
               (String.concat ", " (Figures.ids ())))
    in
    let* () = at_least 1 "--seeds" seeds in
    let progress = if verbose then fun s -> Format.eprintf "  %s@." s else fun _ -> () in
    List.iter
      (fun (e : Figures.entry) ->
        let table = e.Figures.build ~quick ~seed ~seeds ~progress in
        if csv then print_string (Table.to_csv table)
        else begin
          Table.print table;
          Format.printf "%s@.@." e.Figures.note
        end)
      entries;
    Ok ok
  in
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc:"Table id or 'all'.")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ]
          ~doc:"Pool each panel cell over this many seeds (the other tables run at $(b,--seed)).")
  in
  command "figure" ~doc:"Regenerate a figure, ablation or extension table of the evaluation"
    Term.(
      const exec $ id $ quick_arg $ csv_arg $ seed_arg $ seeds
      $ verbose_arg ~doc:"Per-cell progress on stderr.")

(* `claims` command: the paper's conclusions, machine-checked. *)

let claims_cmd =
  let exec quick seed =
    let verdicts = Ics_workload.Claims.verify ~quick ~seed () in
    List.iter (Format.printf "%a@." Ics_workload.Claims.pp_verdict) verdicts;
    let holding = List.length (List.filter (fun v -> v.Ics_workload.Claims.holds) verdicts) in
    Format.printf "@.%d/%d claims hold.@." holding (List.length verdicts);
    Ok (if holding < List.length verdicts then failed else ok)
  in
  command "claims" ~codes:[ failed ] ~doc:"Check the paper's shape claims"
    Term.(const exec $ quick_arg $ seed_arg)

(* `violation` command: the adversarial scenarios. *)

let violation_cmd =
  let exec which =
    let* outcomes =
      match which with
      | "ct" -> Ok Scenarios.[ validity_scenario Faulty_ids; validity_scenario Indirect ]
      | "mr" -> Ok Scenarios.[ mr_scenario Naive; mr_scenario Indirect_mr ]
      | _ -> Error (Printf.sprintf "unknown scenario %s (ct or mr)" which)
    in
    List.iter (fun o -> Format.printf "%a@." Scenarios.pp_outcome o) outcomes;
    Ok ok
  in
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc:"'ct' (S2.2) or 'mr' (S3.3.2).")
  in
  command "violation" ~doc:"Replay the paper's counterexamples (faulty vs indirect consensus)"
    Term.(const exec $ which)

(* `trace` command: run a small configuration and dump the full protocol
   trace — invaluable for studying an execution step by step. *)

let trace_cmd =
  let exec profile messages crash csv =
    let* profile = profile in
    let n = profile.Profile.n in
    let in_range p =
      check (p >= 0 && p < n) (Printf.sprintf "--crash: %d is not a process of 0..%d" p (n - 1))
    in
    let* () = Option.fold ~none:(Ok ()) ~some:in_range crash in
    let config =
      {
        (Stack.config_of_profile profile) with
        Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
        fd_kind = Stack.Oracle 10.0;
      }
    in
    let stack = Stack.create config in
    let engine = stack.Stack.engine in
    for i = 0 to messages - 1 do
      Ics_sim.Engine.schedule engine ~at:(1.0 +. (5.0 *. float_of_int i)) (fun () ->
          ignore (Stack.abroadcast stack ~src:(i mod n) ~body_bytes:16))
    done;
    Option.iter (fun p -> Ics_sim.Engine.crash_at engine p ~at:10.0) crash;
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
    end;
    Ok ok
  in
  let profile = profile_term ~specs:Profile.stack_specs Profile.default in
  let messages = Arg.(value & opt int 2 & info [ "messages" ] ~doc:"How many abroadcasts.") in
  let crash =
    Arg.(value & opt (some int) None & info [ "crash" ] ~doc:"Crash this process at t=10ms.")
  in
  command "trace" ~doc:"Dump the full protocol trace of a small execution"
    Term.(const exec $ profile $ messages $ crash $ csv_arg)

(* `chaos` command: seeded fault-injection sweep over stacks × plans,
   simulated by default or — with --live — run as forked loopback-TCP
   clusters judged by the same checker. *)

let chaos_cmd =
  let exec seeds seed_base n stacks plans profile no_retransmit app live
      replay_check jobs jobs_check verbose =
    let* profile = profile in
    let batching = Profile.batching profile in
    let parse_csv ~flag ~what ~of_string ~all s =
      if s = "all" then Ok all
      else comma_list ~parse:of_string ~bad:(Printf.sprintf "%s: unknown %s %s" flag what) s
    in
    let* stacks =
      parse_csv ~flag:"--stacks" ~what:"stack" ~of_string:Chaos.stack_of_string
        ~all:Chaos.all_stacks stacks
    in
    let* plans =
      parse_csv ~flag:"--plans" ~what:"plan" ~of_string:Chaos.plan_of_string
        ~all:Chaos.all_plans plans
    in
    let* () = at_least 1 "--seeds" seeds in
    let* () = Option.fold ~none:(Ok ()) ~some:(at_least 1 "-n") n in
    let* () = at_least 1 "--jobs" jobs in
    let* () = check (not (live && jobs_check)) "--jobs-check needs the sim backend" in
    let backend = if live then `Live else `Sim in
    let name = Chaos.backend_name backend in
    if live && not (Cluster.supported ()) then Ok (no_sockets "chaos")
    else begin
      if live && jobs > 1 then
        Format.eprintf
          "chaos: note: --live forks node processes, so the sweep runs with \
           --jobs 1@.";
      let progress =
        if verbose then fun s -> Format.eprintf "  %s@." s else fun _ -> ()
      in
      let sweep ?(progress = fun _ -> ()) jobs =
        Chaos.sweep_results ~backend ~batching ~app ~retransmit:(not no_retransmit) ?n
          ~seed_base ~seeds ~progress ~jobs ~stacks ~plans ()
      in
      let results = sweep ~progress jobs in
      let cells = List.map fst results in
      Chaos.report ~verbose Format.std_formatter cells;
      let cell_count = List.length stacks * List.length plans in
      (* The jobs-determinism fence: the sweep above and one rerun at the
         other width (--jobs 1 against the requested width, at least 2)
         must agree on every run's fingerprint, not just on the failures
         the matrix shows. *)
      let jobs_fence () =
        let fingerprints =
          List.concat_map (fun (_, rs) -> List.map (fun r -> r.Chaos.fingerprint) rs)
        in
        let wide = max jobs 2 in
        if fingerprints results = fingerprints (sweep (if jobs = 1 then wide else 1)) then
          say ok "jobs check: %d run(s) fingerprint-identical at --jobs 1 and --jobs %d"
            (cell_count * seeds) wide
        else fail "jobs check — sweep fingerprints differ between --jobs 1 and --jobs %d" wide
      in
      let replay_fence () =
        if live then
          say ok
            "replay check: skipped — live scheduling is not deterministic (fault \
             counters are; the sweep above already used them)"
        else
          match
            Chaos.replay_check ~batching ~app ~retransmit:(not no_retransmit) ?n
              ~seed_base ~jobs ~stacks ~plans ()
          with
          | [] -> say ok "replay check: %d cell(s) reran bit-identically" cell_count
          | ms ->
              List.fold_left
                (fun code m -> say code "  %a" Chaos.pp_mismatch m)
                (fail "replay check found nondeterminism — seeded reruns diverged:")
                ms
      in
      let blackout () =
        if Chaos.blackout_reproduced cells then ok
        else
          fail
            "the ct-on-ids x blackout cell passed on the %s backend — the paper's \
             S2.2 violation should always reproduce"
            name
      in
      let indirect_clean () =
        if not (Chaos.indirect_clean cells) then fail "an indirect stack violated its properties"
        else begin
          Format.printf "indirect stacks clean over %d seeds (%s backend)@." seeds name;
          if List.exists (fun c -> c.Chaos.failures <> []) cells then
            say ok "on-ids failures above are expected: that stack is the paper's counterexample"
          else ok
        end
      in
      Ok
        (first_failure
           [
             (jobs_check, jobs_fence);
             (replay_check, replay_fence);
             (true, blackout);
             (true, indirect_clean);
           ])
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
    live_arg
      ~doc:
        "Run each cell as a forked loopback-TCP cluster instead of a \
         simulation: each node installs the same seeded plan through the \
         same fault middleware as a simulated cell, and the merged trace \
         goes through the same checker."
  in
  let replay_check =
    replay_check_arg
      ~doc:
        "After the sweep, rerun one seed per (stack, plan) cell twice \
         and fail if the trace fingerprints differ — a determinism gate \
         for the replay commands the sweep prints.  Simulation only; \
         skipped (with a note) under $(b,--live)."
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
  command "chaos" ~codes:[ failed; skip ]
    ~doc:"Seeded fault-injection sweep (stacks x fault plans x seeds), simulated or live"
    Term.(
      const exec $ seeds $ seed_base $ n $ stacks $ plans $ profile
      $ no_retransmit $ app_flag $ live $ replay_check $ jobs $ jobs_check
      $ verbose_arg ~doc:"Per-cell progress and every failing seed.")

(* Live runtime: `cluster` forks a real loopback-TCP cluster and checks
   the merged delivery logs; `node` runs a single process of one (for
   driving a cluster by hand across terminals, or as the child of
   `cluster --exec`). *)

let cluster_cmd =
  let exec profile keep_dir use_exec =
    let* profile = profile in
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
    | Error reason -> Ok (skip_live "cluster" reason)
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
        print_consensus_counters o.Cluster.consensus;
        Format.printf "exit:%s, linger %.1f ms summed over nodes@."
          (String.concat ""
             (List.map
                (fun (l, c) -> Printf.sprintf " %s=%d" (Node.leave_to_string l) c)
                o.Cluster.leaves))
          o.Cluster.linger_ms;
        if keep_dir then Format.printf "traces: %s@." o.Cluster.trace_dir;
        Format.printf "checker: %a@." Ics_checker.Checker.pp_verdict o.Cluster.verdict;
        Ok (if Cluster.ok o then ok else failed)
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
  command "cluster" ~codes:[ failed; skip ]
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
           uses.";
      ]
    Term.(const exec $ profile $ keep_dir $ use_exec)

let node_cmd =
  let exec self ports profile epoch trace_out stats_out =
    let* profile = profile in
    let* ports =
      comma_list ports
        ~parse:(fun s ->
          match int_of_string_opt s with Some p when p > 0 && p < 65536 -> Some p | _ -> None)
        ~bad:(Printf.sprintf "--ports: bad port %s")
    in
    let n = List.length ports in
    let* () = check (n >= 2) "--ports: need at least two ports" in
    let* () =
      check (self >= 0 && self < n)
        (Printf.sprintf "--self: %d out of range for %d ports" self n)
    in
    let addrs =
      Array.of_list
        (List.map (fun p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)) ports)
    in
    let run listen =
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
      let net = r.Node.net in
      Format.printf
        "net: %d frames out (%d B), %d frames in (%d B), %d decode errors, %d timer wakeups \
         (oversleep %d us total, %d us max), left on %s after %.1f ms linger@."
        net.frames_out net.bytes_out net.frames_in net.bytes_in net.decode_errors
        net.timer_wakeups net.oversleep_us_sum net.oversleep_us_max
        (Node.leave_to_string r.Node.leave) r.Node.linger_ms;
      if r.Node.clean_exit then ok else deadline
    in
    match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) ->
        Ok (skip_live "node" ("cannot create sockets (" ^ Unix.error_message e ^ ")"))
    | fd -> (
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        match
          Unix.bind fd addrs.(self);
          Unix.listen fd 64
        with
        | () -> Ok (run fd)
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot bind port %d: %s" (List.nth ports self)
                 (Unix.error_message e)))
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
  command "node" ~codes:[ deadline; skip ]
    ~doc:"Run one live node of a cluster (for driving a cluster by hand)"
    ~man:
      [
        `S Manpage.s_description;
        `P
          "Runs a single process of an n-node stack over loopback TCP, dialing the \
           peers in $(b,--ports). Start one in each terminal; they retry their \
           dials briefly, so start order does not matter. The process count comes \
           from the port list.";
      ]
    Term.(const exec $ self $ ports $ profile $ epoch $ trace_out $ stats_out)

(* `bench` command: the saturation sweep — offered-load points on the
   sim or live backend, each point correctness-gated by the full checker
   battery, knee reported at the end. *)

let bench_cmd =
  let exec profile offered live duration seed replay_check =
    let* profile = profile in
    let* loads =
      comma_list offered
        ~parse:(fun s ->
          match float_of_string_opt s with
          | Some v when v > 0.0 && Float.is_finite v -> Some v
          | _ -> None)
        ~bad:(Printf.sprintf "--offered-load: %s is not a finite load > 0")
    in
    let* () = check (loads <> []) "--offered-load is empty" in
    let* () = positive "--duration" duration in
    let* () = bounded_work "--offered-load" (List.fold_left Float.max 0.0 loads) duration in
    if live && not (Cluster.supported ()) then Ok (no_sockets "bench")
    else begin
      Format.printf
        "saturation: %s dissemination=%s batch=%d pipeline=%d flush=%.1fms %s@."
        (Profile.describe profile)
        (Profile.broadcast_to_string profile.Profile.broadcast)
        profile.Profile.batch profile.Profile.pipeline profile.Profile.flush_ms
        (if live then "live" else "sim");
      let replay () =
        report_replay ~what:"saturation"
          (Run.replay (fun () -> Saturation.sim_fingerprint ~seed profile))
      in
      let sweep () =
        let duration_ms = duration *. 1000.0 in
        let curve_of = if live then Saturation.live_curve else Saturation.sim_curve in
        let curve = curve_of ~seed ~duration_ms profile loads in
        Format.printf "%a@." Saturation.pp_curve curve;
        if List.for_all (fun (p : Saturation.point) -> p.Saturation.checker_ok) curve then ok
        else fail "a point violated the checker battery"
      in
      Ok (first_failure [ (replay_check, replay); (true, sweep) ])
    end
  in
  let profile =
    profile_term
      ~specs:(Profile.stack_specs @ spec_rows [ "size" ])
      { Profile.default with Profile.body_bytes = 32 }
  in
  let offered =
    Arg.(
      value
      & opt string "500,1000,2000,4000,8000"
      & info [ "offered-load" ] ~docv:"R0,R1,..."
          ~doc:"Comma-separated offered loads, msg/s cluster-wide.")
  in
  let live =
    live_arg
      ~doc:"Run each point as a forked loopback-TCP cluster instead of a simulation."
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~doc:"Seconds of arrivals per point.")
  in
  let replay_check =
    replay_check_arg
      ~doc:
        "First rerun one deterministic sim cell of this configuration \
         twice and fail unless the trace fingerprints match — the \
         determinism gate for the batched/pipelined/ring path."
  in
  command "bench" ~codes:[ failed; skip ]
    ~doc:"Offered-load saturation sweep (knee curve), simulated or live"
    ~man:
      ([
        `S Manpage.s_description;
        `P
          "Runs the configured stack at each $(b,--offered-load) point with \
           the full checker battery on, reports achieved throughput and \
           latency percentiles per point, and prints the knee — the fastest \
           point that is still checker-green and finished cleanly. \
           Overloaded points past the knee are expected and do not fail the \
           sweep.";
      ]
      @ work_cap_man)
    Term.(const exec $ profile $ offered $ live $ duration $ seed_arg $ replay_check)

(* `service` command: the closed-loop client plane — sessions submit to
   the replicated KV/ledger through the full stack, the point is judged
   by the abcast battery plus the application battery, and (with --live)
   the live cluster's final state hash must match the simulator's. *)

let service_cmd =
  let exec profile seed live replay_check =
    let* (profile : Profile.t) = profile in
    let n = profile.Profile.n
    and clients = profile.Profile.clients
    and requests = profile.Profile.requests
    and batching = Profile.batching profile in
    let clean (p : Service.point) = p.Service.checker_ok && p.Service.clean in
    let replay () =
      report_replay ~what:"service"
        (Run.replay (fun () -> Service.sim_fingerprint ~seed ~batching ~n ()))
    in
    let point () =
      let sim = Service.sim_point ~seed ~batching ~n ~clients ~requests () in
      Format.printf "%a@." Service.pp_point sim;
      let live_clean =
        if not live then Ok true
        else
          Service.live_point ~seed ~batching ~n ~clients ~requests ()
          |> Result.map (fun lp ->
                 Format.printf "%a@." Service.pp_point lp;
                 let hash =
                   if Service.hash_match sim lp then say ok "state hash: sim and live agree"
                   else fail "sim and live disagree on the final state hash"
                 in
                 clean lp && hash = ok)
      in
      match live_clean with
      | Error reason -> skip_live "service" reason
      | Ok live_clean ->
          if clean sim && live_clean then ok else fail "a service point violated its battery"
    in
    Ok (first_failure [ (replay_check, replay); (true, point) ])
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
  let live =
    live_arg
      ~doc:
        "Also run the point as a forked loopback-TCP cluster and require \
         its final state hash to match the simulator's, bit for bit."
  in
  let replay_check =
    replay_check_arg
      ~doc:
        "First rerun one deterministic sim service cell twice and fail \
         unless the trace fingerprints match."
  in
  command "service" ~codes:[ failed; skip ]
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
           reproduce the simulator's final state hash.";
      ]
    Term.(const exec $ profile $ seed_arg $ live $ replay_check)

let list_cmd =
  let exec () =
    List.iter
      (fun (e : Figures.entry) -> Format.printf "%-11s %s@." e.Figures.name e.Figures.caption)
      Figures.registry;
    Ok ok
  in
  command "list" ~doc:"List the tables $(b,figure) can regenerate" Term.(const exec $ const ())

let () =
  let doc = "Atomic broadcast with indirect consensus (Ekwall & Schiper, DSN 2006) simulator" in
  let info =
    Cmd.info "ics-cli" ~version:"1.0.0" ~doc ~exits:(exits [ failed; deadline; skip ])
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            figure_cmd;
            claims_cmd;
            violation_cmd;
            chaos_cmd;
            trace_cmd;
            cluster_cmd;
            node_cmd;
            bench_cmd;
            service_cmd;
            list_cmd;
          ]))
