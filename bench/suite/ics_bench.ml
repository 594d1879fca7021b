(* ics_bench: the repo benchmark.

     ics_bench run [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
                   [--out FILE] [--smoke]
     ics_bench compare BASE NEW
     ics_bench describe

   [run] exits 0 when every correctness gate passes, 1 when one fails and
   2 when the host has no loopback sockets (the live workloads were
   skipped).  Each workload prints one line per metric, then one JSON
   line; with a single workload selected that JSON line is the last line
   of standard output. *)

open Cmdliner
module Workloads = Ics_bench_suite.Workloads
module Report = Ics_bench_suite.Report
module Metrics = Ics_bench_suite.Metrics
module Span = Ics_bench_suite.Span

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let run workloads seed seconds trace out smoke =
  (* Node traces go under the working directory, never the system temp
     directory: the bench reads and writes only inside its checkout. *)
  let tmp = Filename.concat (Sys.getcwd ()) ".ics_bench_tmp" in
  if Sys.file_exists tmp then rm_rf tmp;
  Unix.mkdir tmp 0o700;
  Filename.set_temp_dir_name tmp;
  let traced = trace = 1 in
  let ctx = { Workloads.seed; seconds; traced; smoke; tmp } in
  let selected = if workloads = [] then Workloads.names else workloads in
  let skipped = ref false in
  let results =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists tmp then rm_rf tmp)
      (fun () ->
        List.filter_map
          (fun name ->
            match Workloads.run ctx name with
            | r ->
                Report.print_workload r;
                print_endline (Report.json_line ~traced r);
                flush stdout;
                Some r
            | exception Workloads.No_sockets reason ->
                Printf.eprintf "%s: skipped (%s)\n%!" name reason;
                skipped := true;
                None)
          selected)
  in
  Option.iter
    (fun path ->
      Report.write_out path ~host:(Report.host ()) ~seed ~seconds ~traced results (Span.all ()))
    out;
  if List.exists (fun r -> not r.Report.correct) results then 1
  else if !skipped then 2
  else 0

let run_cmd =
  let workload =
    Arg.(
      value
      & opt_all (enum (List.map (fun n -> (n, n)) Workloads.names)) []
      & info [ "workload" ] ~docv:"NAME" ~doc:"Run only this workload (repeatable).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Derives every workload's inputs.")
  in
  let seconds =
    Arg.(
      value
      & opt float (float_of_int Metrics.run_seconds)
      & info [ "seconds" ] ~doc:"Measuring time per workload; repetitions fill it.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", 0); ("1", 1) ]) 0
      & info [ "trace" ] ~doc:"1: also report the per-layer metrics.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Record metrics, host and spans for $(b,compare).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"About 1/20 size, one repetition, gates only.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the benchmark workloads")
    Term.(const run $ workload $ seed $ seconds $ trace $ out $ smoke)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "BASE" else "NEW")) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two $(b,run --out) records metric by metric; exit 1 if any \
          end-to-end metric got worse by more than its bound, a workload or \
          metric is missing from either record, or a new workload failed a \
          gate or failed a larger share of its operations; 2 if the hosts differ")
    Term.(const Report.compare_files $ file 0 $ file 1)

let describe_cmd =
  let describe () =
    print_string (Metrics.benchmark_json ());
    0
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Print BENCHMARK.json from the suite's metric tables")
    Term.(const describe $ const ())

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ics_bench" ~doc:"The repo benchmark")
          [ run_cmd; compare_cmd; describe_cmd ]))
