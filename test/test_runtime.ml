(* Live runtime: clock clamping, trace serialization, and — where the
   sandbox allows sockets — a real forked loopback cluster verified by
   the checker. *)

module Engine = Ics_sim.Engine
module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module Clock = Ics_runtime.Clock
module Trace_io = Ics_runtime.Trace_io
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster
module Socket_transport = Ics_runtime.Socket_transport
module Checker = Ics_checker.Checker
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_clock_monotone () =
  (* An epoch in the future makes raw readings negative: the clamp must
     hold the clock at its high-water mark instead of going backwards. *)
  let c = Clock.create ~epoch:(Unix.gettimeofday ()) in
  let a = Clock.now c in
  let b = Clock.now c in
  checkb "forward" true (b >= a);
  let future = Clock.create ~epoch:(Unix.gettimeofday () +. 3600.0) in
  let x = Clock.now future in
  let y = Clock.now future in
  checkb "clamped, not decreasing" true (y >= x)

let sample_events =
  let id o s = Msg_id.make ~origin:o ~seq:s in
  [
    { Trace.time = 0.25; pid = 0; kind = Trace.Abroadcast (id 0 0) };
    { Trace.time = 1.0; pid = 1; kind = Trace.Rbroadcast (id 0 0) };
    { Trace.time = 1.5; pid = 1; kind = Trace.Rdeliver (id 0 0) };
    { Trace.time = 2.0; pid = 2; kind = Trace.Urb_broadcast (id 2 7) };
    { Trace.time = 2.25; pid = 2; kind = Trace.Urb_deliver (id 2 7) };
    { Trace.time = 3.0; pid = 0; kind = Trace.Propose (4, [ id 0 0; id 2 7 ]) };
    { Trace.time = 3.5; pid = 0; kind = Trace.Decide (4, []) };
    { Trace.time = 4.0; pid = 1; kind = Trace.Adeliver (id 0 0) };
    { Trace.time = 4.5; pid = 2; kind = Trace.Suspect 1 };
    { Trace.time = 5.0; pid = 2; kind = Trace.Trust 1 };
    { Trace.time = 5.5; pid = 1; kind = Trace.Crash };
    { Trace.time = 6.0; pid = 0; kind = Trace.Net_drop 2 };
    { Trace.time = 6.1; pid = 0; kind = Trace.Net_dup 1 };
    { Trace.time = 6.2; pid = 0; kind = Trace.Net_delay 0 };
    { Trace.time = 7.0; pid = 0; kind = Trace.Partition_start "split {0}|{1,2}" };
    { Trace.time = 8.0; pid = 0; kind = Trace.Partition_heal "split {0}|{1,2}" };
    { Trace.time = 9.0; pid = 2; kind = Trace.Note "free form\twith tab" };
  ]

let test_trace_io_roundtrip () =
  let path = Filename.temp_file "ics-trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Trace.create () in
      List.iter
        (fun (e : Trace.event) ->
          Trace.record t ~time:e.Trace.time ~pid:e.Trace.pid e.Trace.kind)
        sample_events;
      Trace_io.save path t ~keep:(fun _ -> true);
      let back = Trace_io.load path in
      checki "event count" (List.length sample_events) (List.length back);
      List.iter2
        (fun (a : Trace.event) (b : Trace.event) ->
          checkb "time" true (Float.abs (a.Trace.time -. b.Trace.time) < 1e-6);
          checki "pid" a.Trace.pid b.Trace.pid;
          Alcotest.(check string)
            "kind"
            (Format.asprintf "%a" Trace.pp_kind a.Trace.kind)
            (Format.asprintf "%a" Trace.pp_kind b.Trace.kind))
        sample_events back)

let test_trace_io_keep_filter () =
  let path = Filename.temp_file "ics-trace" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Trace.create () in
      List.iter
        (fun (e : Trace.event) ->
          Trace.record t ~time:e.Trace.time ~pid:e.Trace.pid e.Trace.kind)
        sample_events;
      Trace_io.save path t ~keep:(fun e -> e.Trace.pid = 0);
      let back = Trace_io.load path in
      checki "only pid 0"
        (List.length (List.filter (fun (e : Trace.event) -> e.Trace.pid = 0) sample_events))
        (List.length back))

let test_trace_io_rejects_garbage () =
  List.iter
    (fun line ->
      checkb (Printf.sprintf "reject %S" line) true
        (match Trace_io.parse_line line with
        | _ -> false
        | exception Trace_io.Error _ -> true))
    [ ""; "nonsense"; "1.0"; "1.0 x AB"; "1.0 2"; "1.0 2 ZZ extra"; "1.0 2 AB not-an-id" ]

let test_merge_sorts_stably () =
  let a =
    [
      { Trace.time = 1.0; pid = 0; kind = Trace.Note "a1" };
      { Trace.time = 3.0; pid = 0; kind = Trace.Note "a3" };
    ]
  in
  let b =
    [
      { Trace.time = 1.0; pid = 1; kind = Trace.Note "b1" };
      { Trace.time = 2.0; pid = 1; kind = Trace.Note "b2" };
    ]
  in
  let merged = Trace.events (Trace_io.merge [ a; b ]) in
  let notes =
    List.map
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Note s -> s | _ -> assert false)
      merged
  in
  Alcotest.(check (list string)) "stable by time" [ "a1"; "b1"; "b2"; "a3" ] notes

let test_timeout_us () =
  let us = Socket_transport.Poll.timeout_us in
  checki "0.3 ms" 300 (us 0.3);
  checki "sub-microsecond rounds up" 1 (us 0.0004);
  checki "capped at 50 ms" 50_000 (us 60.0);
  checki "negative" 0 (us (-2.0));
  checki "zero" 0 (us 0.0);
  checki "nan" 0 (us Float.nan)

(* One node's event loop (n = 1, no peers) firing a chain of engine
   timers 0.3 ms apart; each timer's lateness against its due time is
   the loop's oversleep.  A whole-millisecond wait oversleeps every one
   of them by about 0.7 ms; a microsecond wait by the kernel's timer
   slack (50 µs by default on Linux, 1 ns once the loop has set it).
   On a 2-vCPU host the median measured 11–25 µs over 30 runs (62–72 µs
   at the default slack, 778–786 µs with millisecond waits); the bound
   sits well above the first, below the last.  Skipped where the
   sandbox has no loopback sockets. *)
let timer_gap_ms = 0.3
let timer_count = 120
let oversleep_bound_us = 250.0

(* A one-node socket transport (n = 1, no peers) on a fresh engine. *)
let one_node () =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 8;
  let engine = Engine.create ~n:1 () in
  let clock = Clock.create ~epoch:(Unix.gettimeofday ()) in
  let st =
    Socket_transport.create ~engine ~clock ~self:0 ~listen
      ~peer_addrs:[| Unix.getsockname listen |] ()
  in
  (engine, clock, st)

let test_timer_oversleep () =
  if Cluster.supported () then begin
    let engine, clock, st = one_node () in
    let late_us = ref [] in
    let rec arm k =
      let due = Clock.now clock +. timer_gap_ms in
      Engine.schedule engine ~at:due (fun () ->
          late_us := ((Clock.now clock -. due) *. 1000.0) :: !late_us;
          if k + 1 < timer_count then arm (k + 1))
    in
    arm 0;
    ignore
      (Socket_transport.run st ~deadline:(Clock.now clock +. 5000.0)
         ~stop:(fun () -> List.length !late_us >= timer_count)
         ~leave:(fun () -> true)
        : Socket_transport.exit);
    Socket_transport.close st;
    let late = Array.of_list !late_us in
    Array.sort Float.compare late;
    checki "every timer fired" timer_count (Array.length late);
    let median = late.(Array.length late / 2) in
    if median >= oversleep_bound_us then
      Alcotest.failf "median oversleep %.0f us, bound %.0f us" median oversleep_bound_us;
    let s = Socket_transport.stats st in
    checkb "timer wakeups counted" true (s.timer_wakeups >= timer_count);
    checkb "oversleep max bounds the sum" true
      (s.oversleep_us_sum <= s.oversleep_us_max * s.timer_wakeups)
  end

(* The loop's first wait drops the thread's timer slack to 1 ns (Linux's
   default is 50 µs); skipped where the platform cannot report it. *)
let test_timer_slack () =
  if Cluster.supported () && Socket_transport.Poll.timer_slack_ns () >= 0 then begin
    let engine, clock, st = one_node () in
    let fired = ref false in
    Engine.schedule engine ~at:(Clock.now clock +. 0.2) (fun () -> fired := true);
    ignore
      (Socket_transport.run st ~deadline:(Clock.now clock +. 1000.0)
         ~stop:(fun () -> !fired)
         ~leave:(fun () -> true)
        : Socket_transport.exit);
    Socket_transport.close st;
    checki "timer slack after the loop ran" 1 (Socket_transport.Poll.timer_slack_ns ())
  end

(* Past its barrier a node waits at most [grace_ms] for a peer that never
   says Bye: here no Bye ever comes ([leave] never holds), and the loop
   returns at the barrier plus the cap, not at the deadline. *)
let test_grace_caps_silent_peer () =
  if Cluster.supported () then begin
    let engine, clock, st = one_node () in
    let barrier = ref false and barrier_at = ref 0.0 in
    Engine.schedule engine ~at:(Clock.now clock +. 10.0) (fun () ->
        barrier := true;
        barrier_at := Clock.now clock);
    let ended =
      Socket_transport.run st ~deadline:(Clock.now clock +. 5000.0)
        ~stop:(fun () -> !barrier)
        ~leave:(fun () -> false)
    in
    let waited = Clock.now clock -. !barrier_at in
    Socket_transport.close st;
    checkb "left on the cap" true (ended.Socket_transport.why = `Grace);
    let cap = Socket_transport.grace_ms in
    List.iter
      (fun (what, ms) ->
        if ms < cap || ms > cap +. 100.0 then
          Alcotest.failf "%s %.1f ms, expected the %.0f ms cap" what ms cap)
      [ ("linger", ended.Socket_transport.linger_ms); ("barrier to return", waited) ]
  end

(* A clean one-message n=3 cluster: every node leaves through the Bye
   path about one round trip after the last peer is done, so the whole
   Cluster.run (fork, warm-up, barrier, merge, check) returns within
   warm-up + 150 ms.  A fixed 250 ms linger after the barrier needs about
   warm-up + 265 ms. *)
let test_cluster_leaves_on_bye () =
  if Cluster.supported () then begin
    let profile = { Profile.default with Profile.count = 1 } in
    let t0 = Unix.gettimeofday () in
    match
      Cluster.run
        { Cluster.default with Cluster.node = { Node.default_workload with Node.profile } }
    with
    | Error _ -> ()
    | Ok o ->
        let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        checkb "cluster ok" true (Cluster.ok o);
        Alcotest.(check (list (pair string int)))
          "leave reasons"
          [ ("bye", 3); ("grace", 0); ("deadline", 0); ("crashed", 0) ]
          (List.map (fun (l, c) -> (Node.leave_to_string l, c)) o.Cluster.leaves);
        let bound = profile.Profile.warmup_ms +. 150.0 in
        if wall_ms > bound then
          Alcotest.failf "Cluster.run took %.0f ms, bound %.0f ms" wall_ms bound
  end

(* Fork a real 3-node loopback cluster and let the checker judge the
   merged logs.  Skipped (cleanly) where the sandbox forbids sockets. *)
let cluster_case name config =
  Alcotest.test_case name `Slow (fun () ->
      if not (Cluster.supported ()) then ()
      else
        match Cluster.run { Cluster.default with Cluster.node = config } with
        | Error _ -> ()
        | Ok o ->
            checkb (name ^ " checker verdict") true (Checker.ok o.Cluster.verdict);
            Array.iteri
              (fun i c -> checki (Printf.sprintf "%s node %d exit" name i) 0 c)
              o.Cluster.exits;
            Array.iteri
              (fun i d ->
                checki (Printf.sprintf "%s node %d deliveries" name i)
                  o.Cluster.expected_per_node d)
              o.Cluster.delivered_per_node)

let small count =
  {
    Node.default_workload with
    Node.profile = { Profile.default with Profile.count };
  }

let with_profile config f =
  { config with Node.profile = f config.Node.profile }

(* The CLI binary next to this test executable (test/dune makes it a
   dependency), run with stdout and stderr captured. *)
let run_cli args =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/ics_cli.exe"
  in
  let out = Filename.temp_file "ics-cli" ".out" in
  let err = Filename.temp_file "ics-cli" ".err" in
  let open_w f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1
  in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  (code, read out, read err)

(* A flag conflict is a usage error: it must exit 2 before the live sweep
   forks a single cluster, so nothing reaches stdout. *)
let test_cli_live_jobs_check_rejected () =
  let code, out, err =
    run_cli
      [ "chaos"; "--live"; "--jobs-check"; "--seeds"; "1"; "--stacks"; "ct-indirect";
        "--plans"; "drop" ]
  in
  checki "exit code" 2 code;
  Alcotest.(check string) "no sweep output" "" out;
  Alcotest.(check string) "message" "ics-cli: --jobs-check needs the sim backend\n" err

(* The codes a plain man page lists under EXIT STATUS: its item lines are
   indented seven spaces and start with the code. *)
let listed_exit_codes page =
  let rec after_heading = function
    | [] -> []
    | "EXIT STATUS" :: rest -> rest
    | _ :: rest -> after_heading rest
  in
  let rec items = function
    | [] -> []
    | line :: _ when line <> "" && line.[0] <> ' ' -> []
    | line :: rest -> (
        let item =
          if String.length line > 7 && String.sub line 0 7 = "       " && line.[7] <> ' '
          then int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim line)))
          else None
        in
        match item with Some code -> code :: items rest | None -> items rest)
  in
  items (after_heading (String.split_on_char '\n' page))

(* Every command's man page lists its exit codes, rendered from the CLI's
   one table: 0, 2, 124 and 125 everywhere, 1 where a check can fail, 77
   where a live run needs sockets, 10 for a node's deadline. *)
let test_cli_man_exit_status () =
  List.iter
    (fun (cmd, codes) ->
      let code, out, _ = run_cli [ cmd; "--help=plain" ] in
      checki (cmd ^ " --help exit code") 0 code;
      Alcotest.(check (list int)) (cmd ^ " EXIT STATUS") codes (listed_exit_codes out))
    [
      ("run", [ 0; 1; 2; 124; 125 ]);
      ("figure", [ 0; 2; 124; 125 ]);
      ("claims", [ 0; 1; 2; 124; 125 ]);
      ("violation", [ 0; 2; 124; 125 ]);
      ("chaos", [ 0; 1; 2; 77; 124; 125 ]);
      ("trace", [ 0; 2; 124; 125 ]);
      ("cluster", [ 0; 1; 2; 77; 124; 125 ]);
      ("node", [ 0; 2; 10; 77; 124; 125 ]);
      ("bench", [ 0; 1; 2; 77; 124; 125 ]);
      ("service", [ 0; 1; 2; 77; 124; 125 ]);
      ("list", [ 0; 2; 124; 125 ]);
    ]

(* The replay command a failing chaos run prints must rerun that very
   cell: fed back to the CLI with --verbose, the rerun's own failure
   prints the same command.  A batched, app-hosted on-ids blackout run at
   -n 5 without the retransmission channel needs every flag the hint can
   spell. *)
let test_cli_chaos_replay_hint_round_trips () =
  let module Chaos = Ics_workload.Chaos in
  let r =
    Chaos.run_one
      ~batching:{ Abcast.batch = 8; pipeline = 2; flush_ms = 1.0 }
      ~app:true ~retransmit:false ~n:5 Chaos.Ct_on_ids Chaos.Blackout ~seed:3L
  in
  checkb "the run fails" false (Chaos.passed r);
  let hint = Chaos.replay_hint r in
  Alcotest.(check string) "hint"
    "ics_cli chaos --stacks ct-on-ids --plans blackout --seeds 1 --seed-base 3 \
     --no-retransmit -n 5 --batch 8 --pipeline 2 --flush 1 --app"
    hint;
  let code, out, _ = run_cli (List.tl (String.split_on_char ' ' hint) @ [ "--verbose" ]) in
  checki "exit code" 0 code;
  checkb "the rerun prints the same command" true
    (Test_util.contains out ("replay: " ^ hint ^ "\n"))

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "chaos --live --jobs-check exits 2 up front" `Quick
          test_cli_live_jobs_check_rejected;
        Alcotest.test_case "every man page lists its exit codes" `Quick
          test_cli_man_exit_status;
        Alcotest.test_case "chaos replay hint reruns its cell" `Quick
          test_cli_chaos_replay_hint_round_trips;
      ] );
    ( "runtime",
      [
        Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
        Alcotest.test_case "trace io round-trip" `Quick test_trace_io_roundtrip;
        Alcotest.test_case "trace io keep filter" `Quick test_trace_io_keep_filter;
        Alcotest.test_case "trace io rejects garbage" `Quick test_trace_io_rejects_garbage;
        Alcotest.test_case "merge stable by time" `Quick test_merge_sorts_stably;
        Alcotest.test_case "poll timeout in microseconds" `Quick test_timeout_us;
        Alcotest.test_case "timer oversleep" `Quick test_timer_oversleep;
        Alcotest.test_case "timer slack" `Quick test_timer_slack;
        Alcotest.test_case "grace caps a silent peer" `Quick test_grace_caps_silent_peer;
      ] );
    ( "live-cluster",
      [
        Alcotest.test_case "clean cluster leaves on Bye" `Slow test_cluster_leaves_on_bye;
        cluster_case "ct flood" (small 8);
        cluster_case "mr flood"
          (with_profile (small 8) (fun p -> { p with Profile.algo = Stack.Mr }));
        cluster_case "ct fd-relay"
          (with_profile (small 8) (fun p ->
               { p with Profile.broadcast = Stack.Fd_relay }));
        cluster_case "ct uniform on-ids"
          (with_profile (small 8) (fun p ->
               {
                 p with
                 Profile.broadcast = Stack.Uniform;
                 ordering = Abcast.Consensus_on_ids;
               }));
      ] );
  ]
