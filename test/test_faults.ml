(* Tests for the fault-injection layer: nemesis plans, the retransmission
   channel, and the chaos harness built on both. *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Model = Ics_net.Model
module Message = Ics_net.Message
module Transport = Ics_net.Transport
module Host = Ics_net.Host
module Retransmit = Ics_net.Retransmit
module Nemesis = Ics_faults.Nemesis
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Chaos = Ics_workload.Chaos

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* The fault plane is transport middleware, so these cases drive the
   code a live node runs: [Nemesis.install] over a simulated transport
   (1 ms constant links, zero-cost hosts), probes on one "test" layer. *)

type Message.payload += Probe of int

type rig = {
  e : Engine.t;
  faults : Model.Fault_stats.t;
  channel : Retransmit.channel option;
  send : src:Pid.t -> dst:Pid.t -> int -> unit;
  got : (Pid.t * Pid.t * int) list ref;  (** (src, dst, probe), newest first *)
}

let rig ?(retransmit = false) ?(seed = 1L) ~n plan =
  let e = Engine.create ~n () in
  let t =
    Transport.create e ~model:(Model.constant ~delay:1.0 ~n ~seed:1L ()) ~host:Host.instant
  in
  let faults, channel = Nemesis.install t ~seed ~plan ~retransmit in
  let layer = Transport.intern t "test" in
  let got = ref [] in
  for p = 0 to n - 1 do
    Transport.register t p ~layer (fun msg ->
        match msg.Message.payload with
        | Probe k -> got := (msg.Message.src, msg.Message.dst, k) :: !got
        | _ -> ())
  done;
  let send ~src ~dst k = Transport.send t ~src ~dst ~layer ~body_bytes:8 (Probe k) in
  { e; faults; channel; send; got }

let send_at r ~at ~src ~dst k = Engine.schedule r.e ~at (fun () -> r.send ~src ~dst k)
let probes r = List.rev_map (fun (_, _, k) -> k) !(r.got)

let count_trace r f =
  List.length (Trace.filter (Engine.trace r.e) (fun ev -> f ev.Trace.kind))

let channel_stats r = Retransmit.channel_stats (Option.get r.channel)
let drop_all = Nemesis.Drop { link = Nemesis.any_link; prob = 1.0; window = Nemesis.always }

(* --- Nemesis ------------------------------------------------------------- *)

let test_drop_all () =
  let r = rig ~n:2 [ drop_all ] in
  for k = 1 to 5 do
    r.send ~src:0 ~dst:1 k
  done;
  Engine.run r.e;
  checki "nothing arrives" 0 (List.length !(r.got));
  checki "all drops counted" 5 r.faults.Model.Fault_stats.drops;
  checki "drops recorded in trace" 5
    (count_trace r (function Trace.Net_drop _ -> true | _ -> false))

let test_partition_cuts_cross_group_only () =
  let plan =
    [
      Nemesis.Partition
        {
          groups = [ [ 0; 1 ]; [ 2; 3 ] ];
          window = Nemesis.window ~from_t:0.0 ~until_t:100.0;
        };
    ]
  in
  let r = rig ~n:4 plan in
  send_at r ~at:1.0 ~src:0 ~dst:1 1;  (* same group: passes *)
  send_at r ~at:1.0 ~src:0 ~dst:2 2;  (* cross group: cut *)
  send_at r ~at:1.0 ~src:3 ~dst:1 3;  (* cross group, other direction: cut *)
  send_at r ~at:150.0 ~src:0 ~dst:2 4;  (* after heal: passes *)
  Engine.run r.e;
  checki "two arrivals" 2 (List.length !(r.got));
  checki "two partition drops" 2 r.faults.Model.Fault_stats.partition_drops;
  let marker k = count_trace r (fun kind -> kind = k) in
  checki "partition start traced" 1 (marker (Trace.Partition_start "{0 1}|{2 3}"));
  checki "partition heal traced" 1 (marker (Trace.Partition_heal "{0 1}|{2 3}"))

let test_isolate_outbound_only () =
  let plan =
    [
      Nemesis.Isolate
        { pid = 1; inbound = false; outbound = true; window = Nemesis.always };
    ]
  in
  let r = rig ~n:3 plan in
  r.send ~src:1 ~dst:0 1;  (* outbound from the victim: cut *)
  r.send ~src:0 ~dst:1 2;  (* inbound to the victim: passes (asymmetric) *)
  Engine.run r.e;
  Alcotest.(check (list (pair int int))) "only inbound arrives" [ (0, 1) ]
    (List.map (fun (src, dst, _) -> (src, dst)) !(r.got));
  checki "one partition drop" 1 r.faults.Model.Fault_stats.partition_drops

let test_crash_clause () =
  let r = rig ~n:3 [ Nemesis.Crash { pid = 1; at = 5.0 } ] in
  Engine.run r.e;
  checkb "p1 dead" false (Engine.is_alive r.e 1);
  checki "crash counted" 1 r.faults.Model.Fault_stats.crashes

let test_nemesis_deterministic () =
  let coin = Nemesis.Drop { link = Nemesis.any_link; prob = 0.5; window = Nemesis.always } in
  let outcomes ?(both_ways = false) seed =
    let r = rig ~seed ~n:2 [ coin ] in
    for k = 1 to 40 do
      r.send ~src:0 ~dst:1 k;
      if both_ways then r.send ~src:1 ~dst:0 k
    done;
    Engine.run r.e;
    let forward = List.filter_map (fun (src, _, k) -> if src = 0 then Some k else None) !(r.got) in
    (forward, r.faults.Model.Fault_stats.drops)
  in
  let a1 = outcomes 7L and a2 = outcomes 7L in
  Alcotest.(check (pair (list int) int)) "same seed, same faults" a1 a2;
  let arrived, drops = a1 in
  checki "partial loss" 40 (List.length arrived + drops);
  checkb "some dropped, some passed" true (arrived <> [] && drops > 0);
  (* Draws are per link: traffic on 1->0 leaves 0->1's fates unchanged. *)
  Alcotest.(check (list int)) "reverse traffic leaves the link's draws alone" arrived
    (fst (outcomes ~both_ways:true 7L))

let test_plan_pp () =
  let plan =
    [
      Nemesis.Drop
        {
          link = { Nemesis.l_src = Some 0; l_dst = None; l_layer = Some "rb" };
          prob = 1.0;
          window = Nemesis.always;
        };
      Nemesis.Crash { pid = 0; at = 10.0 };
    ]
  in
  let s = Nemesis.plan_to_string plan in
  checkb "mentions drop" true (Test_util.contains s "drop(src=0,layer=rb");
  checkb "mentions crash" true (Test_util.contains s "crash(p0");
  checkb "single line" true (not (String.contains s '\n'))

(* --- Retransmission channel ---------------------------------------------- *)

let test_retransmit_lossless_passthrough () =
  let r = rig ~retransmit:true ~n:2 [] in
  for k = 1 to 5 do
    r.send ~src:0 ~dst:1 k
  done;
  Engine.run ~until:200.0 r.e;
  let stats = channel_stats r in
  Alcotest.(check (list int)) "in order, exactly once" [ 1; 2; 3; 4; 5 ] (probes r);
  checki "no retransmits on a clean link" 0 stats.Retransmit.retransmits;
  checki "one transmission per message" 5 stats.Retransmit.transmissions;
  checki "queue drained" 0 (Engine.pending r.e)

let test_retransmit_recovers_from_drop_window () =
  let plan =
    [
      Nemesis.Drop
        {
          link = Nemesis.any_link;
          prob = 1.0;
          window = Nemesis.window ~from_t:0.0 ~until_t:12.0;
        };
    ]
  in
  let r = rig ~retransmit:true ~n:2 plan in
  Engine.schedule r.e ~at:1.0 (fun () ->
      for k = 1 to 3 do
        r.send ~src:0 ~dst:1 k
      done);
  Engine.run ~until:500.0 r.e;
  Alcotest.(check (list int)) "all delivered in order after the window"
    [ 1; 2; 3 ] (probes r);
  checkb "recovery needed retransmits" true ((channel_stats r).Retransmit.retransmits > 0);
  checki "queue drained" 0 (Engine.pending r.e)

let test_retransmit_restores_order () =
  (* Slow only the first send by 5 ms: it reaches the wire after the
     second one and arrives out of order underneath the channel. *)
  let plan =
    [
      Nemesis.Slow
        {
          link = Nemesis.any_link;
          extra = 5.0;
          window = Nemesis.window ~from_t:0.0 ~until_t:2.0;
        };
    ]
  in
  let r = rig ~retransmit:true ~n:2 plan in
  send_at r ~at:1.0 ~src:0 ~dst:1 1;
  send_at r ~at:3.0 ~src:0 ~dst:1 2;
  Engine.run ~until:100.0 r.e;
  Alcotest.(check (list int)) "FIFO restored" [ 1; 2 ] (probes r);
  checkb "second frame was held" true ((channel_stats r).Retransmit.held_out_of_order > 0)

let test_retransmit_purges_on_crash () =
  let r = rig ~retransmit:true ~n:2 [ drop_all ] in
  send_at r ~at:1.0 ~src:0 ~dst:1 1;
  Engine.crash_at r.e 1 ~at:20.0;
  (* The destination is dead and every frame is dropped: without the
     crash-stop purge the retry loop would keep the queue non-empty
     forever and this horizon-less drain would never return. *)
  Engine.run ~until:100.0 r.e;
  Engine.run r.e;
  checki "nothing delivered" 0 (List.length !(r.got));
  checki "queue fully drained" 0 (Engine.pending r.e)

(* [install]'s layering rule: the channel sits outside the faults, so a
   retry inside a drop window is dropped — and counted — like the first
   transmission.  One frame sent at 1 ms under a 30 ms blackout goes out
   at 1, 9 (RTO 8) and 25 (RTO 16), all dropped, and lands at 57.  With
   the channel inside the faults, the first drop would lose the frame
   for good. *)
let test_retries_traverse_faults () =
  let plan =
    [
      Nemesis.Drop
        {
          link = Nemesis.any_link;
          prob = 1.0;
          window = Nemesis.window ~from_t:0.0 ~until_t:30.0;
        };
    ]
  in
  let r = rig ~retransmit:true ~n:2 plan in
  send_at r ~at:1.0 ~src:0 ~dst:1 1;
  Engine.run ~until:500.0 r.e;
  let stats = channel_stats r in
  Alcotest.(check (list int)) "delivered once the window closes" [ 1 ] (probes r);
  checki "retries in the window" 3 stats.Retransmit.retransmits;
  checki "every transmission in the window dropped" 3 r.faults.Model.Fault_stats.drops;
  checki "each drop traced" 3
    (count_trace r (function Trace.Net_drop _ -> true | _ -> false));
  checki "queue drained" 0 (Engine.pending r.e)

(* --- Scripted-rule fault counters (Stack.fault_counters) ------------------ *)

let test_scripted_counters_surface () =
  let config =
    {
      Stack.default_config with
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let rule (m : Message.t) =
    if Message.layer_name m = "rb" && m.Message.src = 0 then Model.Drop else Model.Pass
  in
  let stack =
    Test_util.run_stack ~rule config [ (1.0, 0, 16); (5.0, 1, 16) ]
  in
  let counters = Stack.fault_counters stack in
  let get k = try List.assoc k counters with Not_found -> 0 in
  checkb "drops counted" true (get "drops" > 0);
  checki "per-layer attribution" (get "drops") (get "drops[rb]");
  (* A clean stack exposes no counters at all. *)
  let clean = Test_util.run_stack config [ (1.0, 0, 16) ] in
  Alcotest.(check (list (pair string int))) "no faults, no counters" []
    (Stack.fault_counters clean)

(* --- Post-crash silence --------------------------------------------------- *)

let test_no_steps_after_crash () =
  let config =
    {
      Stack.default_config with
      setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let stack =
    Test_util.run_stack ~crashes:[ (0, 10.0) ] config
      [ (1.0, 0, 16); (2.0, 1, 16); (20.0, 2, 16) ]
  in
  let late_p0_events =
    Trace.filter
      (Engine.trace stack.Stack.engine)
      (fun ev ->
        ev.Trace.pid = 0 && ev.Trace.time > 10.0 && ev.Trace.kind <> Trace.Crash)
  in
  checki "a crashed process takes no further protocol steps" 0
    (List.length late_p0_events);
  (* An abroadcast call on behalf of a dead process is a no-op. *)
  let before = List.length (Abcast.delivered_sequence stack.Stack.abcast 1) in
  ignore (Stack.abroadcast stack ~src:0 ~body_bytes:16);
  Stack.run ~until:30_000.0 stack;
  checki "dead-origin abroadcast delivers nothing"
    before
    (List.length (Abcast.delivered_sequence stack.Stack.abcast 1))

(* --- Chaos harness -------------------------------------------------------- *)

let test_chaos_indirect_clean_under_drops () =
  let r = Chaos.run_one Chaos.Ct_indirect Chaos.Drop ~seed:1L in
  checkb "passed" true (Chaos.passed r);
  checkb "faults were actually injected" true
    (List.mem_assoc "drops" r.Chaos.faults);
  checkb "channel worked for it" true (List.length r.Chaos.retx > 0)

let test_chaos_blackout_breaks_on_ids_only () =
  let faulty = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:1L in
  checkb "on-ids violates" true (not (Chaos.passed faulty));
  checkb "no-loss violated" true
    (Test_util.has_violation faulty.Chaos.verdict "indirect-consensus.no-loss");
  checkb "validity violated" true
    (Test_util.has_violation faulty.Chaos.verdict "abcast.validity");
  let indirect = Chaos.run_one Chaos.Ct_indirect Chaos.Blackout ~seed:1L in
  checkb "indirect stays clean under the same plan" true (Chaos.passed indirect);
  let mr = Chaos.run_one Chaos.Mr_indirect Chaos.Blackout ~seed:1L in
  checkb "mr-indirect stays clean too" true (Chaos.passed mr)

(* The satellite pair around strict no-loss: over fair-lossy links the
   stack's quasi-reliable-channel assumption is broken and even the correct
   algorithm fails (seed pinned to a failing run); the retransmission
   channel restores the assumption and the same run is clean. *)
let test_strict_no_loss_needs_retransmission () =
  let with_retx = Chaos.run_one ~retransmit:true Chaos.Ct_indirect Chaos.Drop ~seed:2L in
  checkb "with retransmission: all properties (incl. strict no-loss) hold" true
    (Checker.ok with_retx.Chaos.verdict && with_retx.Chaos.quiescent);
  let without = Chaos.run_one ~retransmit:false Chaos.Ct_indirect Chaos.Drop ~seed:2L in
  checkb "without: the lossy link breaks the stack" true
    (not (Checker.ok without.Chaos.verdict))

let test_chaos_replay_bit_identical () =
  let a = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:3L in
  let b = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:3L in
  Alcotest.(check string) "same fingerprint" a.Chaos.fingerprint b.Chaos.fingerprint;
  Alcotest.(check (list (pair string int))) "same fault counters"
    a.Chaos.faults b.Chaos.faults;
  checki "same violation count"
    (List.length a.Chaos.verdict.Checker.violations)
    (List.length b.Chaos.verdict.Checker.violations);
  let c = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:4L in
  checkb "different seed, different run" true
    (c.Chaos.fingerprint <> a.Chaos.fingerprint)

let test_chaos_sweep_and_report () =
  let cells =
    List.map fst
      (Chaos.sweep_results ~seeds:2 ~stacks:[ Chaos.Ct_indirect; Chaos.Ct_on_ids ]
         ~plans:[ Chaos.Drop; Chaos.Blackout ] ())
  in
  checki "four cells" 4 (List.length cells);
  checkb "indirect clean, on-ids dirty" true (Chaos.indirect_clean cells);
  let faulty_cell =
    List.find
      (fun c -> c.Chaos.c_stack = Chaos.Ct_on_ids && c.Chaos.c_plan = Chaos.Blackout)
      cells
  in
  checki "every blackout seed fails on-ids" 2 (List.length faulty_cell.Chaos.failures);
  let report = Format.asprintf "%a" (Chaos.report ~verbose:false) cells in
  checkb "matrix rendered" true (Test_util.contains report "ct-indirect");
  checkb "failure is replayable" true (Test_util.contains report "--seed-base");
  let hint = Chaos.replay_hint (List.hd faulty_cell.Chaos.failures) in
  checkb "hint names the cell" true
    (Test_util.contains hint "--stacks ct-on-ids --plans blackout")

(* The nondeterminism fence on the parallel sweep: a domains-wide sweep
   must agree with the sequential one on every run's fingerprint (not
   just the failure lists), and both must agree with a fingerprint
   pinned when the sweep was single-domain only — so neither the
   parallel merge nor domain scheduling can move a single trace byte.

   The domain-spawning half runs in a forked child: this OCaml runtime
   forbids [Unix.fork] in any process that has {e ever} spawned a
   domain, and later suites fork live clusters — the same reason
   {!Chaos.sweep_results} itself forces [jobs = 1] on the live backend. *)
let test_chaos_jobs_fingerprint_identical () =
  let stacks = [ Chaos.Ct_indirect; Chaos.Ct_on_ids ] in
  let plans = [ Chaos.Drop; Chaos.Blackout ] in
  let fingerprints jobs =
    Chaos.sweep_results ~seed_base:2L ~seeds:2 ~jobs ~stacks ~plans ()
    |> List.concat_map (fun (_, results) ->
           List.map (fun r -> r.Chaos.fingerprint) results)
  in
  let seq = fingerprints 1 in
  checki "one fingerprint per run" 8 (List.length seq);
  Alcotest.(check string) "first run matches the single-domain pin"
    "5db0aa10eb8b9804679f656f940d540a" (List.hd seq);
  match Unix.fork () with
  | 0 ->
      let status =
        match fingerprints 4 = seq with
        | true ->
            if Chaos.replay_check ~jobs:4 ~seed_base:2L ~stacks ~plans () = []
            then 0
            else 3
        | false -> 2
        | exception e ->
            Printf.eprintf "parallel sweep raised: %s\n%!" (Printexc.to_string e);
            4
      in
      Unix._exit status
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 2 ->
          Alcotest.fail "jobs=4 sweep fingerprints differ from jobs=1"
      | _, Unix.WEXITED 3 ->
          Alcotest.fail "replay check found mismatches at jobs=4"
      | _, Unix.WEXITED c ->
          Alcotest.fail (Printf.sprintf "parallel sweep child exited %d" c)
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Alcotest.fail (Printf.sprintf "parallel sweep child killed by signal %d" s))

let suites =
  [
    ( "nemesis",
      [
        Alcotest.test_case "drop-all loses everything" `Quick test_drop_all;
        Alcotest.test_case "partition cuts cross-group" `Quick
          test_partition_cuts_cross_group_only;
        Alcotest.test_case "asymmetric isolation" `Quick test_isolate_outbound_only;
        Alcotest.test_case "crash clause" `Quick test_crash_clause;
        Alcotest.test_case "seeded determinism" `Quick test_nemesis_deterministic;
        Alcotest.test_case "plan rendering" `Quick test_plan_pp;
      ] );
    ( "retransmit",
      [
        Alcotest.test_case "lossless passthrough" `Quick
          test_retransmit_lossless_passthrough;
        Alcotest.test_case "recovers from drop window" `Quick
          test_retransmit_recovers_from_drop_window;
        Alcotest.test_case "restores FIFO order" `Quick test_retransmit_restores_order;
        Alcotest.test_case "purges on crash" `Quick test_retransmit_purges_on_crash;
        Alcotest.test_case "retries traverse the faults" `Quick test_retries_traverse_faults;
      ] );
    ( "fault-accounting",
      [
        Alcotest.test_case "scripted counters surface" `Quick
          test_scripted_counters_surface;
        Alcotest.test_case "no steps after crash" `Quick test_no_steps_after_crash;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "indirect clean under drops" `Quick
          test_chaos_indirect_clean_under_drops;
        Alcotest.test_case "blackout breaks on-ids only" `Quick
          test_chaos_blackout_breaks_on_ids_only;
        Alcotest.test_case "strict no-loss needs retransmission" `Quick
          test_strict_no_loss_needs_retransmission;
        Alcotest.test_case "replay is bit-identical" `Quick
          test_chaos_replay_bit_identical;
        Alcotest.test_case "sweep and report" `Quick test_chaos_sweep_and_report;
        Alcotest.test_case "parallel sweep is bit-identical" `Quick
          test_chaos_jobs_fingerprint_identical;
      ] );
  ]
