(* Tests for batched/pipelined proposals and ring dissemination: batched
   cells must stay checker-green under every fault plan, an idle pipeline
   must propose at once while an open instance batches arrivals, the
   flush timer must drain sub-batch residues behind an open instance
   (including at the horizon, lint rule P2's discipline), and the batched
   sim cell must replay deterministically and stay pinned.  The
   batch=1/pipeline=1 default reproducing the pre-batching chaos runs is
   pinned in test_codec. *)

module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Checker = Ics_checker.Checker
module Chaos = Ics_workload.Chaos
module Saturation = Ics_workload.Saturation
module Run = Ics_workload.Run
module Profile = Ics_core.Profile
module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id

let checkb = Alcotest.(check bool)

let ideal = Stack.Ideal_lan { delay = 1.0; jitter = 0.2 }

let batched = { Abcast.batch = 4; pipeline = 2; flush_ms = 2.0 }

(* The make saturation-smoke cell's shape: n=5, batch=8/pipeline=2/flush=1
   ms, ring. *)
let smoke_cell algo =
  {
    Profile.default with
    Profile.n = 5;
    algo;
    broadcast = Profile.Ring;
    batch = 8;
    pipeline = 2;
    flush_ms = 1.0;
  }

(* Batching on top of faults: the chaos cells that exercise drops, churn
   and suspicion storms must stay green when several ids ride one
   instance and several instances run concurrently. *)
let test_batched_chaos_green () =
  List.iter
    (fun (stack, plan, seed) ->
      let r = Chaos.run_one ~batching:batched stack plan ~seed in
      checkb
        (Printf.sprintf "batched %s/%s seed %Ld" (Chaos.stack_name stack)
           (Chaos.plan_name plan) seed)
        true (Chaos.passed r))
    [
      (Chaos.Ct_indirect, Chaos.Drop, 2L);
      (Chaos.Ct_indirect, Chaos.Storm, 5L);
      (Chaos.Mr_indirect, Chaos.Mixed, 3L);
      (Chaos.Mr_indirect, Chaos.Storm, 7L);
    ]

(* Two runs of the batched/pipelined/ring saturation cell must produce
   bit-identical traces — determinism does not stop at batch=1. *)
let test_batched_replay_deterministic () =
  let profile =
    { Profile.default with Profile.broadcast = Profile.Ring; batch = 4; pipeline = 2; flush_ms = 2.0 }
  in
  match
    Run.replay (fun () ->
        Saturation.sim_fingerprint ~offered:200.0 ~duration_ms:400.0 profile)
  with
  | Ok _ -> ()
  | Error (a, b) -> Alcotest.failf "batched sim replay diverged: %s vs %s" a b

(* A run-twice check cannot see a change that moves both runs alike, so
   the make saturation-smoke cell (n=5, batch=8/pipeline=2/flush=1 ms,
   ring) is also pinned to its trace digest; re-captured when the
   announce was deferred by the flush delay and sent to every process,
   and when CT began deciding on acks at every process. *)
let test_saturation_fingerprint_pinned () =
  Alcotest.(check string)
    "saturation-smoke cell" "7e1b57c5b50140fe59b34ccc68a92fa7"
    (Saturation.sim_fingerprint ~seed:1L (smoke_cell Profile.Ct))

(* The same cell under MR (its batched path announces with [Nudge]) and
   under LB (Kick-driven ballots): the saturation pin above covers CT
   only.  Captured before the three stacks moved onto one instance
   skeleton, which had to leave them bit-identical; MR's re-captured when
   one step's sends began leaving as one frame per destination, and when
   the announce was deferred and sent to every process (LB's moved
   neither time). *)
let test_saturation_fingerprint_pinned_mr_lb () =
  List.iter
    (fun (algo, name, expect) ->
      Alcotest.(check string)
        ("saturation-smoke cell, " ^ name) expect
        (Saturation.sim_fingerprint ~seed:1L (smoke_cell algo)))
    [ (Profile.Mr, "mr", "61fa0dfcc8fb30dfcf1e95e720c06da3"); (Profile.Lb, "lb", "99b894f60a6c39297493d98073c9fcdc") ]

let delivered stack p = Abcast.delivered_sequence stack.Stack.abcast p

let events stack = Trace.events (Ics_sim.Engine.trace stack.Stack.engine)

(* Virtual time of the first event at [p] satisfying [f], if any. *)
let first_time stack p f =
  List.find_map
    (fun (e : Trace.event) -> if e.Trace.pid = p && f e.Trace.kind then Some e.Trace.time else None)
    (events stack)

let time_of what = function
  | Some t -> t
  | None -> Alcotest.failf "no %s in the trace" what

let rdeliver_time stack p id =
  time_of "Rdeliver"
    (first_time stack p (function
      | Trace.Rdeliver i -> Msg_id.equal i id
      | _ -> false))

let propose_time stack p id =
  time_of "Propose"
    (first_time stack p (function
      | Trace.Propose (_, ids) -> List.exists (Msg_id.equal id) ids
      | _ -> false))

let check_time = Alcotest.(check (float 1e-9))

(* The id [src] A-broadcast as its [seq]-th message. *)
let id_of src seq = Msg_id.make ~origin:src ~seq

(* A residue that arrives while an instance is held open: p0, round 1's
   coordinator, crashes before the first abcast and the oracle takes
   20 ms to say so, so instance 1 stays open at p1 and p2.  p2's later id
   is below [batch] with a slot free: only the flush timer can propose it
   before instance 1 decides, and it must do so [flush_ms] after the id
   arrives.  Delivery and the checker battery then hold the run to the
   usual standard. *)
let test_flush_timer_drains_residue () =
  let flush_ms = 5.0 in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 20.0;
      batching = { Abcast.batch = 64; pipeline = 2; flush_ms };
    }
  in
  let stack =
    Test_util.run_stack ~crashes:[ (0, 0.5) ] config [ (1.0, 1, 16); (4.0, 2, 16) ]
  in
  let residue = id_of 2 0 in
  List.iter
    (fun p ->
      check_time
        (Printf.sprintf "p%d proposes the residue at the flush" p)
        (rdeliver_time stack p residue +. flush_ms)
        (propose_time stack p residue);
      Alcotest.(check int)
        (Printf.sprintf "p%d delivered" p)
        2
        (List.length (delivered stack p)))
    [ 1; 2 ];
  Test_util.assert_clean_verdict "flush residue"
    (Checker.check_all_abcast (Test_util.checker_run stack))

(* The same held-open instance just before the run's horizon, with a
   flush period that would fire past it: the timer must not park the
   residue — lint rule P2's deadline discipline says flush now instead —
   so it is proposed the moment it arrives and the run still drains. *)
let test_flush_honors_horizon () =
  let horizon = 2_000.0 in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 20.0;
      batching = { Abcast.batch = 64; pipeline = 2; flush_ms = 500.0 };
    }
  in
  let stack =
    Test_util.run_stack ~horizon
      ~crashes:[ (0, horizon -. 60.0) ]
      config
      [ (horizon -. 55.0, 1, 16); (horizon -. 52.0, 2, 16) ]
  in
  let residue = id_of 2 0 in
  List.iter
    (fun p ->
      check_time
        (Printf.sprintf "p%d proposes the residue at once" p)
        (rdeliver_time stack p residue)
        (propose_time stack p residue);
      Alcotest.(check int)
        (Printf.sprintf "p%d delivered" p)
        2
        (List.length (delivered stack p)))
    [ 1; 2 ]

(* An idle pipeline proposes at once, as Algorithm 1 does: at batch 32
   the lone id would otherwise wait out the whole 5 ms flush. *)
let test_idle_pipeline_proposes_at_once () =
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      batching = { Abcast.batch = 32; pipeline = 4; flush_ms = 5.0 };
    }
  in
  let stack = Test_util.run_stack config [ (1.0, 0, 16) ] in
  let id = id_of 0 0 in
  let abroadcast =
    time_of "Abroadcast"
      (first_time stack 0 (function
        | Trace.Abroadcast i -> Msg_id.equal i id
        | _ -> false))
  in
  check_time "first Propose at the Abroadcast" abroadcast (propose_time stack 0 id);
  List.iter
    (fun p ->
      Alcotest.(check int) (Printf.sprintf "p%d delivered" p) 1
        (List.length (delivered stack p)))
    [ 0; 1; 2 ]

(* While an instance is open, arrivals batch: a burst at p0 faster than
   one decision opens instance 1 at once, and every later instance at p0
   opens only when a decision lands, [batch] fresh ids have piled up, or
   the flush is due — never merely because a pipeline slot is free. *)
let test_open_instance_batches () =
  let batch = 8 and flush_ms = 20.0 in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      batching = { Abcast.batch; pipeline = 4; flush_ms };
    }
  in
  let count = 30 in
  let stack =
    Test_util.run_stack config
      (List.init count (fun i -> (1.0 +. (0.1 *. float_of_int i), 0, 16)))
  in
  let evs = List.filter (fun (e : Trace.event) -> e.Trace.pid = 0) (events stack) in
  let decided_at t =
    List.exists
      (fun (e : Trace.event) ->
        Float.equal e.Trace.time t
        && match e.Trace.kind with Trace.Decide _ -> true | _ -> false)
      evs
  in
  let proposals =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.kind with
        | Trace.Propose (k, ids) -> Some (e.Trace.time, k, ids)
        | _ -> None)
      evs
  in
  List.iter
    (fun (t, k, ids) ->
      let oldest = List.fold_left (fun m id -> Float.min m (rdeliver_time stack 0 id)) t ids in
      if k > 1 then
        checkb
          (Printf.sprintf "instance %d at %.3f opened by a decision, batch or flush" k t)
          true
          (decided_at t || List.length ids >= batch || t >= oldest +. flush_ms))
    proposals;
  checkb "fewer instances than messages" true (List.length proposals < count / 2);
  Alcotest.(check int) "all delivered" count (List.length (delivered stack 1))

(* Ring dissemination under batching: payloads travel successor to
   successor while ids ride batched pipelined instances, and the full
   battery (incl. strict no-loss) holds. *)
let test_ring_batched_delivers () =
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = ideal;
      fd_kind = Stack.Oracle 10.0;
      broadcast = Stack.Ring;
      batching = batched;
    }
  in
  let stack =
    Test_util.run_stack config (Test_util.burst ~n:3 ~count:5 ~body_bytes:20 ~spacing:3.0)
  in
  let seq p = List.map Ics_net.Msg_id.to_string (delivered stack p) in
  Alcotest.(check int) "all delivered" 15 (List.length (seq 0));
  List.iter
    (fun p -> Alcotest.(check (list string)) "same order" (seq 0) (seq p))
    [ 1; 2 ];
  Test_util.assert_clean_verdict "ring batched"
    (Checker.check_all_abcast (Test_util.checker_run stack))

(* Ring order: a process hands a payload on before delivering it, so on
   every link the Pass goes out ahead of any consensus frame the delivery
   triggers.  p2 broadcasts one message and its own delivery proposes, so
   p2 then sends p0 consensus frames (its ack of p0's proposal, and its
   announce when that falls due first); p0's delivery proposes to p1, so both p2 -> p0 and p0 -> p1
   carry a frame of each kind.  With a constant delay every link is FIFO,
   so send order is arrival order. *)
let test_ring_pass_precedes_consensus () =
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
      broadcast = Stack.Ring;
      batching = batched;
    }
  in
  let sent = ref [] in
  let rule (m : Ics_net.Message.t) =
    sent := (m.src, m.dst, Ics_net.Message.layer_name m) :: !sent;
    Ics_net.Model.Pass
  in
  ignore (Test_util.run_stack ~rule config [ (1.0, 2, 16) ] : Stack.t);
  let on_link src dst =
    List.filter_map
      (fun (s, d, layer) -> if s = src && d = dst then Some layer else None)
      (List.rev !sent)
  in
  List.iter
    (fun (src, dst) ->
      let link = on_link src dst in
      let where = Printf.sprintf "p%d -> p%d" src dst in
      checkb (where ^ " carries consensus") true (List.mem "consensus" link);
      Alcotest.(check (option string))
        (where ^ ": the Pass is the first frame") (Some "rb")
        (List.find_opt (fun l -> l = "rb" || l = "consensus") link))
    [ (2, 0); (0, 1) ]

(* A cell that fails on consensus termination alone (it drained, and
   every safety and delivery property held, but an instance was left
   open) is labelled apart from safety failures, which keep the plain
   label; exit criteria count both alike.  No batched cell ends that
   way any more — storm seed 64 at batch 8/2, the first that did (an
   instance announced only to a dead round-1 coordinator), now passes —
   so the labelled cell is a real failed run with its verdict cut down
   to a termination finding. *)
let test_termination_only_label () =
  let former_gap =
    Chaos.run_one
      ~batching:{ Abcast.batch = 8; pipeline = 2; flush_ms = 1.0 }
      Chaos.Ct_indirect Chaos.Storm ~seed:64L
  in
  checkb "storm seed 64 passes" true (Chaos.passed former_gap);
  let safety = Chaos.run_one Chaos.Ct_on_ids Chaos.Blackout ~seed:1L in
  let gap =
    {
      safety with
      Chaos.quiescent = true;
      verdict =
        {
          safety.Chaos.verdict with
          Checker.violations =
            [
              {
                Checker.property = "consensus.termination";
                culprit = None;
                detail = "instance 5 proposed by a correct process but never decided";
              };
            ];
        };
    }
  in
  let label r =
    Format.asprintf "%a" Ics_prelude.Table.pp
      (Chaos.matrix_table
         [ { Chaos.c_stack = r.Chaos.stack; c_plan = r.Chaos.plan_kind; runs = 1; failures = [ r ] } ])
  in
  checkb "gap labelled" true (Test_util.contains (label gap) "0/1 FAIL (termination)");
  checkb "safety failure unlabelled" false (Test_util.contains (label safety) "(termination)");
  checkb "safety failure shown" true (Test_util.contains (label safety) "0/1 FAIL")

let suites =
  [
    ( "batching",
      [
        Alcotest.test_case "batched chaos cells green" `Quick test_batched_chaos_green;
        Alcotest.test_case "batched replay deterministic" `Quick
          test_batched_replay_deterministic;
        Alcotest.test_case "flush timer drains residue" `Quick
          test_flush_timer_drains_residue;
        Alcotest.test_case "flush honors horizon" `Quick test_flush_honors_horizon;
        Alcotest.test_case "idle pipeline proposes at once" `Quick
          test_idle_pipeline_proposes_at_once;
        Alcotest.test_case "open instance batches arrivals" `Quick
          test_open_instance_batches;
        Alcotest.test_case "ring + batching delivers" `Quick test_ring_batched_delivers;
        Alcotest.test_case "ring pass precedes consensus" `Quick
          test_ring_pass_precedes_consensus;
        Alcotest.test_case "saturation fingerprint pinned" `Quick
          test_saturation_fingerprint_pinned;
        Alcotest.test_case "saturation fingerprint pinned (mr, lb)" `Quick
          test_saturation_fingerprint_pinned_mr_lb;
        Alcotest.test_case "termination-only cells labelled" `Quick
          test_termination_only_label;
      ] );
  ]
