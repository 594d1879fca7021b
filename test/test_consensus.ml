(* Tests for the consensus layer: quorum arithmetic, proposals, and the CT
   and MR algorithms (original and indirect). *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Fd = Ics_fd.Failure_detector
module Quorum = Ics_consensus.Quorum
module Proposal = Ics_consensus.Proposal
module Ct = Ics_consensus.Ct
module Mr = Ics_consensus.Mr
module Lb = Ics_consensus.Lb
module Instances = Ics_consensus.Instances
module Intf = Ics_consensus.Consensus_intf

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Quorums *)

let test_quorum_values () =
  checki "majority n=3" 2 (Quorum.majority ~n:3);
  checki "majority n=4" 3 (Quorum.majority ~n:4);
  checki "majority n=5" 3 (Quorum.majority ~n:5);
  checki "two-thirds n=3" 3 (Quorum.two_thirds ~n:3);
  checki "two-thirds n=4" 3 (Quorum.two_thirds ~n:4);
  checki "two-thirds n=5" 4 (Quorum.two_thirds ~n:5);
  checki "two-thirds n=7" 5 (Quorum.two_thirds ~n:7);
  checki "one-third n=5" 2 (Quorum.one_third ~n:5);
  checki "one-third n=7" 3 (Quorum.one_third ~n:7);
  checki "max faults majority n=5" 2 (Quorum.max_faults_majority ~n:5);
  checki "max faults two-thirds n=3" 0 (Quorum.max_faults_two_thirds ~n:3);
  checki "max faults two-thirds n=4" 1 (Quorum.max_faults_two_thirds ~n:4);
  checki "max faults two-thirds n=7" 2 (Quorum.max_faults_two_thirds ~n:7)

let qcheck_majority_is_majority =
  QCheck.Test.make ~name:"majority quorum exceeds half" ~count:200
    QCheck.(int_range 1 500)
    (fun n -> 2 * Quorum.majority ~n > n)

let qcheck_two_majorities_intersect =
  QCheck.Test.make ~name:"two majority quorums always intersect" ~count:200
    QCheck.(int_range 1 500)
    (fun n -> (2 * Quorum.majority ~n) - n >= 1)

let qcheck_two_thirds_overlap =
  QCheck.Test.make
    ~name:"two-thirds quorums overlap in >= f+1 processes (the Figure 2 property)"
    ~count:200
    QCheck.(int_range 2 500)
    (fun n ->
      let q = Quorum.two_thirds ~n in
      let f = Quorum.max_faults_two_thirds ~n in
      (* Overlap of two q-quorums is at least 2q - n; the indirect MR proof
         needs it to reach f + 1. *)
      (2 * q) - n >= f + 1)

let qcheck_quorum_feasible =
  QCheck.Test.make ~name:"quorums are satisfiable by the correct processes" ~count:200
    QCheck.(int_range 2 500)
    (fun n ->
      Quorum.majority ~n <= n - Quorum.max_faults_majority ~n
      && Quorum.two_thirds ~n <= n - Quorum.max_faults_two_thirds ~n)

(* Proposals *)

let mid o s = Msg_id.make ~origin:o ~seq:s

let test_proposal_normalization () =
  let p = Proposal.on_ids [ mid 1 2; mid 0 1; mid 1 2; mid 0 0 ] in
  checki "dedup" 3 (Proposal.cardinal p);
  Alcotest.(check (list string)) "sorted" [ "p0#0"; "p0#1"; "p1#2" ] (Proposal.describe p);
  checkb "equal ignores order" true
    (Proposal.equal p (Proposal.on_ids [ mid 0 0; mid 0 1; mid 1 2 ]))

let test_proposal_sizes () =
  let ids = [ mid 0 0; mid 1 1 ] in
  let on_ids = Proposal.on_ids ids in
  let msgs =
    List.map (fun id -> App_msg.make ~id ~body_bytes:1000 ~created_at:0.0 ()) ids
  in
  let on_msgs = Proposal.on_messages msgs in
  checkb "same ids" true (Proposal.equal on_ids on_msgs);
  checki "ids size independent of payload" (Ics_net.Wire.id_set_bytes 2)
    (Proposal.wire_bytes on_ids);
  checki "messages size includes payloads" (Ics_net.Wire.id_set_bytes 2 + 2000)
    (Proposal.wire_bytes on_msgs)

let test_proposal_empty () =
  checkb "empty" true (Proposal.is_empty Proposal.empty);
  checki "empty cardinal" 0 (Proposal.cardinal Proposal.empty)

(* Consensus harness: drives a consensus layer directly (no atomic
   broadcast on top). *)

type harness = {
  engine : Engine.t;
  transport : Transport.t;
  handle : Intf.handle;
  decisions : (Pid.t * int * Proposal.t) list ref;
  holds : (Pid.t * Msg_id.t, unit) Hashtbl.t;  (* payload possession for rcv *)
  control : Fd.Control.t option;  (* the detector, when [~manual] *)
}

(* [~manual]: suspicions come only from [suspect]; otherwise an oracle
   detector reports each crash after [fd_delay].  [rule] scripts the
   network (delays, drops) on top of the 1 ms constant model.  [announce]
   is CT's and MR's announce delay, ms (LB has none).  [observe] sees
   each decision as it is made. *)
let mk ?(n = 3) ?(jitter = 0.0) ?(seed = 1L) ?fd_delay ?(manual = false) ?rule ?announce
    ?(observe = fun _ _ _ -> ()) ~algo ~indirect () =
  let engine = Engine.create ~seed ~n () in
  let model = Model.constant ~jitter ~delay:1.0 ~n ~seed () in
  let model = match rule with Some rule -> Model.scripted ~base:model ~rule | None -> model in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let control = if manual then Some (Fd.manual engine) else None in
  let fd =
    match control with
    | Some ctl -> Fd.Control.fd ctl
    | None -> Fd.oracle engine ~detection_delay:(Option.value fd_delay ~default:20.0)
  in
  let decisions = ref [] in
  let holds = Hashtbl.create 16 in
  let rcv_fn p ids = List.for_all (fun id -> Hashtbl.mem holds (p, id)) ids in
  let rcv = if indirect then Some rcv_fn else None in
  let callbacks =
    {
      Intf.on_decide =
        (fun p k v ->
          observe p k v;
          decisions := (p, k, v) :: !decisions);
      join = (fun _ _ -> Proposal.empty);
    }
  in
  let handle =
    match algo with
    | `Ct -> Ct.create ?announce transport fd { Instances.rcv } callbacks
    | `Mr -> Mr.create ?announce transport fd { Instances.rcv } callbacks
    | `Lb -> Lb.create transport fd { Instances.rcv } callbacks
  in
  { engine; transport; handle; decisions; holds; control }

let give h p id = Hashtbl.replace h.holds (p, id) ()

let suspect_at h ~at ~observer target =
  Engine.schedule h.engine ~at (fun () ->
      Fd.Control.suspect (Option.get h.control) ~observer target)

let propose_at h ~at p k prop =
  Engine.schedule h.engine ~at (fun () -> h.handle.Intf.propose p k prop)

let decisions_for h k =
  List.filter_map (fun (p, k', v) -> if k' = k then Some (p, v) else None) !(h.decisions)

let check_uniform_agreement h k ~expect_deciders =
  let decs = decisions_for h k in
  checki "all decided" expect_deciders (List.length decs);
  match decs with
  | [] -> ()
  | (_, v0) :: rest ->
      List.iter (fun (_, v) -> checkb "agreement" true (Proposal.equal v v0)) rest

(* Runs for both algorithms. *)

let test_simple_decision algo () =
  let h = mk ~algo ~indirect:false () in
  let v = Proposal.on_ids [ mid 0 0 ] in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  let _, decided = List.hd (decisions_for h 1) in
  checkb "validity" true (Proposal.equal decided v)

let test_divergent_proposals algo () =
  let h = mk ~algo ~indirect:false () in
  List.iteri
    (fun i p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid p i ]))
    [ 0; 1; 2 ];
  Engine.run h.engine;
  let decs = decisions_for h 1 in
  checki "all decided" 3 (List.length decs);
  let _, v0 = List.hd decs in
  List.iter (fun (_, v) -> checkb "same value" true (Proposal.equal v v0)) decs;
  (* Validity: the decision is one of the proposals. *)
  checkb "decision was proposed" true
    (List.exists (fun p -> Proposal.equal v0 (Proposal.on_ids [ mid p p ])) [ 0; 1; 2 ]
    || List.exists
         (fun (p, i) -> Proposal.equal v0 (Proposal.on_ids [ mid p i ]))
         [ (0, 0); (1, 1); (2, 2) ])

let test_multiple_instances algo () =
  let h = mk ~algo ~indirect:false () in
  for k = 1 to 5 do
    let v = Proposal.on_ids [ mid 0 k ] in
    List.iter (fun p -> propose_at h ~at:(float_of_int k) p k v) [ 0; 1; 2 ]
  done;
  Engine.run h.engine;
  for k = 1 to 5 do
    check_uniform_agreement h k ~expect_deciders:3
  done

let test_join_on_message algo () =
  (* Only p0 proposes; p1/p2 are dragged in and still decide. *)
  let h = mk ~algo ~indirect:false () in
  propose_at h ~at:1.0 0 1 (Proposal.on_ids [ mid 0 0 ]);
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  checkb "instance known everywhere" true
    (List.for_all (fun p -> h.handle.Intf.has_instance p 1) [ 0; 1; 2 ])

let test_coordinator_crash algo () =
  (* p0 is the round-1 coordinator; it crashes immediately after propose,
     before anything circulates.  The others recover via their detector. *)
  let h = mk ~algo ~indirect:false ~fd_delay:5.0 () in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid p 0 ])) [ 0; 1; 2 ];
  Engine.crash_at h.engine 0 ~at:1.0;
  Engine.run h.engine;
  let decs = decisions_for h 1 in
  checki "both correct decide" 2 (List.length decs);
  match decs with
  | (_, v0) :: rest ->
      List.iter (fun (_, v) -> checkb "agreement" true (Proposal.equal v v0)) rest
  | [] -> ()

let test_decide_reaches_late_crasher algo () =
  (* A process that crashes mid-run must not break the others. *)
  let h = mk ~algo ~indirect:false ~fd_delay:5.0 () in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid 0 0 ])) [ 0; 1; 2 ];
  Engine.crash_at h.engine 2 ~at:2.5;
  Engine.run h.engine;
  let decs = decisions_for h 1 in
  checkb "correct processes decided" true (List.length decs >= 2)

let test_indirect_waits_for_payload algo () =
  (* All three propose {id}; only p0 holds the payload initially.  The
     indirect algorithm must not decide until the payload spreads; once
     p1/p2 get it, the decision lands. *)
  let h = mk ~algo ~indirect:true () in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  (* Check that nothing is decided while payloads are missing... *)
  Engine.schedule h.engine ~at:40.0 (fun () ->
      checki "no premature decision" 0 (List.length !(h.decisions));
      give h 1 id;
      give h 2 id);
  Engine.run ~until:2_000.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  let _, decided = List.hd (decisions_for h 1) in
  checkb "decided the payload-backed value" true (Proposal.equal decided v)

let test_indirect_empty_proposal_trivial algo () =
  (* rcv(∅) is vacuously true: indirect consensus on empty sets decides. *)
  let h = mk ~algo ~indirect:true () in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 Proposal.empty) [ 0; 1; 2 ];
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3

(* CT-specific *)

let test_ct_indirect_tolerates_minority_crash () =
  (* n=3, f=1: CT-indirect keeps the original resilience (the paper's
     point in §3.2).  p2 holds nothing and crashes; p0/p1 hold the payload
     and decide. *)
  let h = mk ~algo:`Ct ~indirect:true ~fd_delay:5.0 () in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  give h 1 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1 ];
  Engine.crash_at h.engine 2 ~at:0.5;
  Engine.run ~until:2_000.0 h.engine;
  let decs = decisions_for h 1 in
  checki "two deciders" 2 (List.length decs)

let test_ct_no_decision_without_majority () =
  (* With 2 of 3 crashed, CT must block (f < n/2 violated) — and must not
     decide wrongly. *)
  let h = mk ~algo:`Ct ~indirect:false ~fd_delay:5.0 () in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid p 0 ])) [ 0; 1; 2 ];
  Engine.crash_at h.engine 1 ~at:0.1;
  Engine.crash_at h.engine 2 ~at:0.1;
  Engine.run ~until:500.0 h.engine;
  checki "blocked, no decision" 0 (List.length !(h.decisions))

(* CT phase 4, run by every process: decide on a majority of a round's
   acks, give the round up only once that majority is out of reach.
   n = 3, so two acks decide; p0 coordinates round 1, and its proposal
   is its ack.  Decision counters count every process's decisions. *)

let ct_counter h name = List.assoc name (h.handle.Intf.counters ())

let test_ct_nack_then_majority_decides_round1 () =
  (* p1 lacks the payload and its nack reaches p0 first; p2's ack lands
     in the same instant, behind it.  One ack plus one pending replier
     still make a majority, so round 1 decides at p0 at t = 3 instead of
     being given up on the nack.  p2 decides on p0's proposal and its own
     ack at t = 2, and p1, which nacked, on p2's ack at t = 3. *)
  let h = mk ~algo:`Ct ~indirect:true () in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  give h 2 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  Engine.schedule h.engine ~at:3.5 (fun () ->
      checkb "p0 decided by t = 3.5" true (List.mem_assoc 0 (decisions_for h 1)));
  Engine.run ~until:2_000.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  checki "decided in round 1, everywhere" 3 (ct_counter h "decisions.round1");
  checki "no later round" 0 (ct_counter h "decisions.round2")

let test_ct_two_nacks_end_round () =
  (* Only p0 holds the payload, so p1 and p2 both nack; p2 then crashes
     and the detector stays silent until t = 1000.  After the second
     nack no majority is reachable: p0 and p1 move to round 2, where p1
     proposes p0's estimate (stamped 1) and both ack it (p1 has the
     payload by then), which decides long before anyone suspects p2. *)
  let h = mk ~algo:`Ct ~indirect:true ~fd_delay:1_000.0 () in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  Engine.schedule h.engine ~at:2.5 (fun () -> give h 1 id);
  Engine.crash_at h.engine 2 ~at:2.5;
  Engine.schedule h.engine ~at:10.0 (fun () ->
      checki "p0 and p1 decided by t = 10" 2 (List.length (decisions_for h 1)));
  Engine.run ~until:2_000.0 h.engine;
  checki "two nacks" 2 (ct_counter h "nacks");
  checki "p0 and p1 decided in round 2" 2 (ct_counter h "decisions.round2")

let test_ct_suspected_silent_replier_ends_round () =
  (* p1 nacks; p2 crashes before the proposal reaches it and never
     replies.  p0 and p1 wait while p2 could still ack, give round 1 up
     when they suspect p2 (t = 6.5), and the instance decides in round 2
     under p1.  Without the re-check on suspicion both would wait
     forever. *)
  let h = mk ~algo:`Ct ~indirect:true ~fd_delay:5.0 () in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  Engine.crash_at h.engine 2 ~at:1.5;
  Engine.schedule h.engine ~at:4.0 (fun () -> give h 1 id);
  Engine.run ~until:2_000.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:2;
  checki "p0 and p1 decided in round 2" 2 (ct_counter h "decisions.round2")

(* MR-specific: the resilience drop of the indirect variant. *)

let test_mr_indirect_blocks_at_f1_n3 () =
  (* n=3 indirect MR needs ⌈7/3⌉=3 relays per round: a single crash stops
     progress — the f < n/3 resilience loss of §3.3.3 made concrete. *)
  let h = mk ~algo:`Mr ~indirect:true ~fd_delay:5.0 () in
  let id = mid 0 0 in
  List.iter (fun p -> give h p id) [ 0; 1; 2 ];
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ id ])) [ 0; 1; 2 ];
  Engine.crash_at h.engine 2 ~at:0.1;
  Engine.run ~until:500.0 ~max_events:200_000 h.engine;
  checki "blocked with one crash at n=3" 0 (List.length !(h.decisions))

let test_mr_original_survives_f1_n3 () =
  (* Same schedule, original MR (majority quorums): decides fine. *)
  let h = mk ~algo:`Mr ~indirect:false ~fd_delay:5.0 () in
  let id = mid 0 0 in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ id ])) [ 0; 1; 2 ];
  Engine.crash_at h.engine 2 ~at:0.1;
  Engine.run ~until:500.0 h.engine;
  checki "two deciders" 2 (List.length (decisions_for h 1))

let test_mr_indirect_tolerates_f1_n4 () =
  (* n=4: ⌈9/3⌉=3 relays per round, so one crash is fine. *)
  let h = mk ~n:4 ~algo:`Mr ~indirect:true ~fd_delay:5.0 () in
  let id = mid 0 0 in
  List.iter (fun p -> give h p id) [ 0; 1; 2; 3 ];
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ id ])) [ 0; 1; 2; 3 ];
  Engine.crash_at h.engine 3 ~at:0.1;
  Engine.run ~until:2_000.0 h.engine;
  checki "three deciders" 3 (List.length (decisions_for h 1))

let test_mr_two_step_decision () =
  (* In a suspicion-free round MR decides within two communication steps:
     coordinator relay (1 step) + everyone's phase-2 relay (1 step). *)
  let h = mk ~algo:`Mr ~indirect:false () in
  let v = Proposal.on_ids [ mid 0 0 ] in
  List.iter (fun p -> propose_at h ~at:0.0 p 1 v) [ 0; 1; 2 ];
  Engine.schedule h.engine ~at:2.5 (fun () ->
      checkb "decided within 2 steps + epsilon" true (List.length !(h.decisions) >= 1));
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3

(* Determinism: identical seeds give identical decision transcripts. *)

let transcript algo seed =
  let h = mk ~algo ~indirect:false ~seed ~jitter:0.5 () in
  List.iteri
    (fun i p -> propose_at h ~at:(1.0 +. (0.3 *. float_of_int i)) p 1 (Proposal.on_ids [ mid p 0 ]))
    [ 0; 1; 2 ];
  Engine.run h.engine;
  List.map
    (fun (p, k, v) -> Printf.sprintf "%d/%d/%s" p k (String.concat "," (Proposal.describe v)))
    !(h.decisions)

let test_determinism algo () =
  Alcotest.(check (list string)) "same seed, same transcript" (transcript algo 42L)
    (transcript algo 42L);
  checkb "transcripts non-empty" true (transcript algo 42L <> [])

(* The undecided-instance count: one per open instance, joins included,
   back to zero once everything decides.  With a 1 ms constant delay and
   only p0 proposing (at t=1), p1 and p2 have joined by t=2.  By t=2.5
   nothing has decided in MR (indirect, so it waits for all three
   relays; everyone holds the payload) or LB; in CT p1 and p2 have
   decided on p0's proposal and their own acks, and p0 waits for theirs. *)
let test_undecided_count algo () =
  let h = mk ~algo ~indirect:true () in
  List.iter (fun p -> give h p (mid 0 0)) [ 0; 1; 2 ];
  let counts () = List.map h.handle.Intf.undecided [ 0; 1; 2 ] in
  let check_at ~until expect =
    Engine.run ~until h.engine;
    Alcotest.(check (list int))
      (Printf.sprintf "undecided at t=%g" until)
      expect (counts ())
  in
  propose_at h ~at:1.0 0 1 (Proposal.on_ids [ mid 0 0 ]);
  check_at ~until:0.5 [ 0; 0; 0 ];
  check_at ~until:1.5 [ 1; 0; 0 ];
  check_at ~until:2.5 (match algo with `Ct -> [ 1; 0; 0 ] | `Mr | `Lb -> [ 1; 1; 1 ]);
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  Alcotest.(check (list int)) "undecided after the decisions" [ 0; 0; 0 ] (counts ());
  (* A decision reaching a process that never heard of the instance
     creates it decided: the count does not move. *)
  Ics_core.Codecs.ensure ();
  let decide_name =
    match algo with `Ct -> "ct.decide" | `Mr -> "mr.decide" | `Lb -> "lb.decide"
  in
  let e =
    List.find
      (fun (e : Ics_codec.Codec.entry) -> e.name = decide_name)
      (Ics_codec.Codec.entries ())
  in
  let payload = e.gen (Ics_prelude.Rng.create 7L) in
  let layer = Transport.intern h.transport "consensus" in
  Transport.send h.transport ~src:0 ~dst:2 ~layer ~body_bytes:16 payload;
  Engine.run h.engine;
  checkb "adopted instance known" true
    (List.exists (fun k -> k <> 1 && h.handle.Intf.has_instance 2 k) (List.init 100 Fun.id));
  Alcotest.(check (list int)) "adopting a decision opens nothing" [ 0; 0; 0 ] (counts ())

(* CT's remote sends by kind, with only p0 proposing: p0's round-1
   proposal reaches two peers, which join on it and ack it to every
   other process.  Each decides on the proposal and its own ack, and p0
   on the first ack: no estimate, no decision and no answer is sent.
   There is no announce (unbatched).  A send to oneself is not
   counted. *)
let test_ct_send_counters () =
  let h = mk ~algo:`Ct ~indirect:false () in
  propose_at h ~at:1.0 0 1 (Proposal.on_ids [ mid 0 0 ]);
  Engine.run h.engine;
  let c = h.handle.Intf.counters () in
  let get k = List.assoc k c in
  checki "announce" 0 (get "sent.est.r1");
  checki "round-1 proposal" 2 (get "sent.prop.r1");
  checki "no round-2 estimate" 0 (get "sent.est.r2+");
  checki "no round-2 proposal" 0 (get "sent.prop.r2+");
  checki "no decision" 0 (get "sent.decide");
  checki "acks, to all" 4 (get "sent.ack");
  checki "decided on acks, everywhere" 3 (get "decisions.round1");
  checki "no answer" 0 (get "answers");
  checki "no telling" 0 (get "tells")

(* CT's and MR's announce delay in these tests, ms. *)
let announce_ms = 2.0

(* False suspicions, no crash: ◇S lets a detector suspect a correct
   process and trust it again, and CT must stay safe meanwhile and decide
   once the detector settles.  Per seed: three instances, each proposed
   by a random nonempty subset of the processes at random times, each
   proposer's own id as its value, with the announce on (as in batched
   runs, the coordinator may not propose); a proposer holds its payload from the
   start and every other process gets it 0.5 to 20 ms later.  One to
   eight episodes each make one observer suspect one peer from a random
   moment for 1 to 20 ms; every suspicion is retracted by t = 50.
   Agreement, validity (a proposer's value, or the empty join value of a
   process that proposed nothing), No loss (at each decision, some
   process holds every decided payload) and termination (every process
   decides every instance) must hold. *)
let false_suspicion_run ~n seed =
  let module Rng = Ics_prelude.Rng in
  let module Control = Fd.Control in
  let instances = 3 in
  let holds = ref (fun _ _ -> false) in
  let lost = ref [] in
  let observe p k v =
    let ids = Proposal.ids v in
    if not (List.exists (fun q -> List.for_all (!holds q) ids) (Pid.all ~n)) then
      lost := (p, k) :: !lost
  in
  let h =
    mk ~n ~jitter:0.5 ~seed:(Int64.of_int seed) ~manual:true ~announce:announce_ms ~observe
      ~algo:`Ct ~indirect:true ()
  in
  (holds := fun q id -> Hashtbl.mem h.holds (q, id));
  let rng = Rng.create (Int64.of_int ((seed * 7919) + n)) in
  let proposed = Array.make (instances + 1) [] in
  for k = 1 to instances do
    let proposers = List.filter (fun _ -> Rng.bool rng) (Pid.all ~n) in
    let proposers = if proposers = [] then [ Rng.int rng n ] else proposers in
    List.iter
      (fun p ->
        let id = mid p k in
        let at = Rng.float rng 10.0 in
        let v = Proposal.on_ids [ id ] in
        proposed.(k) <- v :: proposed.(k);
        Engine.schedule h.engine ~at (fun () -> give h p id);
        propose_at h ~at p k v;
        List.iter
          (fun q ->
            if not (Pid.equal q p) then
              Engine.schedule h.engine
                ~at:(at +. 0.5 +. Rng.float rng 19.5)
                (fun () -> give h q id))
          (Pid.all ~n))
      proposers
  done;
  let ctl = Option.get h.control in
  for _ = 1 to 1 + Rng.int rng 8 do
    let observer = Rng.int rng n in
    let target = (observer + 1 + Rng.int rng (n - 1)) mod n in
    let from = Rng.float rng 30.0 in
    Engine.schedule h.engine ~at:from (fun () -> Control.suspect ctl ~observer target);
    Engine.schedule h.engine ~at:(from +. 1.0 +. Rng.float rng 19.0) (fun () ->
        Control.trust ctl ~observer target)
  done;
  Engine.run ~until:5_000.0 ~max_events:2_000_000 h.engine;
  let where = Printf.sprintf "n=%d seed %d" n seed in
  for k = 1 to instances do
    let decs = decisions_for h k in
    checki (Printf.sprintf "%s: instance %d decided everywhere" where k) n (List.length decs);
    let _, v0 = List.hd decs in
    List.iter (fun (_, v) -> checkb (where ^ ": agreement") true (Proposal.equal v v0)) decs;
    checkb (where ^ ": validity") true
      (Proposal.is_empty v0 || List.exists (Proposal.equal v0) proposed.(k))
  done;
  checki (where ^ ": no loss") 0 (List.length !lost)

let test_ct_false_suspicion_sweep () =
  List.iter (fun n -> for seed = 1 to 200 do false_suspicion_run ~n seed done) [ 3; 4; 5 ]

(* Virtual time of [p]'s first trace event satisfying [f]. *)
let trace_time h p f =
  match
    List.find_opt
      (fun (e : Trace.event) -> Pid.equal e.Trace.pid p && f e.Trace.kind)
      (Trace.events (Engine.trace h.engine))
  with
  | Some e -> e.Trace.time
  | None -> Alcotest.failf "no such event at p%d" p

(* CT's thrifty rounds.  Frames are logged as they leave their sender
   for the wire, one entry per payload (a bundle's in order, all with
   the frame's sequence number), and read back from their encoding:
   kind, round (0 for a decision) and an ack's verdict. *)
type frame = {
  at : float;
  seq : int;
  inst : int;
  src : Pid.t;
  dst : Pid.t;
  kind : string;
  round : int;
  ok : bool;
}

let ct_payload payload =
  let module Prim = Ics_codec.Prim in
  let w = Ics_codec.Bq.create 64 in
  Ics_codec.Codec.encode_payload w payload;
  let rd = Prim.reader (Ics_codec.Bq.contents w) in
  let kind =
    match Prim.r_u8 rd with
    | 0x20 -> "est"
    | 0x21 -> "prop"
    | 0x22 -> "ack"
    | 0x23 -> "decide"
    | tag -> Alcotest.failf "not a CT payload (tag %#x)" tag
  in
  let k = Prim.r_u32 rd in
  let round = if kind = "decide" then 0 else Prim.r_u32 rd in
  let ok = kind = "ack" && Prim.r_bool rd in
  (k, kind, round, ok)

(* A frame's payloads, in the order its receiver handles them. *)
let payloads (m : Ics_net.Message.t) =
  match m.payload with Instances.Bundle ps -> ps | p -> [ p ]

(* Whether the frame carries a CT payload of this kind, round and verdict. *)
let carries m payload =
  List.exists
    (fun p ->
      let _, kind, round, ok = ct_payload p in
      (kind, round, ok) = payload)
    (payloads m)

let wire_log h =
  Ics_core.Codecs.ensure ();
  let log = ref [] and seq = ref 0 in
  Transport.interpose h.transport (fun next (m : Ics_net.Message.t) ->
      incr seq;
      List.iter
        (fun payload ->
          let inst, kind, round, ok = ct_payload payload in
          log :=
            {
              at = Engine.now h.engine;
              seq = !seq;
              inst;
              src = m.src;
              dst = m.dst;
              kind;
              round;
              ok;
            }
            :: !log)
        (payloads m);
      next m);
  fun () -> List.rev !log

let frames ?k ?src ?kind ?round log =
  List.filter
    (fun f ->
      Option.fold ~none:true ~some:(Int.equal f.inst) k
      && Option.fold ~none:true ~some:(Pid.equal f.src) src
      && Option.fold ~none:true ~some:(String.equal f.kind) kind
      && Option.fold ~none:true ~some:(Int.equal f.round) round)
    log

let describe fs =
  List.map (fun f -> Printf.sprintf "%s%d %d->%d" f.kind f.round f.src f.dst) fs

let test_ct_fault_free_round () =
  (* Fault-free, three instances: p0 proposes each to p1 and p2 (the
     proposal is its ack), both ack to every other process, and every
     process decides in round 1 — p1 and p2 on the proposal and their
     own ack, one message delay after it, p0 on the first ack.  Per
     instance the wire carries two proposals and four acks: no estimate
     and no decision. *)
  let h = mk ~algo:`Ct ~indirect:false () in
  let log = wire_log h in
  for k = 1 to 3 do
    let v = Proposal.on_ids [ mid 0 k ] in
    List.iter (fun p -> propose_at h ~at:(float_of_int k) p k v) [ 0; 1; 2 ]
  done;
  Engine.run h.engine;
  for k = 1 to 3 do
    check_uniform_agreement h k ~expect_deciders:3;
    Alcotest.(check (list string))
      (Printf.sprintf "instance %d on the wire" k)
      [ "prop1 0->1"; "prop1 0->2"; "ack1 1->0"; "ack1 1->2"; "ack1 2->0"; "ack1 2->1" ]
      (describe (frames ~k (log ())))
  done;
  checkb "every ack an ack" true (List.for_all (fun f -> f.ok) (frames ~kind:"ack" (log ())));
  List.iter
    (fun (p, at) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "p%d decides instance 1" p) at
        (trace_time h p (function Trace.Decide (1, _) -> true | _ -> false)))
    [ (0, 3.0); (1, 2.0); (2, 2.0) ];
  checki "decided in round 1, everywhere" 9 (ct_counter h "decisions.round1")

let test_ct_round2_proposal_to_estimators () =
  (* p1 and p2 falsely suspect p0 at t = 1.5, before its round-1
     proposal lands, and open round 2 with estimates stamped 0: not
     locked.  p1 (round 2's coordinator) holds its own and p2's
     estimates and proposes to p2 alone; p0, which gives round 1 up on
     the two nacks, gets the recorded proposal as the answer to its
     estimate. *)
  let h = mk ~algo:`Ct ~indirect:false ~manual:true () in
  let log = wire_log h in
  let v = Proposal.on_ids [ mid 0 0 ] in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  suspect_at h ~at:1.5 ~observer:1 0;
  suspect_at h ~at:1.5 ~observer:2 0;
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  Alcotest.(check (list string)) "round-2 estimates" [ "est2 2->1"; "est2 0->1" ]
    (describe (frames ~kind:"est" ~round:2 (log ())));
  Alcotest.(check (list string)) "round-2 proposals" [ "prop2 1->2"; "prop2 1->0" ]
    (describe (frames ~kind:"prop" ~round:2 (log ())));
  checki "decided on round 2's acks, everywhere" 3 (ct_counter h "decisions.round2")

let test_ct_decided_process_answers () =
  (* The acks of round 1 reach p0 only at t = 12, and p0 suspects p1 and
     p2 at t = 2.5.  It leaves round 1 and, both coordinators suspected,
     runs through rounds 2 and 3 at once: its estimates reach p1 and p2
     at t = 3.5.  Both decided at t = 2, and each answers the round
     message of an undecided process with one decision: p0 decides at
     t = 4.5 on the first.  It got that decision from a process it
     suspects, so it tells the one process it has not heard from. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.dst 0 && carries m ("ack", 1, true) then Model.Delay_by 10.0 else Model.Pass
  in
  let h = mk ~algo:`Ct ~indirect:false ~manual:true ~rule () in
  let log = wire_log h in
  let v = Proposal.on_ids [ mid 0 0 ] in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  suspect_at h ~at:2.5 ~observer:0 1;
  suspect_at h ~at:2.5 ~observer:0 2;
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  Alcotest.(check (list string)) "p0's estimates" [ "est2 0->1"; "est3 0->2" ]
    (describe (frames ~kind:"est" (log ())));
  Alcotest.(check (list string)) "the answers, then p0's telling"
    [ "decide0 1->0"; "decide0 2->0"; "decide0 0->2" ]
    (describe (frames ~kind:"decide" (log ())));
  Alcotest.(check (float 1e-9)) "p0 decides on the first answer" 4.5
    (trace_time h 0 (function Trace.Decide _ -> true | _ -> false));
  checki "two answers" 2 (ct_counter h "answers");
  checki "one telling" 1 (ct_counter h "tells")

let test_ct_duplicate_estimate_counted_once () =
  (* n = 5, p0 dead.  p1 and p2 suspect it at t = 2, and p2's round-2
     estimate reaches p1 twice: the second copy is sent again by hand.
     p1 holds two senders' estimates, short of the three it needs, and
     proposes only once p3 suspects p0 too (t = 10). *)
  let h = mk ~n:5 ~algo:`Ct ~indirect:false ~manual:true () in
  let log = wire_log h in
  let est_2_to_1 = ref None in
  Transport.interpose h.transport (fun next (m : Ics_net.Message.t) ->
      if Pid.equal m.src 2 && Pid.equal m.dst 1 && carries m ("est", 2, false) then
        est_2_to_1 := Some m.payload;
      next m);
  Engine.crash_at h.engine 0 ~at:0.5;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid p 1 ])) [ 1; 2; 3; 4 ];
  suspect_at h ~at:2.0 ~observer:1 0;
  suspect_at h ~at:2.0 ~observer:2 0;
  let layer = Transport.intern h.transport "consensus" in
  Engine.schedule h.engine ~at:4.0 (fun () ->
      Transport.send h.transport ~src:2 ~dst:1 ~layer ~body_bytes:32
        (Option.get !est_2_to_1));
  List.iter (fun observer -> suspect_at h ~at:10.0 ~observer 0) [ 3; 4 ];
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:4;
  Alcotest.(check (list string)) "p2's estimate, twice" [ "est2 2->1"; "est2 2->1" ]
    (describe (frames ~src:2 ~kind:"est" ~round:2 (log ())));
  checkb "no round-2 proposal before p3's estimate" true
    (List.for_all (fun f -> f.at > 10.0) (frames ~kind:"prop" ~round:2 (log ())))

let test_ct_late_estimate_answered () =
  (* Only p2 suspects p0 (t = 1.5, falsely), and p0's round-1 proposal
     reaches p1 late.  p2's flagged round-2 estimate pulls p1 into round
     2 (a catch-up), where p1 proposes to p2 alone; p2 lacks the payload
     and nacks.  p1 acked, and neither it nor p2 suspects p0: both wait
     for p0's reply to round 2.  p0 gives round 1 up on the two nacks,
     and its round-2 estimate reaches p1 at t = 4.5: p1 answers with the
     proposal it recorded, p0 acks it, and round 2 decides.  Without the
     answer p0 would wait for a proposal, and p1 and p2 for p0's reply,
     forever. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.dst 1 && carries m ("prop", 1, false) then Model.Delay_by 3.0 else Model.Pass
  in
  let h = mk ~algo:`Ct ~indirect:true ~manual:true ~rule () in
  let log = wire_log h in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  give h 1 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2 ];
  suspect_at h ~at:1.5 ~observer:2 0;
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  checki "p1 caught up" 1 (ct_counter h "catch_ups");
  Alcotest.(check (list string)) "round-2 proposals" [ "prop2 1->2"; "prop2 1->0" ]
    (describe (frames ~kind:"prop" ~round:2 (log ())));
  checki "one late estimate answered" 1 (ct_counter h "late_props");
  let p0_acks = frames ~src:0 ~kind:"ack" ~round:2 (log ()) in
  Alcotest.(check (list string)) "p0 acks round 2" [ "ack2 0->1"; "ack2 0->2" ] (describe p0_acks);
  checkb "with the payload" true (List.for_all (fun f -> f.ok) p0_acks);
  checki "decided in round 2, everywhere" 3 (ct_counter h "decisions.round2")

let test_ct_catch_up_on_peer_suspicion () =
  (* p0 is dead from the start; only p2's detector reports it (t = 2).
     p2 gives round 1 up in all three instances and sends p1 (round 2's
     coordinator) estimates with ts 0.  p1, still waiting for p0's
     proposal, follows into round 2 and decides every instance at t = 5,
     though its own detector never fires. *)
  let h = mk ~algo:`Ct ~indirect:true ~manual:true () in
  Engine.crash_at h.engine 0 ~at:0.5;
  for k = 1 to 3 do
    let id = mid 1 k in
    give h 1 id;
    give h 2 id;
    List.iter (fun p -> propose_at h ~at:1.0 p k (Proposal.on_ids [ id ])) [ 1; 2 ]
  done;
  suspect_at h ~at:2.0 ~observer:2 0;
  Engine.schedule h.engine ~at:5.5 (fun () ->
      for k = 1 to 3 do
        checkb (Printf.sprintf "p1 decided instance %d by t = 5.5" k) true
          (List.mem_assoc 1 (decisions_for h k))
      done);
  Engine.run ~until:100.0 h.engine;
  for k = 1 to 3 do
    check_uniform_agreement h k ~expect_deciders:2
  done;
  checki "one catch-up per instance" 3 (ct_counter h "catch_ups");
  checki "p1 and p2 decided every instance in round 2" 6 (ct_counter h "decisions.round2")

let test_ct_catch_up_never_skips_a_round () =
  (* n = 5 with p0 and p4 dead.  p3 suspects p0 (t = 2) and sends p1 its
     round-2 estimate; p1 catches up into round 2, holding 2 of the 3
     estimates it needs.  p3 then falsely suspects p1 (t = 3.5) and sends
     p2 its round-3 estimate with ts 0, while p2 still waits on p0 in
     round 1.  Were p2 to jump to round 3, it would never send p1 a
     round-2 estimate: p1 would collect in round 2 and p2 in round 3
     forever.  Stepping one round at a time, p2 waits for its own
     detector (t = 10), feeds p1 the third round-2 estimate, and the
     three live processes decide. *)
  let h = mk ~n:5 ~algo:`Ct ~indirect:false ~manual:true () in
  Engine.crash_at h.engine 0 ~at:0.5;
  Engine.crash_at h.engine 4 ~at:0.5;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ mid p 1 ])) [ 1; 2; 3 ];
  suspect_at h ~at:2.0 ~observer:3 0;
  suspect_at h ~at:3.5 ~observer:3 1;
  List.iter
    (fun observer ->
      List.iter (fun dead -> suspect_at h ~at:10.0 ~observer dead) [ 0; 4 ])
    [ 1; 2; 3 ];
  Engine.run ~until:200.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  checki "p1 caught up" 1 (ct_counter h "catch_ups")

let test_ct_no_catch_up_on_payload_nack () =
  (* p0's round-1 proposal reaches p1 3 ms late.  p2 lacks the payload
     and nacks round 1, but stays in it: p0's ack and the silent p1 still
     make a majority.  It sends no round-2 estimate, so p1 has nothing to
     follow: p1 keeps waiting, acks the late proposal, and round 1
     decides everywhere. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.dst 1 && carries m ("prop", 1, false) then Model.Delay_by 3.0 else Model.Pass
  in
  let h = mk ~algo:`Ct ~indirect:true ~manual:true ~rule () in
  let id = mid 0 0 in
  give h 0 id;
  give h 1 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 (Proposal.on_ids [ id ])) [ 0; 1; 2 ];
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  checki "no catch-up" 0 (ct_counter h "catch_ups");
  checki "no round-2 estimate" 0 (ct_counter h "sent.est.r2+");
  checki "decided in round 1, everywhere" 3 (ct_counter h "decisions.round1")

let test_ct_suspects_last () =
  (* p0 is dead; p1 then p2 suspect it at t = 2 with instances 1 and 2
     open.  p2 sends both round-2 estimates and its round-1 nacks to p1
     in one frame, before its frame of nacks to p0.  p1 proposes both
     instances to p2, and p2 acks both round-2 proposals in one step: the
     acks go to every other process, p0 first, but p0 is suspected and
     its frame leaves after p1's. *)
  let h = mk ~algo:`Ct ~indirect:false ~manual:true () in
  let log = wire_log h in
  Engine.crash_at h.engine 0 ~at:0.5;
  for k = 1 to 2 do
    List.iter (fun p -> propose_at h ~at:1.0 p k (Proposal.on_ids [ mid p k ])) [ 1; 2 ]
  done;
  suspect_at h ~at:2.0 ~observer:1 0;
  suspect_at h ~at:2.0 ~observer:2 0;
  Engine.run ~until:100.0 h.engine;
  List.iter (fun k -> check_uniform_agreement h k ~expect_deciders:2) [ 1; 2 ];
  let frame_count fs = List.length (List.sort_uniq Int.compare (List.map (fun f -> f.seq) fs)) in
  let p2_at_suspicion = List.filter (fun f -> f.at = 2.0) (frames ~src:2 (log ())) in
  Alcotest.(check (list string)) "p2 on suspecting p0"
    [ "est2 2->1"; "ack1 2->1"; "est2 2->1"; "ack1 2->1"; "ack1 2->0"; "ack1 2->0" ]
    (describe p2_at_suspicion);
  checki "p2's suspicion step: one frame per peer" 2 (frame_count p2_at_suspicion);
  let acks = frames ~src:2 ~kind:"ack" ~round:2 (log ()) in
  Alcotest.(check (list string)) "p2's round-2 acks"
    [ "ack2 2->1"; "ack2 2->1"; "ack2 2->0"; "ack2 2->0" ]
    (describe acks);
  checki "p2's acks: one frame per peer" 2 (frame_count acks)

let test_ct_suspected_quorum_member_told () =
  (* A batched storm schedule (n = 5) that left a process undecided
     before the suspicion rule.  Only p0, p1 and p4 hold the payload, so
     p2 and p3 nack round 1.  p4 acks and crashes (t = 2.5), and its ack
     to p1 is lost.  p0, p2 and p3 decide at t = 3 on the acks of p0, p1
     and p4; p1 holds two of the three acks it needs and waits for p4.
     Everyone suspects p4 at t = 10: p1 gives round 1 up and, as round
     2's coordinator, waits for estimates that decided processes never
     send.  The deciders' quorum has lost p4, so each tells every process
     it has not told, and p1 decides at t = 11. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.src 4 && Pid.equal m.dst 1 && carries m ("ack", 1, true) then Model.Drop
    else Model.Pass
  in
  let h = mk ~n:5 ~algo:`Ct ~indirect:true ~manual:true ~rule () in
  let log = wire_log h in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  List.iter (fun p -> give h p id) [ 0; 1; 4 ];
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2; 3; 4 ];
  Engine.crash_at h.engine 4 ~at:2.5;
  List.iter (fun observer -> suspect_at h ~at:10.0 ~observer 4) [ 0; 1; 2; 3 ];
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:4;
  List.iter
    (fun (p, at) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "p%d decides" p) at
        (trace_time h p (function Trace.Decide _ -> true | _ -> false)))
    [ (0, 3.0); (1, 11.0); (2, 3.0); (3, 3.0) ];
  checkb "every decision sent on the suspicion" true
    (List.for_all (fun f -> f.at = 10.0) (frames ~kind:"decide" (log ())));
  checki "each decider tells the four others" 12 (ct_counter h "tells");
  checki "no answer" 0 (ct_counter h "answers")

let test_ct_decides_from_acks_without_proposal () =
  (* n = 5: p0's round-1 proposal to p4 is lost as p0 crashes (t = 1.5).
     p1, p2 and p3 ack it to every other process, and p4 decides on their
     three acks at t = 3: the value it never got a proposal for, not its
     own estimate. *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.src 0 && Pid.equal m.dst 4 then Model.Drop else Model.Pass
  in
  let h = mk ~n:5 ~algo:`Ct ~indirect:false ~manual:true ~rule () in
  let v = Proposal.on_ids [ mid 0 0 ] in
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2; 3 ];
  propose_at h ~at:1.0 4 1 (Proposal.on_ids [ mid 4 0 ]);
  Engine.crash_at h.engine 0 ~at:1.5;
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:4;
  checkb "p4 decides p0's proposal" true (Proposal.equal (List.assoc 4 (decisions_for h 1)) v);
  Alcotest.(check (float 1e-9)) "p4 decides on the acks" 3.0
    (trace_time h 4 (function Trace.Decide _ -> true | _ -> false))

let test_ct_nacks_alone_end_round () =
  (* n = 5, no suspicion anywhere.  Only p0 holds the payload at first,
     so p1, p2 and p3 nack round 1, and p0's proposal to p4 is held up
     until t = 21.  At t = 3 p4 holds three nacks and no ack: with p0 and
     itself the only silent processes, a majority of acks is out of
     reach, and p4 nacks round 1 and leaves it without waiting for the
     proposal or a suspicion.  Everyone else leaves too, and round 2,
     under p1, decides once the payload has spread (t = 2.5). *)
  let rule (m : Ics_net.Message.t) =
    if Pid.equal m.src 0 && Pid.equal m.dst 4 && carries m ("prop", 1, false) then
      Model.Delay_by 20.0
    else Model.Pass
  in
  let h = mk ~n:5 ~algo:`Ct ~indirect:true ~manual:true ~rule () in
  let log = wire_log h in
  let id = mid 0 0 in
  let v = Proposal.on_ids [ id ] in
  give h 0 id;
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 0; 1; 2; 3; 4 ];
  Engine.schedule h.engine ~at:2.5 (fun () -> List.iter (fun p -> give h p id) [ 1; 2; 3; 4 ]);
  Engine.run ~until:100.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:5;
  let p4_nacks = List.filter (fun f -> not f.ok) (frames ~src:4 ~kind:"ack" ~round:1 (log ())) in
  checki "p4 nacks round 1 to every other process" 4 (List.length p4_nacks);
  checkb "on the nacks alone, at t = 3" true (List.for_all (fun f -> f.at = 3.0) p4_nacks);
  checki "no decision in round 1" 0 (ct_counter h "decisions.round1");
  checki "all five decide in round 2" 5 (ct_counter h "decisions.round2")

(* The deferred announce (batched runs).  A proposer that is not round
   1's coordinator waits [announce_ms]; if the coordinator's round-1
   proposal (CT's [Prop], MR's relay) has not reached it by then, it
   sends every other process the announce (CT's round-1 [Est], MR's
   [Nudge]), and a receiver that does not hold the instance joins on
   it.  Announces are logged from the wire as they leave. *)

let is_announce payload =
  let module Prim = Ics_codec.Prim in
  let w = Ics_codec.Bq.create 64 in
  Ics_codec.Codec.encode_payload w payload;
  let rd = Prim.reader (Ics_codec.Bq.contents w) in
  match Prim.r_u8 rd with
  | 0x20 (* ct.est *) ->
      let _k = Prim.r_u32 rd in
      Prim.r_u32 rd = 1
  | 0x2A (* mr.nudge *) -> true
  | _ -> false

let announce_log h =
  Ics_core.Codecs.ensure ();
  let log = ref [] in
  Transport.interpose h.transport (fun next (m : Ics_net.Message.t) ->
      if List.exists is_announce (payloads m) then
        log := Printf.sprintf "%g %d->%d" (Engine.now h.engine) m.src m.dst :: !log;
      next m);
  fun () -> List.rev !log

let test_announce_not_sent_to_prompt_coordinator algo () =
  (* p1 and p2 propose at t = 1, p0 at t = 1.5: its round-1 proposal
     reaches them at t = 2.5, before their announces fall due at t = 3,
     and the instance is still undecided then (indirect: MR waits for
     all three relays; in CT p1 and p2 lack the payload until t = 3.2, so
     they nack the proposal).  Nothing is announced. *)
  let h = mk ~announce:announce_ms ~algo ~indirect:true () in
  let announces = announce_log h in
  let id = mid 1 0 in
  let v = Proposal.on_ids [ id ] in
  (match algo with
  | `Ct ->
      give h 0 id;
      Engine.schedule h.engine ~at:3.2 (fun () -> List.iter (fun p -> give h p id) [ 1; 2 ])
  | `Mr -> List.iter (fun p -> give h p id) [ 0; 1; 2 ]);
  List.iter (fun p -> propose_at h ~at:1.0 p 1 v) [ 1; 2 ];
  propose_at h ~at:1.5 0 1 v;
  Engine.schedule h.engine ~at:3.0 (fun () ->
      checki "undecided when the announces fall due" 0 (List.length !(h.decisions)));
  Engine.run h.engine;
  check_uniform_agreement h 1 ~expect_deciders:3;
  Alcotest.(check (list string)) "no announce" [] (announces ());
  match algo with
  | `Ct -> checki "sent.est.r1" 0 (ct_counter h "sent.est.r1")
  | `Mr -> ()

let test_announce_join_seeds algo () =
  (* Only p1 proposes (t = 1), and p0, round 1's coordinator, has
     nothing fresh of its own: the harness's [join] value is always
     empty.  p1's announce leaves at t = 3 for both peers; p0 joins on
     it at t = 4, seeded with the announced ids (it holds their
     payloads), and everyone decides them, not the empty set. *)
  let h = mk ~announce:announce_ms ~algo ~indirect:true () in
  let announces = announce_log h in
  let id = mid 1 0 in
  let v = Proposal.on_ids [ id ] in
  List.iter (fun p -> give h p id) [ 0; 1; 2 ];
  propose_at h ~at:1.0 1 1 v;
  Engine.run h.engine;
  Alcotest.(check (list string)) "one announce to each peer" [ "3 1->0"; "3 1->2" ]
    (announces ());
  Alcotest.(check (float 1e-9)) "p0 joins when the announce lands" 4.0
    (trace_time h 0 (function Trace.Propose _ -> true | _ -> false));
  check_uniform_agreement h 1 ~expect_deciders:3;
  List.iter
    (fun (_, d) -> checkb "decided the announced ids" true (Proposal.equal d v))
    (decisions_for h 1)

let test_announce_survives_dead_coordinator algo () =
  (* p0, round 1's coordinator, is dead, and only p1 holds the instance.
     p1 and p2 suspect p0 at t = 2, so p1 has given round 1 up when its
     announce falls due (t = 3): it is still sent, since p0's proposal
     never came.  p2 joins on it (t = 4; in CT at t = 3 already, on p1's
     round-1 nack, seeded like an announce with the estimate the nack
     carries), gives round 1 up at once, and round 2 decides the
     announced ids, not p2's empty join value.  Were the announce sent to
     the coordinator alone, or only from round 1, MR's p2 would never
     hear of the instance. *)
  let h = mk ~announce:announce_ms ~algo ~indirect:false ~manual:true () in
  let v = Proposal.on_ids [ mid 1 0 ] in
  Engine.crash_at h.engine 0 ~at:0.5;
  propose_at h ~at:1.0 1 1 v;
  List.iter (fun observer -> suspect_at h ~at:2.0 ~observer 0) [ 1; 2 ];
  Engine.run ~until:200.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:2;
  List.iter
    (fun (_, d) -> checkb "decided the announced ids" true (Proposal.equal d v))
    (decisions_for h 1)

let test_announce_seeds_only_where_rcv_holds algo () =
  (* Only p1 proposes and only p1 holds the payload; it crashes (t = 3.5)
     once its announce is out.  The other processes join on the announce
     but lack the payload, so they keep their own (empty) join value: an
     estimate whose payload no live process holds could never be acked,
     and the instance would never decide.  MR runs at n = 4, the least
     its indirect variant survives a crash at. *)
  let n = match algo with `Ct -> 3 | `Mr -> 4 in
  let h = mk ~n ~fd_delay:5.0 ~announce:announce_ms ~algo ~indirect:true () in
  let id = mid 1 0 in
  give h 1 id;
  propose_at h ~at:1.0 1 1 (Proposal.on_ids [ id ]);
  Engine.crash_at h.engine 1 ~at:3.5;
  Engine.run ~until:500.0 h.engine;
  check_uniform_agreement h 1 ~expect_deciders:(n - 1);
  List.iter
    (fun (_, d) -> checkb "decided the empty set" true (Proposal.is_empty d))
    (decisions_for h 1)

(* The outbox, on a stack with no rounds: [Seq_no i] payloads sent by
   hand inside explicit steps, every frame logged as it leaves for the
   wire, every payload as its handler runs. *)
type Ics_net.Message.payload += Seq_no of int

type outbox_rig = {
  o_engine : Engine.t;
  o_transport : Transport.t;
  o_ctl : Fd.Control.t;
  o_t : unit Instances.t;
  o_handle : Intf.handle;
  o_wire : (Pid.t * Pid.t * int list) list ref;  (* src, dst, payload numbers *)
  o_handled : (Pid.t * Pid.t * int) list ref;  (* receiver, src, number *)
}

let numbers payloads =
  List.map (function Seq_no i -> i | _ -> Alcotest.fail "not a Seq_no") payloads

let outbox_rig () =
  let engine = Engine.create ~seed:1L ~n:3 () in
  let model = Model.constant ~jitter:0.0 ~delay:1.0 ~n:3 ~seed:1L () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let ctl = Fd.manual engine in
  let fd = Fd.Control.fd ctl in
  let callbacks = { Intf.on_decide = (fun _ _ _ -> ()); join = (fun _ _ -> Proposal.empty) } in
  let t =
    Instances.create transport fd { Instances.rcv = None } callbacks ~fresh:ignore
      ~settle:ignore ~decide:(fun k _ -> Seq_no k)
  in
  let wire = ref [] and handled = ref [] in
  Transport.interpose transport (fun next (m : Ics_net.Message.t) ->
      wire := (m.src, m.dst, numbers (payloads m)) :: !wire;
      next m);
  let handle =
    Instances.handle t ~name:"outbox"
      ~on_message:(fun p ~src payload ->
        handled := (p, src, List.hd (numbers [ payload ])) :: !handled)
      ~on_suspect:(fun _ _ -> ())
      ~start:(fun _ _ -> ())
      ~announce:None
      ~counters:(fun () -> [])
  in
  {
    o_engine = engine;
    o_transport = transport;
    o_ctl = ctl;
    o_t = t;
    o_handle = handle;
    o_wire = wire;
    o_handled = handled;
  }

let send_seq r ~src ~dst i = Instances.send r.o_t ~src ~dst ~body_bytes:9 (Seq_no i)

let wire_frames r = List.rev !(r.o_wire)

let consensus_msgs r =
  let stats = Transport.per_layer_stats r.o_transport in
  match List.find_opt (fun (l, _, _) -> l = "consensus") stats with
  | Some (_, msgs, _) -> msgs
  | None -> 0

let frames_t = Alcotest.(list (triple int int (list int)))

let test_outbox_one_frame_per_peer () =
  (* Two sends from p0 to p1 in one step: one frame, one transport
     message and one [frames] count, handled at p1 in send order. *)
  let r = outbox_rig () in
  Engine.schedule r.o_engine ~at:1.0 (fun () ->
      Instances.step r.o_t 0 (fun () ->
          send_seq r ~src:0 ~dst:1 1;
          send_seq r ~src:0 ~dst:1 2));
  Engine.run r.o_engine;
  Alcotest.check frames_t "one frame" [ (0, 1, [ 1; 2 ]) ] (wire_frames r);
  Alcotest.(check (list (triple int int int)))
    "handled in send order" [ (1, 0, 1); (1, 0, 2) ] (List.rev !(r.o_handled));
  checki "one transport message" 1 (consensus_msgs r);
  checki "frames counter" 1 (List.assoc "frames" (r.o_handle.Intf.counters ()))

let test_outbox_suspects_last () =
  (* p0 suspects p1.  Its step queues for p1 first, then p2, then p1
     again: p2's frame leaves first, p1's two payloads after it in one
     frame. *)
  let r = outbox_rig () in
  Fd.Control.suspect r.o_ctl ~observer:0 1;
  Engine.schedule r.o_engine ~at:1.0 (fun () ->
      Instances.step r.o_t 0 (fun () ->
          send_seq r ~src:0 ~dst:1 1;
          send_seq r ~src:0 ~dst:2 2;
          send_seq r ~src:0 ~dst:1 3));
  Engine.run r.o_engine;
  Alcotest.check frames_t "trusted first" [ (0, 2, [ 2 ]); (0, 1, [ 1; 3 ]) ] (wire_frames r)

let test_outbox_nested_step_flushes_once () =
  (* A step nested in another queues into the same outbox: nothing
     leaves when the inner step returns, and the outer one sends one
     frame per destination, in first-queued order. *)
  let r = outbox_rig () in
  Engine.schedule r.o_engine ~at:1.0 (fun () ->
      Instances.step r.o_t 0 (fun () ->
          send_seq r ~src:0 ~dst:2 1;
          Instances.step r.o_t 0 (fun () ->
              send_seq r ~src:0 ~dst:1 2;
              send_seq r ~src:0 ~dst:2 3);
          checki "nothing left after the inner step" 0 (List.length !(r.o_wire));
          send_seq r ~src:0 ~dst:1 4));
  Engine.run r.o_engine;
  Alcotest.check frames_t "one flush" [ (0, 2, [ 1; 3 ]); (0, 1, [ 2; 4 ]) ] (wire_frames r);
  checki "two transport messages" 2 (consensus_msgs r)

let both name f = [
  Alcotest.test_case ("ct: " ^ name) `Quick (f `Ct);
  Alcotest.test_case ("mr: " ^ name) `Quick (f `Mr);
  Alcotest.test_case ("lb: " ^ name) `Quick (f `Lb);
]

let suites =
  [
    ( "quorum",
      [
        Alcotest.test_case "known values" `Quick test_quorum_values;
        QCheck_alcotest.to_alcotest qcheck_majority_is_majority;
        QCheck_alcotest.to_alcotest qcheck_two_majorities_intersect;
        QCheck_alcotest.to_alcotest qcheck_two_thirds_overlap;
        QCheck_alcotest.to_alcotest qcheck_quorum_feasible;
      ] );
    ( "proposal",
      [
        Alcotest.test_case "normalization" `Quick test_proposal_normalization;
        Alcotest.test_case "wire sizes" `Quick test_proposal_sizes;
        Alcotest.test_case "empty" `Quick test_proposal_empty;
      ] );
    ( "consensus-common",
      List.concat
        [
          both "simple decision" test_simple_decision;
          both "divergent proposals" test_divergent_proposals;
          both "multiple instances" test_multiple_instances;
          both "join on message" test_join_on_message;
          both "coordinator crash" test_coordinator_crash;
          both "late crasher" test_decide_reaches_late_crasher;
          both "indirect waits for payload" test_indirect_waits_for_payload;
          both "indirect empty proposal" test_indirect_empty_proposal_trivial;
          both "determinism" test_determinism;
          both "undecided count" test_undecided_count;
          [
            Alcotest.test_case "ct: announce join seeds an empty join" `Quick
              (test_announce_join_seeds `Ct);
            Alcotest.test_case "mr: announce join seeds an empty join" `Quick
              (test_announce_join_seeds `Mr);
          ];
          List.concat_map
            (fun (name, f) ->
              [
                Alcotest.test_case ("ct: " ^ name) `Quick (f `Ct);
                Alcotest.test_case ("mr: " ^ name) `Quick (f `Mr);
              ])
            [
              ("no announce to a prompt coordinator", test_announce_not_sent_to_prompt_coordinator);
              ("announce survives a dead coordinator", test_announce_survives_dead_coordinator);
              ("announce seeds only where rcv holds", test_announce_seeds_only_where_rcv_holds);
            ];
        ] );
    ( "ct",
      [
        Alcotest.test_case "indirect keeps f<n/2" `Quick test_ct_indirect_tolerates_minority_crash;
        Alcotest.test_case "blocks without majority" `Quick test_ct_no_decision_without_majority;
        Alcotest.test_case "nack then majority decides round 1" `Quick
          test_ct_nack_then_majority_decides_round1;
        Alcotest.test_case "two nacks end the round" `Quick test_ct_two_nacks_end_round;
        Alcotest.test_case "suspected silent replier ends the round" `Quick
          test_ct_suspected_silent_replier_ends_round;
        Alcotest.test_case "remote sends by kind" `Quick test_ct_send_counters;
        Alcotest.test_case "fault-free: props and acks" `Quick test_ct_fault_free_round;
        Alcotest.test_case "round-2 proposal goes to its estimators" `Quick
          test_ct_round2_proposal_to_estimators;
        Alcotest.test_case "decided process answers" `Quick test_ct_decided_process_answers;
        Alcotest.test_case "suspected quorum member told" `Quick
          test_ct_suspected_quorum_member_told;
        Alcotest.test_case "duplicate estimate counted once" `Quick
          test_ct_duplicate_estimate_counted_once;
        Alcotest.test_case "late estimate answered with the recorded proposal" `Quick
          test_ct_late_estimate_answered;
        Alcotest.test_case "catch-up on a peer's suspicion" `Quick
          test_ct_catch_up_on_peer_suspicion;
        Alcotest.test_case "catch-up never skips a round" `Quick
          test_ct_catch_up_never_skips_a_round;
        Alcotest.test_case "no catch-up on a payload nack" `Quick
          test_ct_no_catch_up_on_payload_nack;
        Alcotest.test_case "suspects last" `Quick test_ct_suspects_last;
        Alcotest.test_case "decides from the acks alone" `Quick
          test_ct_decides_from_acks_without_proposal;
        Alcotest.test_case "nacks alone end a round" `Quick test_ct_nacks_alone_end_round;
        Alcotest.test_case "false-suspicion sweep, n=3..5" `Quick test_ct_false_suspicion_sweep;
      ] );
    ( "outbox",
      [
        Alcotest.test_case "one frame per peer per step" `Quick test_outbox_one_frame_per_peer;
        Alcotest.test_case "suspected peers last" `Quick test_outbox_suspects_last;
        Alcotest.test_case "nested step flushes once" `Quick test_outbox_nested_step_flushes_once;
      ] );
    ( "mr",
      [
        Alcotest.test_case "indirect blocks at f=1, n=3" `Quick test_mr_indirect_blocks_at_f1_n3;
        Alcotest.test_case "original survives f=1, n=3" `Quick test_mr_original_survives_f1_n3;
        Alcotest.test_case "indirect tolerates f=1, n=4" `Quick test_mr_indirect_tolerates_f1_n4;
        Alcotest.test_case "two-step decision" `Quick test_mr_two_step_decision;
      ] );
  ]
