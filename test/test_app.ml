(* Tests for the application layer (lib/app), its hosting glue
   (App_host), the closed-loop service workload, the chaos app-on-top
   axis, and the PR's satellite guarantees (profile flag round-trips,
   Bq capacity decay, empty-sample latency digests, stable trace
   merge). *)

module Cmd = Ics_app.Cmd
module Machine = Ics_app.Machine
module Profile = Ics_core.Profile
module Checker = Ics_checker.Checker
module Cluster = Ics_runtime.Cluster
module Trace_io = Ics_runtime.Trace_io
module Bq = Ics_runtime.Socket_transport.Bq
module Trace = Ics_sim.Trace
module Service = Ics_workload.Service
module Chaos = Ics_workload.Chaos
module Stats = Ics_prelude.Stats

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Command derivation.                                                *)
(* ------------------------------------------------------------------ *)

let test_cmd_pack_roundtrip () =
  List.iter
    (fun (client, req) ->
      match Cmd.unpack (Cmd.pack ~client ~req) with
      | Some (c, r) ->
          checki "client" client c;
          checki "req" req r
      | None -> Alcotest.fail "packed blob unpacked to None")
    [ (0, 0); (1, 0); (0, 1); (41_999, 7); (0xFFFF, 0xFFFFF) ];
  checkb "zero blob is the non-app marker" true (Cmd.unpack 0L = None);
  checkb "client 0 req 0 packs non-zero" true (Cmd.pack ~client:0 ~req:0 <> 0L)

let test_cmd_derivation_deterministic () =
  let seed = 42L in
  for client = 0 to 5 do
    for req = 0 to 9 do
      let a = Cmd.kind_of seed ~nclients:6 ~client ~req in
      let b = Cmd.kind_of seed ~nclients:6 ~client ~req in
      checkb "kind stable" true (a = b);
      checki "value stable"
        (Cmd.val_of seed ~client ~req)
        (Cmd.val_of seed ~client ~req);
      if req = 0 then checkb "req 0 is Create" true (a = Cmd.Create)
    done
  done

(* ------------------------------------------------------------------ *)
(* State machine: exactly-once, probes, conservation, hashing.        *)
(* ------------------------------------------------------------------ *)

let machine ?(nclients = 8) ?(seed = 42L) () =
  let violations = ref [] in
  let m =
    Machine.create ~emit:(fun s -> violations := s :: !violations) ~nclients
      ~seed ()
  in
  (m, violations)

let test_machine_dedup_and_order () =
  let m, violations = machine () in
  checkb "first apply" true (Machine.apply m ~client:0 ~req:0 = Machine.Applied);
  checkb "retry is a duplicate" true
    (Machine.apply m ~client:0 ~req:0 = Machine.Duplicate);
  checki "cursor counts distinct commands" 1 (Machine.cursor m);
  checki "duplicate counted" 1 (Machine.duplicates m);
  checkb "no violation from a dup" true (!violations = []);
  (* A same-client gap (req 2 before req 1) means the broadcast lost an
     ordered command: rejected, and the probe fires. *)
  checkb "gap rejected" true
    (Machine.apply m ~client:0 ~req:2 = Machine.Rejected);
  checkb "gap emits a violation" true (!violations <> []);
  checki "rejected does not advance the cursor" 1 (Machine.cursor m)

let test_machine_deterministic_hash () =
  let stream =
    List.concat_map
      (fun req -> List.init 8 (fun client -> (client, req)))
      [ 0; 1; 2; 3 ]
  in
  let a, _ = machine () in
  let b, _ = machine () in
  List.iter
    (fun (client, req) ->
      ignore (Machine.apply a ~client ~req);
      ignore (Machine.apply b ~client ~req))
    stream;
  checkb "same stream, same hash" true
    (Int64.equal (Machine.hash a) (Machine.hash b));
  checki "no violations" 0 (Machine.violations a);
  (* A different interleaving of *different clients'* commands commutes:
     the final state hash is the same. *)
  let c, _ = machine () in
  List.iter
    (fun (client, req) -> ignore (Machine.apply c ~client ~req))
    (List.concat_map (fun client -> List.init 4 (fun req -> (client, req)))
       (List.init 8 (fun i -> 7 - i)));
  checkb "cross-client reorder commutes" true
    (Int64.equal (Machine.hash a) (Machine.hash c))

let test_machine_conservation () =
  let m, violations = machine ~nclients:4 () in
  for req = 0 to 7 do
    for client = 0 to 3 do
      ignore (Machine.apply m ~client ~req)
    done
  done;
  (* hash () recomputes the balance sum and fires the conservation probe
     on any disagreement with the incremental sum. *)
  ignore (Machine.hash m);
  checkb "no probe fired" true (!violations = []);
  let total =
    List.fold_left
      (fun acc client -> acc + Machine.balance m ~client)
      0 [ 0; 1; 2; 3 ]
  in
  checki "funds conserved" (4 * Machine.grant) total

(* ------------------------------------------------------------------ *)
(* Closed-loop service on the simulator.                              *)
(* ------------------------------------------------------------------ *)

let test_sim_service_point () =
  let p = Service.sim_point ~seed:3L ~n:3 ~clients:24 ~requests:3 () in
  checkb "checker green (abcast + app battery)" true p.Service.checker_ok;
  checkb "all sessions completed, all replicas caught up" true p.Service.clean;
  checki "workload size" 72 p.Service.commands;
  (match p.Service.hash with
  | Some (cursor, _) -> checki "final cursor covers the workload" 72 cursor
  | None -> Alcotest.fail "no state hash recorded");
  checki "one client-visible sample per command" 72
    p.Service.latency.Stats.count;
  checkb "median latency positive" true (p.Service.latency.Stats.p50 > 0.0)

let test_sim_service_hash_stable () =
  let p1 = Service.sim_point ~seed:9L ~n:3 ~clients:12 ~requests:4 () in
  let p2 = Service.sim_point ~seed:9L ~n:3 ~clients:12 ~requests:4 () in
  checkb "same seed, same final hash" true (Service.hash_match p1 p2);
  let p3 = Service.sim_point ~seed:9L ~n:5 ~clients:12 ~requests:4 () in
  checkb "different n still converges to the same state" true
    (match (p1.Service.hash, p3.Service.hash) with
    | Some (_, h1), Some (_, h3) -> Int64.equal h1 h3
    | _ -> false)

(* The make service-smoke cell (n=3, batch=8/pipeline=4/flush=1 ms),
   pinned: a run-twice check cannot see a change that moves both runs
   alike.  Its digest was re-captured when the batched announce was
   deferred and sent to every process, and when CT began deciding on
   acks at every process; the final state hash held both times. *)
let smoke_batching = { Ics_core.Abcast.batch = 8; pipeline = 4; flush_ms = 1.0 }

let test_service_fingerprint_pinned () =
  checks "service-smoke cell" "a86d8c82c6dd6b526fdba65b9cf3ce59"
    (Service.sim_fingerprint ~seed:1L ~batching:smoke_batching ~n:3 ())

let test_service_point_pinned () =
  let p =
    Service.sim_point ~seed:1L ~batching:smoke_batching ~n:3 ~clients:200
      ~requests:3 ()
  in
  checkb "service-smoke point is green" true
    (p.Service.checker_ok && p.Service.clean);
  match p.Service.hash with
  | Some (cursor, hash) ->
      checki "final cursor" 600 cursor;
      checks "final state hash" "4b8207eb83da140c" (Printf.sprintf "%Lx" hash)
  | None -> Alcotest.fail "no state hash recorded"

let test_sim_service_replay () =
  match
    Ics_workload.Run.replay (fun () ->
        Service.sim_fingerprint ~n:3 ~clients:12 ~requests:3 ())
  with
  | Ok _ -> ()
  | Error (a, b) ->
      Alcotest.failf "service sim replay diverged: %s then %s" a b

(* ------------------------------------------------------------------ *)
(* Chaos app-on-top axis.                                             *)
(* ------------------------------------------------------------------ *)

let has_property v property =
  List.exists
    (fun (x : Checker.violation) -> x.Checker.property = property)
    v.Checker.violations

let test_chaos_app_indirect_blackout_green () =
  let r =
    Chaos.run_one ~app:true Chaos.Ct_indirect Chaos.Blackout ~seed:1L
  in
  checkb "indirect stack stays green with the app hosted" true
    (Chaos.passed r);
  checkb "app battery actually ran" true
    (List.mem "app.hash-agreement" r.Chaos.verdict.Checker.checked)

let test_chaos_app_on_ids_blackout_semantic () =
  let r = Chaos.run_one ~app:true Chaos.Ct_on_ids Chaos.Blackout ~seed:1L in
  checkb "on-ids blackout fails" true (not (Chaos.passed r));
  (* The point of the app axis: the cell fails *semantically* — ordered
     commands from correct clients never took effect — not only via the
     message-level battery. *)
  checkb "fails via app.progress (state divergence)" true
    (has_property r.Chaos.verdict "app.progress")

(* The app battery's violation list, pinned on the on-ids blackout cell
   (many app.progress findings) and on a clean cell: a faster
   [Checker.check_app] must report the same violations in the same order.
   Both cells run unbatched, so their schedules are the seed's. *)
let app_violations r =
  List.filter
    (fun (v : Checker.violation) -> String.starts_with ~prefix:"app." v.Checker.property)
    r.Chaos.verdict.Checker.violations

let test_chaos_app_violations_pinned () =
  List.iter
    (fun (stack, count, digest) ->
      let vs = app_violations (Chaos.run_one ~app:true stack Chaos.Blackout ~seed:1L) in
      let rendered = Format.asprintf "%a" (Format.pp_print_list Checker.pp_violation) vs in
      checki (Chaos.stack_name stack ^ " app violations") count (List.length vs);
      checks (Chaos.stack_name stack ^ " app violation digest") digest
        (Digest.to_hex (Digest.string rendered)))
    [
      (Chaos.Ct_on_ids, 12, "abce40fe835a59cd7d0984d78152faa9");
      (Chaos.Ct_indirect, 0, "d41d8cd98f00b204e9800998ecf8427e");
    ]

let test_chaos_app_sweep_cells () =
  List.iter
    (fun plan ->
      let r = Chaos.run_one ~app:true Chaos.Ct_indirect plan ~seed:2L in
      checkb
        (Printf.sprintf "ct-indirect x %s app cell green" (Chaos.plan_name plan))
        true (Chaos.passed r))
    [ Chaos.Drop; Chaos.Dup; Chaos.Reorder; Chaos.Partition; Chaos.Mixed ]

let test_chaos_app_replay () =
  let mismatches =
    Chaos.replay_check ~app:true ~stacks:[ Chaos.Ct_indirect ]
      ~plans:[ Chaos.Blackout; Chaos.Reorder ] ()
  in
  checki "app cells replay bit-identically" 0 (List.length mismatches)

(* ------------------------------------------------------------------ *)
(* Satellite: profile flag round-trips, table-driven.                 *)
(* ------------------------------------------------------------------ *)

(* Every spec carries its own canonical sample values, so a new flag is
   covered here the day it is added — nothing to remember. *)
let test_profile_spec_samples_roundtrip () =
  List.iter
    (fun (s : Profile.spec) ->
      let flag = List.hd s.Profile.keys in
      List.iter
        (fun sample ->
          match s.Profile.set Profile.default sample with
          | Error e -> Alcotest.failf "--%s rejects its own sample: %s" flag e
          | Ok p ->
              checks
                (Printf.sprintf "--%s %s get-after-set" flag sample)
                sample (s.Profile.get p))
        s.Profile.samples)
    Profile.specs

let test_profile_of_to_args_roundtrip () =
  (* Drive every flag off its canonical samples, then round-trip the
     whole profile through the argv encoding. *)
  let mutated =
    List.fold_left
      (fun p (s : Profile.spec) ->
        match s.Profile.samples with
        | sample :: _ -> (
            match s.Profile.set p sample with Ok p -> p | Error _ -> p)
        | [] -> p)
      Profile.default Profile.specs
  in
  List.iter
    (fun p ->
      match Profile.of_args (Profile.to_args p) with
      | Error e -> Alcotest.failf "of_args (to_args p) failed: %s" e
      | Ok q ->
          checkb "argv round-trip is the identity" true (p = q);
          checkb "re-encoding is stable" true
            (Profile.to_args p = Profile.to_args q))
    [ Profile.default; mutated ]

(* ------------------------------------------------------------------ *)
(* Satellite: Bq shrinks back after a burst.                          *)
(* ------------------------------------------------------------------ *)

let test_bq_shrinks_after_burst () =
  let q = Bq.create 1024 in
  let burst = Buffer.create (4 * Bq.rest_cap) in
  Buffer.add_string burst (String.make (4 * Bq.rest_cap) 'x');
  Bq.add_buffer q burst;
  checkb "burst grew the backing store" true (Bq.capacity q > Bq.rest_cap);
  Bq.consume q (Bq.length q / 2);
  checkb "partially drained queue keeps its buffer" true
    (Bq.capacity q > Bq.rest_cap);
  Bq.consume q (Bq.length q);
  checki "fully drained queue decays to its resting capacity" Bq.rest_cap
    (Bq.capacity q);
  checki "drained" 0 (Bq.length q);
  Bq.add_buffer q burst;
  Bq.clear q;
  checki "clear decays too" Bq.rest_cap (Bq.capacity q)

(* ------------------------------------------------------------------ *)
(* Satellite: latency digests guard against empty samples.            *)
(* ------------------------------------------------------------------ *)

let test_measure_empty_samples () =
  let duration, lat, app_lat, thr = Cluster.measure [] in
  checkb "no duration" true (duration = 0.0);
  checkb "no message latency summary" true (lat = None);
  checkb "no app latency summary" true (app_lat = None);
  checkb "no throughput" true (thr = 0.0);
  (* Submits without a matching home-pid apply must not fabricate
     samples either. *)
  let events =
    [
      { Trace.time = 1.0; pid = 0; kind = Trace.App_submit (0, 0) };
      { Trace.time = 2.0; pid = 1; kind = Trace.App_applied (0, 0) };
    ]
  in
  let _, lat, app_lat, _ = Cluster.measure events in
  checkb "still no message latency" true (lat = None);
  checkb "foreign-pid apply is not client-visible" true (app_lat = None)

(* ------------------------------------------------------------------ *)
(* Satellite: the registry-driven codec fuzz covers the app tag.      *)
(* ------------------------------------------------------------------ *)

let test_codec_registry_covers_app () =
  Ics_core.Codecs.ensure ();
  let entries = Ics_codec.Codec.entries () in
  match
    List.find_opt
      (fun (e : Ics_codec.Codec.entry) -> e.Ics_codec.Codec.name = "app.submit")
      entries
  with
  | None ->
      Alcotest.fail
        "app.submit missing from the codec registry — the fuzz corpus would \
         skip it"
  | Some e -> checki "app.submit wire tag" 0x58 e.Ics_codec.Codec.tag

(* ------------------------------------------------------------------ *)
(* Satellite: trace merge is stable on timestamp ties.                *)
(* ------------------------------------------------------------------ *)

let test_trace_merge_stable_on_ties () =
  let ev time pid kind = { Trace.time; pid; kind } in
  (* Three nodes, all events at the same instant: the merge must order
     ties by pid and keep each node's own order within the tie. *)
  let node0 =
    [ ev 5.0 0 (Trace.App_submit (0, 0)); ev 5.0 0 (Trace.App_applied (0, 0)) ]
  in
  let node1 = [ ev 5.0 1 (Trace.App_applied (0, 0)) ] in
  let node2 = [ ev 5.0 2 (Trace.App_hash (1, 7L)) ] in
  (* Deliberately merge in a scrambled order: the result must not depend
     on the order the per-node files were read. *)
  let a = Trace_io.merge [ node0; node1; node2 ] in
  let b = Trace_io.merge [ node2; node0; node1 ] in
  let render t = Format.asprintf "%a" Trace.pp t in
  checks "merge independent of input file order" (render a) (render b);
  let pids = List.map (fun e -> e.Trace.pid) (Trace.events a) in
  checkb "ties ordered by pid" true (pids = [ 0; 0; 1; 2 ]);
  (* Pin the rendering: if the merge or the App_* serialization changes
     shape, this fingerprint moves and the change must be deliberate. *)
  checks "merged trace fingerprint pinned"
    "80a1ca273ab3dace2b4010f47581937c"
    (Trace.fingerprint a)

let suites =
  [
    ( "app machine",
      [
        Alcotest.test_case "cmd pack/unpack round-trip" `Quick
          test_cmd_pack_roundtrip;
        Alcotest.test_case "cmd derivation deterministic" `Quick
          test_cmd_derivation_deterministic;
        Alcotest.test_case "dedup and gap probes" `Quick
          test_machine_dedup_and_order;
        Alcotest.test_case "deterministic, commuting state hash" `Quick
          test_machine_deterministic_hash;
        Alcotest.test_case "conservation of funds" `Quick
          test_machine_conservation;
      ] );
    ( "app service",
      [
        Alcotest.test_case "sim closed-loop point is green" `Quick
          test_sim_service_point;
        Alcotest.test_case "final hash stable across runs and n" `Quick
          test_sim_service_hash_stable;
        Alcotest.test_case "sim replay bit-identical" `Quick
          test_sim_service_replay;
        Alcotest.test_case "service-smoke fingerprint pinned" `Quick
          test_service_fingerprint_pinned;
        Alcotest.test_case "service-smoke point pinned" `Quick
          test_service_point_pinned;
      ] );
    ( "app chaos",
      [
        Alcotest.test_case "indirect blackout green with app" `Quick
          test_chaos_app_indirect_blackout_green;
        Alcotest.test_case "on-ids blackout fails semantically" `Quick
          test_chaos_app_on_ids_blackout_semantic;
        Alcotest.test_case "app violations pinned" `Quick
          test_chaos_app_violations_pinned;
        Alcotest.test_case "indirect app cells green across plans" `Quick
          test_chaos_app_sweep_cells;
        Alcotest.test_case "app cells replay bit-identically" `Quick
          test_chaos_app_replay;
      ] );
    ( "pr8 satellites",
      [
        Alcotest.test_case "profile spec samples round-trip" `Quick
          test_profile_spec_samples_roundtrip;
        Alcotest.test_case "profile argv round-trip" `Quick
          test_profile_of_to_args_roundtrip;
        Alcotest.test_case "bq shrinks after burst" `Quick
          test_bq_shrinks_after_burst;
        Alcotest.test_case "measure guards empty samples" `Quick
          test_measure_empty_samples;
        Alcotest.test_case "codec registry covers app.submit" `Quick
          test_codec_registry_covers_app;
        Alcotest.test_case "trace merge stable on ties" `Quick
          test_trace_merge_stable_on_ties;
      ] );
  ]
