(* Tests for the simulation substrate: event queue, engine, resources,
   time, pids and traces. *)

module Event_queue = Ics_sim.Event_queue
module Engine = Ics_sim.Engine
module Resource = Ics_sim.Resource
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* Event queue *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  let out = ref [] in
  List.iter
    (fun t -> Event_queue.push q ~time:t (fun () -> out := t :: !out))
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, run) ->
        run ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !out)

let test_queue_tie_insertion_order () =
  let q = Event_queue.create () in
  let out = ref [] in
  for i = 1 to 20 do
    Event_queue.push q ~time:7.0 (fun () -> out := i :: !out)
  done;
  while Event_queue.pop q <> None do
    ()
  done;
  (* pops return closures; re-run to execute *)
  let q2 = Event_queue.create () in
  let out2 = ref [] in
  for i = 1 to 20 do
    Event_queue.push q2 ~time:7.0 (fun () -> out2 := i :: !out2)
  done;
  let rec drain () =
    match Event_queue.pop q2 with
    | Some (_, run) ->
        run ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties" (List.init 20 (fun i -> i + 1))
    (List.rev !out2);
  ignore !out

let test_queue_growth () =
  let q = Event_queue.create () in
  for i = 0 to 9_999 do
    Event_queue.push q ~time:(float_of_int (i mod 97)) (fun () -> ())
  done;
  checki "size" 10_000 (Event_queue.size q);
  let last = ref (-1.0) in
  let rec drain count =
    match Event_queue.pop q with
    | Some (t, _) ->
        checkb "monotone" true (t >= !last);
        last := t;
        drain (count + 1)
    | None -> count
  in
  checki "popped all" 10_000 (drain 0)

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1.0 (fun () -> ());
  Event_queue.clear q;
  checkb "empty" true (Event_queue.is_empty q)

let test_queue_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_queue.push: NaN time") (fun () ->
      Event_queue.push q ~time:Float.nan (fun () -> ()))

let qcheck_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t (fun () -> ())) times;
      let rec drain last =
        match Event_queue.pop q with
        | Some (t, _) -> t >= last && drain t
        | None -> true
      in
      drain Float.neg_infinity)

(* Engine *)

let test_engine_run_order () =
  let e = Engine.create ~n:1 () in
  let out = ref [] in
  Engine.schedule e ~at:3.0 (fun () -> out := "c" :: !out);
  Engine.schedule e ~at:1.0 (fun () -> out := "a" :: !out);
  Engine.schedule e ~at:2.0 (fun () -> out := "b" :: !out);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !out);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create ~n:1 () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun () -> incr fired);
  Engine.schedule e ~at:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 e;
  checki "only first" 1 !fired;
  checkf "clock advanced to horizon" 5.0 (Engine.now e);
  checki "one pending" 1 (Engine.pending e);
  Engine.run e;
  checki "second fired" 2 !fired

let test_engine_max_events () =
  let e = Engine.create ~n:1 () in
  for i = 1 to 10 do
    Engine.schedule e ~at:(float_of_int i) (fun () -> ())
  done;
  Engine.run ~max_events:4 e;
  checki "six left" 6 (Engine.pending e)

let test_engine_after_nested () =
  let e = Engine.create ~n:1 () in
  let times = ref [] in
  Engine.schedule e ~at:1.0 (fun () ->
      Engine.after e ~delay:2.0 (fun () -> times := Engine.now e :: !times));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "relative scheduling" [ 3.0 ] !times

let test_engine_negative_delay () =
  let e = Engine.create ~n:1 () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.after: negative delay")
    (fun () -> Engine.after e ~delay:(-1.0) (fun () -> ()))

let test_engine_past_clamped () =
  let e = Engine.create ~n:1 () in
  let at = ref None in
  Engine.schedule e ~at:5.0 (fun () ->
      Engine.schedule e ~at:1.0 (fun () -> at := Some (Engine.now e)));
  Engine.run e;
  Alcotest.(check (option (float 1e-9))) "clamped to now" (Some 5.0) !at

let test_engine_stop () =
  let e = Engine.create ~n:1 () in
  let fired = ref 0 in
  Engine.schedule e ~at:1.0 (fun () ->
      incr fired;
      Engine.stop e);
  Engine.schedule e ~at:2.0 (fun () -> incr fired);
  Engine.run e;
  checki "stopped early" 1 !fired;
  checki "event preserved" 1 (Engine.pending e)

let test_engine_step () =
  let e = Engine.create ~n:1 () in
  checkb "empty step" false (Engine.step e);
  Engine.schedule e ~at:1.0 (fun () -> ());
  checkb "step runs" true (Engine.step e);
  checkb "empty again" false (Engine.step e)

let test_crash_semantics () =
  let e = Engine.create ~n:3 () in
  checkb "alive initially" true (Engine.is_alive e 1);
  let hook_calls = ref [] in
  Engine.on_crash e (fun p -> hook_calls := p :: !hook_calls);
  Engine.crash e 1;
  checkb "dead" false (Engine.is_alive e 1);
  Alcotest.(check (list int)) "hook fired" [ 1 ] !hook_calls;
  Engine.crash e 1;
  Alcotest.(check (list int)) "idempotent" [ 1 ] !hook_calls;
  Alcotest.(check (list int)) "correct set" [ 0; 2 ] (Engine.correct e);
  (* crash is recorded in the trace *)
  let crashes =
    Ics_sim.Trace.filter (Engine.trace e) (fun ev -> ev.Trace.kind = Trace.Crash)
  in
  checki "one crash event" 1 (List.length crashes)

let test_crash_at () =
  let e = Engine.create ~n:2 () in
  Engine.crash_at e 0 ~at:5.0;
  Engine.schedule e ~at:4.0 (fun () -> checkb "alive before" true (Engine.is_alive e 0));
  Engine.schedule e ~at:6.0 (fun () -> checkb "dead after" false (Engine.is_alive e 0));
  Engine.run e

let test_alive_guard () =
  let e = Engine.create ~n:2 () in
  let calls = ref 0 in
  let guarded = Engine.alive_guard e 0 (fun () -> incr calls) in
  guarded ();
  Engine.crash e 0;
  guarded ();
  checki "only while alive" 1 !calls

let test_engine_rng_deterministic () =
  let mk () =
    let e = Engine.create ~seed:99L ~n:3 () in
    List.init 3 (fun p -> Ics_prelude.Rng.next_int64 (Engine.rng e p))
  in
  Alcotest.(check (list int64)) "per-process streams reproducible" (mk ()) (mk ());
  let e = Engine.create ~seed:99L ~n:3 () in
  let a = Ics_prelude.Rng.next_int64 (Engine.rng e 0) in
  let b = Ics_prelude.Rng.next_int64 (Engine.rng e 1) in
  checkb "distinct streams" true (a <> b)

let test_engine_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Engine.create: n <= 0") (fun () ->
      ignore (Engine.create ~n:0 ()))

(* Resource *)

let test_resource_fifo () =
  let r = Resource.create "cpu" in
  let t1 = Resource.reserve r ~now:0.0 ~service:2.0 in
  checkf "idle start" 2.0 t1;
  let t2 = Resource.reserve r ~now:1.0 ~service:2.0 in
  checkf "queues behind" 4.0 t2;
  let t3 = Resource.reserve r ~now:10.0 ~service:1.0 in
  checkf "idle gap" 11.0 t3;
  checki "jobs" 3 (Resource.jobs r);
  checkf "busy time" 5.0 (Resource.busy_time r)

let test_resource_utilization () =
  let r = Resource.create "x" in
  ignore (Resource.reserve r ~now:0.0 ~service:5.0);
  checkf "50%" 0.5 (Resource.utilization r ~horizon:10.0);
  checkf "clamped" 1.0 (Resource.utilization r ~horizon:2.0);
  Resource.reset r;
  checkf "reset" 0.0 (Resource.busy_time r)

let test_resource_negative () =
  let r = Resource.create "x" in
  Alcotest.check_raises "negative" (Invalid_argument "Resource.reserve: negative service")
    (fun () -> ignore (Resource.reserve r ~now:0.0 ~service:(-1.0)))

(* Pid / Time *)

let test_pid_helpers () =
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Pid.all ~n:3);
  Alcotest.(check (list int)) "others" [ 0; 2 ] (Pid.others ~n:3 1);
  Alcotest.(check string) "to_string" "p2" (Pid.to_string 2)

let test_coordinator_rotation () =
  checki "round 1 -> p0" 0 (Pid.coordinator ~n:3 ~round:1);
  checki "round 2 -> p1" 1 (Pid.coordinator ~n:3 ~round:2);
  checki "round 3 -> p2" 2 (Pid.coordinator ~n:3 ~round:3);
  checki "round 4 wraps" 0 (Pid.coordinator ~n:3 ~round:4);
  Alcotest.check_raises "round 0" (Invalid_argument "Pid.coordinator: rounds are 1-based")
    (fun () -> ignore (Pid.coordinator ~n:3 ~round:0))

let test_time_units () =
  checkf "s" 2000.0 (Time.of_s 2.0);
  Alcotest.(check string) "pp" "12.340ms" (Format.asprintf "%a" Time.pp 12.34)

(* Trace *)

let test_trace_recording () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~pid:0 (Trace.Abroadcast (Msg_id.make ~origin:0 ~seq:0));
  Trace.record tr ~time:2.0 ~pid:1 (Trace.Adeliver (Msg_id.make ~origin:0 ~seq:0));
  checki "length" 2 (Trace.length tr);
  let events = Trace.events tr in
  checkb "chronological" true
    ((List.nth events 0).Trace.time <= (List.nth events 1).Trace.time);
  let at_p1 = Trace.find_all tr ~pid:1 (fun _ -> true) in
  checki "filter by pid" 1 (List.length at_p1)

let test_trace_pp () =
  let s = Format.asprintf "%a" Trace.pp_kind (Trace.Propose (3, [ Msg_id.make ~origin:0 ~seq:0; Msg_id.make ~origin:1 ~seq:0 ])) in
  checkb "propose rendering" true (Test_util.contains s "propose(#3");
  let s2 = Format.asprintf "%a" Trace.pp_kind (Trace.Suspect 2) in
  checkb "suspect rendering" true (Test_util.contains s2 "suspect(p2)")

let suites =
  [
    ( "event-queue",
      [
        Alcotest.test_case "ordering" `Quick test_queue_ordering;
        Alcotest.test_case "ties by insertion" `Quick test_queue_tie_insertion_order;
        Alcotest.test_case "growth" `Quick test_queue_growth;
        Alcotest.test_case "clear" `Quick test_queue_clear;
        Alcotest.test_case "nan rejected" `Quick test_queue_nan;
        QCheck_alcotest.to_alcotest qcheck_queue_sorted;
      ] );
    ( "engine",
      [
        Alcotest.test_case "run order" `Quick test_engine_run_order;
        Alcotest.test_case "until horizon" `Quick test_engine_until;
        Alcotest.test_case "max events" `Quick test_engine_max_events;
        Alcotest.test_case "after nested" `Quick test_engine_after_nested;
        Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
        Alcotest.test_case "past clamped" `Quick test_engine_past_clamped;
        Alcotest.test_case "stop" `Quick test_engine_stop;
        Alcotest.test_case "step" `Quick test_engine_step;
        Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
        Alcotest.test_case "crash_at" `Quick test_crash_at;
        Alcotest.test_case "alive guard" `Quick test_alive_guard;
        Alcotest.test_case "rng determinism" `Quick test_engine_rng_deterministic;
        Alcotest.test_case "invalid n" `Quick test_engine_invalid;
      ] );
    ( "resource",
      [
        Alcotest.test_case "fifo" `Quick test_resource_fifo;
        Alcotest.test_case "utilization" `Quick test_resource_utilization;
        Alcotest.test_case "negative service" `Quick test_resource_negative;
      ] );
    ( "pid-time",
      [
        Alcotest.test_case "pid helpers" `Quick test_pid_helpers;
        Alcotest.test_case "coordinator rotation" `Quick test_coordinator_rotation;
        Alcotest.test_case "time units" `Quick test_time_units;
      ] );
    ( "trace",
      [
        Alcotest.test_case "recording" `Quick test_trace_recording;
        Alcotest.test_case "pretty printing" `Quick test_trace_pp;
      ] );
  ]
