module Rng = Ics_prelude.Rng

type t = {
  n : int;
  queue : Event_queue.t;
  mutable now : Time.t;
  mutable stopped : bool;
  mutable horizon : Time.t option;
  mutable executed : int;
  alive : bool array;
  trace : Trace.t;
  trace_on : bool;
  global_rng : Rng.t;
  proc_rngs : Rng.t array;
  mutable crash_hooks : (Pid.t -> unit) list;
}

let create ?(seed = 1L) ?(trace = `On) ~n () =
  if n <= 0 then invalid_arg "Engine.create: n <= 0";
  let global_rng = Rng.create seed in
  {
    n;
    queue = Event_queue.create ();
    now = Time.zero;
    stopped = false;
    horizon = None;
    executed = 0;
    alive = Array.make n true;
    trace = Trace.create ();
    trace_on = (match trace with `On -> true | `Off -> false);
    global_rng;
    proc_rngs = Array.init n (fun _ -> Rng.split global_rng);
    crash_hooks = [];
  }

let n t = t.n
let now t = t.now
let events_executed t = t.executed
let tracing t = t.trace_on

let schedule t ~at f =
  let at = Time.max at t.now in
  Event_queue.push t.queue ~time:at f

let after t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.after: negative delay";
  schedule t ~at:(Time.( + ) t.now delay) f

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let time = Event_queue.min_time_exn t.queue in
    let run = Event_queue.pop_run_exn t.queue in
    if time > t.now then t.now <- time;
    t.executed <- t.executed + 1;
    run ();
    true
  end

let run ?until ?max_events t =
  t.stopped <- false;
  (* The horizon persists across later horizon-less runs, so self-rearming
     timers (heartbeats, retransmission) know when to stop and a draining
     [run t] after a [run ~until] terminates. *)
  (match until with Some h -> t.horizon <- Some h | None -> ());
  let budget = match max_events with None -> max_int | Some m -> m in
  let executed = ref 0 in
  (match until with
  | None ->
      let continue = ref true in
      while !continue && (not t.stopped) && !executed < budget do
        if step t then incr executed
        else begin
          t.stopped <- true;
          continue := false
        end
      done
  | Some horizon ->
      let continue = ref true in
      while !continue && (not t.stopped) && !executed < budget do
        if
          Event_queue.is_empty t.queue
          || Event_queue.min_time_exn t.queue > horizon
        then continue := false
        else begin
          ignore (step t : bool);
          incr executed
        end
      done);
  match until with
  | Some horizon when t.now < horizon && not t.stopped -> t.now <- horizon
  | _ -> ()

let pending t = Event_queue.size t.queue
let stop t = t.stopped <- true
let horizon t = t.horizon
let set_horizon t h = t.horizon <- h

let next_due t =
  if Event_queue.is_empty t.queue then None
  else Some (Event_queue.min_time_exn t.queue)

(* Live-runtime driver: execute everything due by the real clock and pin
   the virtual clock to it, without touching the horizon (which the live
   loop sets once, to the run deadline, via [set_horizon]). *)
let run_due t ~upto =
  t.stopped <- false;
  let continue = ref true in
  while
    !continue && (not t.stopped)
    && (not (Event_queue.is_empty t.queue))
    && Event_queue.min_time_exn t.queue <= upto
  do
    continue := step t
  done;
  if t.now < upto then t.now <- upto

let advance t ~upto = if t.now < upto then t.now <- upto

let is_alive t p = t.alive.(p)

let correct t =
  List.filter (fun p -> t.alive.(p)) (Pid.all ~n:t.n)

let record t pid kind =
  if t.trace_on then Trace.record t.trace ~time:t.now ~pid kind

let crash t p =
  if t.alive.(p) then begin
    t.alive.(p) <- false;
    record t p Trace.Crash;
    List.iter (fun hook -> hook p) (List.rev t.crash_hooks)
  end

let crash_at t p ~at = schedule t ~at (fun () -> crash t p)

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

let alive_guard t p f = fun () -> if t.alive.(p) then f ()

let rng t p = t.proc_rngs.(p)
let trace t = t.trace
