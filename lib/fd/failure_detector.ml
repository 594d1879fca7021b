module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message

type t = {
  engine : Engine.t;
  suspected : bool array array;  (* suspected.(observer).(target) *)
  mutable suspect_subs : (Pid.t -> unit) list array;
  mutable trust_subs : (Pid.t -> unit) list array;
  mutable stopped : bool;
}

let make engine =
  let n = Engine.n engine in
  {
    engine;
    suspected = Array.init n (fun _ -> Array.make n false);
    suspect_subs = Array.make n [];
    trust_subs = Array.make n [];
    stopped = false;
  }

let stop t = t.stopped <- true

let is_suspected t ~by target = t.suspected.(by).(target)

let suspected_last t ~by dsts =
  let trusted, suspected = List.partition (fun q -> not t.suspected.(by).(q)) dsts in
  match suspected with [] -> dsts | _ -> trusted @ suspected

let on_suspect t ~observer f =
  t.suspect_subs.(observer) <- t.suspect_subs.(observer) @ [ f ]

let on_trust t ~observer f = t.trust_subs.(observer) <- t.trust_subs.(observer) @ [ f ]

let set_suspected t ~observer target =
  if (not t.suspected.(observer).(target)) && Engine.is_alive t.engine observer then begin
    t.suspected.(observer).(target) <- true;
    Engine.record t.engine observer (Trace.Suspect target);
    List.iter (fun f -> f target) t.suspect_subs.(observer)
  end

let set_trusted t ~observer target =
  if t.suspected.(observer).(target) && Engine.is_alive t.engine observer then begin
    t.suspected.(observer).(target) <- false;
    Engine.record t.engine observer (Trace.Trust target);
    List.iter (fun f -> f target) t.trust_subs.(observer)
  end

let leader t ~observer =
  let n = Array.length t.suspected in
  let rec scan q = if q >= n then observer else if t.suspected.(observer).(q) then scan (q + 1) else q in
  scan 0

let oracle engine ~detection_delay =
  let t = make engine in
  Engine.on_crash engine (fun dead ->
      Engine.after engine ~delay:detection_delay (fun () ->
          List.iter
            (fun observer ->
              if not (Pid.equal observer dead) then set_suspected t ~observer dead)
            (Engine.correct engine)));
  t

(* Heartbeat detector. *)

type Message.payload += Heartbeat

(* A heartbeat is pure signal: its encoding is the tag byte alone. *)
let hb_body_bytes = 1

let register_codec () =
  let module Codec = Ics_codec.Codec in
  Codec.register ~tag:0x40 ~name:"fd.heartbeat"
    ~fits:(function Heartbeat -> true | _ -> false)
    ~size:(fun _ -> hb_body_bytes)
    ~encode_into:(fun _ _ -> ())
    ~dec:(fun _ -> Heartbeat)
    ~gen:(fun _ -> Heartbeat)

let heartbeat transport ~period ~timeout =
  if period <= 0.0 then invalid_arg "Failure_detector.heartbeat: period <= 0";
  if timeout <= period then invalid_arg "Failure_detector.heartbeat: timeout <= period";
  let engine = Transport.engine transport in
  let n = Engine.n engine in
  let layer = Transport.intern transport "fd" in
  let t = make engine in
  let last_hb = Array.init n (fun _ -> Array.make n Time.zero) in
  (* Self-rearming loops must not outlive the run: rescheduling past the
     engine's horizon (or after [stop]) would keep the event queue
     non-empty forever, so a horizon-less [Engine.run] would never
     return. *)
  let rearm ~at k =
    if not t.stopped then
      match Engine.horizon engine with
      | Some h when Time.compare at h > 0 -> ()
      | _ -> Engine.schedule engine ~at k
  in
  (* Sender side: emit heartbeats until crash, stop or horizon. *)
  let rec emit p () =
    if Engine.is_alive engine p && not t.stopped then begin
      Transport.send_to_others transport ~src:p ~layer ~body_bytes:hb_body_bytes
        Heartbeat;
      rearm
        ~at:(Time.( + ) (Engine.now engine) period)
        (Engine.alive_guard engine p (emit p))
    end
  in
  (* Observer side: each (observer, target) check is armed at the
     target's deadline, [last_hb + timeout], so suspicion comes exactly
     [timeout] after the last heartbeat.  A check that finds the deadline
     moved by a fresher heartbeat re-arms at the new deadline; a silent
     target stays suspected and is looked at again a period later (a
     late heartbeat restores trust in the handler).  A dead target that
     is already suspected is settled — crash-stop means it can never need
     re-trusting, so the loop retires. *)
  let rec check observer target () =
    if Engine.is_alive engine observer && not t.stopped then begin
      let now = Engine.now engine in
      let deadline = Time.( + ) last_hb.(observer).(target) timeout in
      if Time.compare now deadline < 0 then arm observer target ~at:deadline
      else begin
        set_suspected t ~observer target;
        let settled =
          (not (Engine.is_alive engine target))
          && t.suspected.(observer).(target)
        in
        if not settled then arm observer target ~at:(Time.( + ) now period)
      end
    end
  and arm observer target ~at =
    rearm ~at (Engine.alive_guard engine observer (check observer target))
  in
  List.iter
    (fun p ->
      Transport.register transport p ~layer (fun msg ->
          match msg.Message.payload with
          | Heartbeat ->
              last_hb.(p).(msg.Message.src) <- Engine.now engine;
              set_trusted t ~observer:p msg.Message.src
          | _ -> ());
      emit p ();
      List.iter
        (fun q ->
          last_hb.(p).(q) <- Engine.now engine;
          arm p q ~at:(Time.( + ) (Engine.now engine) timeout))
        (Pid.others ~n p))
    (Pid.all ~n);
  t

module Control = struct
  type nonrec t = t

  let suspect t ~observer target = set_suspected t ~observer target
  let trust t ~observer target = set_trusted t ~observer target

  let suspect_everywhere t target =
    Array.iteri
      (fun observer _ ->
        if not (Pid.equal observer target) then set_suspected t ~observer target)
      t.suspect_subs

  let fd t = t
end

let manual engine = make engine
