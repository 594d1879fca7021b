(* Closed-loop client sessions.  Each replica hosts the sessions of the
   clients homed on it (client c lives at replica c mod n); a session
   submits request r, waits until its home replica's state machine
   applies (c, r), then immediately submits r+1 — so the offered load is
   set by client count, not by a rate knob.

   Submission is redirect-to-any-proposer: attempt 0 is abroadcast by
   the home replica itself; attempt k rotates to replica (home + k)
   mod n, reached with a Proto.Submit frame.  A retry fires when the
   command has not been applied within the (linearly backed off) retry
   window — under the fault plane the original, the retry, or both may
   get through, and the machine's watermark dedup makes the effect
   exactly-once either way.

   Retry timers respect the run horizon (they never re-arm past it, so a
   faulted run still quiesces) and die silently once their request has
   been applied or the home replica has stopped. *)

module Time = Ics_sim.Time

type host = {
  now : unit -> Time.t;
  schedule : at:Time.t -> (unit -> unit) -> unit;
  beyond_horizon : at:Time.t -> bool;
      (* true when [at] lies past the run's pinned horizon *)
  alive : unit -> bool;  (* the home replica is still taking steps *)
  submit : proposer:int -> client:int -> req:int -> unit;
  record_submit : client:int -> req:int -> unit;
      (* trace App_submit; first attempt of each request only *)
}

type session = {
  client : int;
  mutable inflight : int;  (* request awaiting application; -1 when idle/done *)
  mutable attempt : int;
}

type t = {
  host : host;
  n : int;
  home : int;
  requests : int;
  retry_ms : float;
  sessions : session array;  (* position i holds client home + i*n *)
  mutable completed : int;
}

let sessions_of ~n ~home ~clients =
  let count = if clients <= home then 0 else ((clients - home - 1) / n) + 1 in
  Array.init count (fun i -> { client = home + (i * n); inflight = -1; attempt = 0 })

let create host ~n ~home ~clients ~requests ~retry_ms =
  if n <= 0 || home < 0 || home >= n then invalid_arg "Session.create: bad home/n";
  if requests < 0 || clients < 0 then invalid_arg "Session.create: bad workload";
  if retry_ms <= 0.0 || not (Float.is_finite retry_ms) then
    invalid_arg "Session.create: bad retry_ms";
  {
    host;
    n;
    home;
    requests;
    retry_ms;
    sessions = sessions_of ~n ~home ~clients;
    completed = 0;
  }

let count t = Array.length t.sessions
let all_done t = t.completed = Array.length t.sessions

let rec submit_now t s =
  let proposer = (t.home + s.attempt) mod t.n in
  (* Read [req] first: at n = 1 the command applies inside [submit], and
     [inflight] has moved on by the time it returns. *)
  let req = s.inflight in
  if s.attempt = 0 then t.host.record_submit ~client:s.client ~req;
  t.host.submit ~proposer ~client:s.client ~req;
  arm_retry t s req

and arm_retry t s req =
  (* Linear backoff: the k-th retry waits (k+1) windows, so a congested
     run is not compounded by its own retry traffic. *)
  let at = t.host.now () +. (t.retry_ms *. float_of_int (s.attempt + 1)) in
  if not (t.host.beyond_horizon ~at) then
    t.host.schedule ~at (fun () ->
        if s.inflight = req && t.host.alive () then begin
          s.attempt <- s.attempt + 1;
          submit_now t s
        end)

let start_session t s =
  if t.requests = 0 then t.completed <- t.completed + 1
  else begin
    s.inflight <- 0;
    s.attempt <- 0;
    submit_now t s
  end

(* Stagger session starts across [over_ms] after [at] in client order, so
   ten thousand sessions do not land their first request on one tick. *)
let start t ~at ~over_ms =
  let count = Array.length t.sessions in
  let gap = if count <= 1 then 0.0 else over_ms /. float_of_int count in
  Array.iteri
    (fun i s ->
      let when_ = at +. (gap *. float_of_int i) in
      t.host.schedule ~at:when_ (fun () -> if t.host.alive () then start_session t s))
    t.sessions

let on_applied t ~client ~req =
  if client >= 0 && client mod t.n = t.home then begin
    let i = (client - t.home) / t.n in
    if i < Array.length t.sessions then begin
      let s = t.sessions.(i) in
      if s.inflight = req then
        if req + 1 < t.requests then begin
          s.inflight <- req + 1;
          s.attempt <- 0;
          submit_now t s
        end
        else begin
          s.inflight <- -1;
          t.completed <- t.completed + 1
        end
    end
  end
