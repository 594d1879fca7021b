(* One replica's application plane, shared verbatim by both backends:
   Workload installs one per pid on a simulated run's shared transport,
   and one in each live node process.  Everything ambient —
   time, timers, liveness, the trace sink, the run horizon — comes
   through the transport's Env seam, which is what makes the hosted
   machine's behaviour (and therefore its state hashes) a function of
   the delivery order alone.

   A host owns the replica's state machine, the "app" wire layer (the
   redirect-to-proposer Submit handler), and, in [`Service] mode, the
   closed-loop sessions of the clients homed here.  In [`Ride] mode the
   machine rides an externally scheduled workload (the chaos sweep's
   round-robin broadcasts, blob-stamped by the scheduler): each workload
   slot stands in for a one-request client, so every command is that
   client's Create.  The restriction is load-bearing: atomic broadcast
   does not promise per-sender FIFO across consensus instances, and the
   machine's watermark treats a same-client inversion as a lost command
   — only the closed loop (submit r+1 after r applied) earns
   multi-request clients.  One-request clients are order-independent,
   which is exactly what lets the chaos sweep host the app under every
   fault plan without manufacturing false gap probes. *)

module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module App_msg = Ics_net.App_msg
module Env = Ics_net.Env
module Cmd = Ics_app.Cmd
module Machine = Ics_app.Machine
module Proto = Ics_app.Proto
module Session = Ics_app.Session

type mode = Service | Ride

type t = {
  machine : Machine.t;
  sessions : Session.t option;
  total : int;  (* distinct commands in the whole workload *)
  hash_every : int;
  self : Pid.t;
  env : unit -> Env.t;
}

(* A blob needs eight payload bytes to ride in. *)
let body_bytes profile = max 8 profile.Profile.body_bytes

let install transport ~abcast ~profile ~self ~mode =
  let n = profile.Profile.n in
  (* Fetched per use, like the stack itself does: the live runtime's
     wall-clock Env must win even if installed after assembly. *)
  let env () = Transport.env transport in
  let nclients =
    match mode with
    | Service -> profile.Profile.clients
    | Ride -> profile.Profile.count
  in
  let machine =
    Machine.create
      ~emit:(fun s -> (env ()).Env.record self (Trace.App_violation s))
      ~nclients
      ~seed:(Int64.of_int profile.Profile.app_seed)
      ()
  in
  let bytes = body_bytes profile in
  let submit_direct ~client ~req =
    ignore
      (Abcast.abroadcast ~blob:(Cmd.pack ~client ~req) abcast ~src:self
         ~body_bytes:bytes
        : App_msg.t)
  in
  let app_l = Transport.intern transport Proto.layer in
  Transport.register transport self ~layer:app_l (fun msg ->
      match msg.Message.payload with
      | Proto.Submit { client; req } -> submit_direct ~client ~req
      | _ -> ());
  let total =
    match mode with
    | Service -> profile.Profile.clients * profile.Profile.requests
    | Ride -> profile.Profile.count
  in
  let sessions =
    match mode with
    | Ride -> None
    | Service ->
        let host =
          {
            Session.now = (fun () -> (env ()).Env.now ());
            schedule = (fun ~at k -> (env ()).Env.schedule ~at k);
            beyond_horizon = (fun ~at -> Env.beyond_horizon (env ()) ~at);
            alive = (fun () -> (env ()).Env.is_alive self);
            submit =
              (fun ~proposer ~client ~req ->
                if Pid.equal proposer self then submit_direct ~client ~req
                else
                  Transport.send transport ~src:self ~dst:proposer ~layer:app_l
                    ~body_bytes:Proto.submit_bytes
                    (Proto.Submit { client; req }));
            record_submit =
              (fun ~client ~req ->
                (env ()).Env.record self (Trace.App_submit (client, req)));
          }
        in
        Some
          (Session.create host ~n ~home:self ~clients:profile.Profile.clients
             ~requests:profile.Profile.requests ~retry_ms:profile.Profile.retry_ms)
  in
  { machine; sessions; total; hash_every = profile.Profile.hash_every; self; env }

let start t ~at ~over_ms =
  match t.sessions with Some s -> Session.start s ~at ~over_ms | None -> ()

(* Feed every A-delivery at this replica.  Applies advance the sessions'
   closed loops and emit the state-hash cadence the checker compares. *)
let on_deliver t (m : App_msg.t) =
  match Cmd.unpack m.App_msg.blob with
  | None -> ()
  | Some (client, req) -> (
      match Machine.apply t.machine ~client ~req with
      | Machine.Applied ->
          let e = t.env () in
          e.Env.record t.self (Trace.App_applied (client, req));
          (match t.sessions with
          | Some s -> Session.on_applied s ~client ~req
          | None -> ());
          let c = Machine.cursor t.machine in
          if c mod t.hash_every = 0 || c = t.total then
            e.Env.record t.self (Trace.App_hash (c, Machine.hash t.machine))
      | Machine.Duplicate | Machine.Rejected -> ())

let complete t = Machine.cursor t.machine >= t.total

let sessions_done t =
  match t.sessions with Some s -> Session.all_done s | None -> true
