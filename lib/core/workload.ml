(* One process's workload, written once for both backends (DESIGN.md
   §12).  Timers, liveness and the trace sink come through the
   transport's Env seam, so a pid schedules the same engine events
   whether it shares a simulated transport or runs as a live node.  The
   round-robin schedule draws the spacing of every slot and fires only
   its own, so a pid's slots do not depend on which other pids run in
   the same process. *)

module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module App_msg = Ics_net.App_msg
module Env = Ics_net.Env
module Rng = Ics_prelude.Rng

type kind = Slots | Round_robin | Sessions

let hosts_app profile =
  match profile.Profile.app with Profile.Kv -> true | Profile.No_app -> false

let kind profile ~round_robin =
  if round_robin then Round_robin else if hosts_app profile then Sessions else Slots

let expected profile = function
  | Slots -> profile.Profile.count * profile.Profile.n
  | Round_robin -> profile.Profile.count
  | Sessions -> profile.Profile.clients * profile.Profile.requests

type t = {
  profile : Profile.t;
  kind : kind;
  self : Pid.t;
  seed : int64;
  mutable delivered : int;
  mutable host : App_host.t option;
}

let create profile kind ~self ~seed =
  { profile; kind; self; seed; delivered = 0; host = None }

(* Slot [i], [at] ms past the warm-up.  With the app hosted (Ride mode)
   it carries command (client = i, req = 0); see App_host for why
   one-request clients. *)
let fire t env abcast i ~at =
  let p = t.profile in
  let app = hosts_app p in
  let blob = if app then Ics_app.Cmd.pack ~client:i ~req:0 else 0L in
  let body_bytes = if app then App_host.body_bytes p else p.Profile.body_bytes in
  env.Env.schedule ~at:(p.Profile.warmup_ms +. at) (fun () ->
      if app && env.Env.is_alive t.self then env.Env.record t.self (Trace.App_submit (i, 0));
      ignore (Abcast.abroadcast ~blob abcast ~src:t.self ~body_bytes : App_msg.t))

let install ?(ramp_ms = 200.0) t transport ~abcast =
  let p = t.profile in
  if hosts_app p then begin
    let mode = match t.kind with Sessions -> App_host.Service | _ -> App_host.Ride in
    t.host <- Some (App_host.install transport ~abcast ~profile:p ~self:t.self ~mode)
  end;
  let env = Transport.env transport in
  match t.kind with
  | Slots ->
      for k = 0 to p.Profile.count - 1 do
        fire t env abcast k ~at:(p.Profile.gap_ms *. float_of_int k)
      done
  | Round_robin ->
      let rng = Rng.create (Int64.add t.seed 104729L) in
      let at = ref 1.0 in
      for i = 0 to p.Profile.count - 1 do
        if i mod p.Profile.n = t.self then fire t env abcast i ~at:!at;
        at := !at +. 2.0 +. Rng.float rng 4.0
      done
  | Sessions ->
      Option.iter (fun h -> App_host.start h ~at:p.Profile.warmup_ms ~over_ms:ramp_ms) t.host

let on_deliver t m =
  t.delivered <- t.delivered + 1;
  match t.host with Some h -> App_host.on_deliver h m | None -> ()

let complete t =
  match (t.kind, t.host) with
  | Sessions, Some h -> App_host.complete h
  | _ -> t.delivered >= expected t.profile t.kind

let delivered t = t.delivered
let host t = t.host
