module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid

type params = {
  rto : Time.t;
  backoff : float;
  max_rto : Time.t;
  ack_bytes : int;
}

let default_params = { rto = 8.0; backoff = 2.0; max_rto = 128.0; ack_bytes = 5 }

type stats = {
  mutable transmissions : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable dup_suppressed : int;
  mutable held_out_of_order : int;
}

let stats_to_list s =
  [
    ("transmissions", s.transmissions);
    ("retransmits", s.retransmits);
    ("acks", s.acks_sent);
    ("dups-suppressed", s.dup_suppressed);
    ("held-out-of-order", s.held_out_of_order);
  ]

type Message.payload += Ack of { upto : int }

type pending = {
  seq : int;
  msg : Message.t;
  deliver : unit -> unit;
  mutable last_tx : Time.t;
}

(* One record per (src, dst, layer) connection: the sender half (go-back-N
   window of unacked transmissions, one backoff timer) and the receiver half
   (next expected sequence number, out-of-order hold buffer).  Keying by
   layer mirrors a stack that opens one socket per protocol layer — and
   keeps a blackholed layer from head-of-line-blocking the others. *)
type chan = {
  c_src : Pid.t;
  c_dst : Pid.t;
  mutable next_seq : int;
  mutable unacked : pending list;  (* oldest first *)
  mutable timer_armed : bool;
  mutable cur_rto : Time.t;
  mutable expected : int;
  mutable held : (int * (unit -> unit)) list;
}

let wrap ?(params = default_params) base =
  if params.rto <= 0.0 || params.backoff < 1.0 || params.max_rto < params.rto then
    invalid_arg "Retransmit.wrap: bad params";
  (* Timers go through the Env seam; one model only ever runs on one
     engine, so a single-slot cache avoids rebuilding the record per arm. *)
  let env_slot = ref None in
  let env_for engine =
    match !env_slot with
    | Some (e, env) when e == engine -> env
    | _ ->
        let env = Env.of_engine engine in
        env_slot := Some (engine, env);
        env
  in
  let stats =
    {
      transmissions = 0;
      retransmits = 0;
      acks_sent = 0;
      dup_suppressed = 0;
      held_out_of_order = 0;
    }
  in
  let ack_layer = Layer.unregistered "retx-ack" in
  let channels : (Pid.t * Pid.t * string, chan) Hashtbl.t =
    Hashtbl.create 64
  in
  let chan (msg : Message.t) =
    let key = (msg.src, msg.dst, Message.layer_name msg) in
    match Hashtbl.find_opt channels key with
    | Some c -> c
    | None ->
        let c =
          {
            c_src = msg.src;
            c_dst = msg.dst;
            next_seq = 0;
            unacked = [];
            timer_armed = false;
            cur_rto = params.rto;
            expected = 0;
            held = [];
          }
        in
        Hashtbl.add channels key c;
        c
  in
  let rec transmit engine c p ~retx =
    stats.transmissions <- stats.transmissions + 1;
    if retx then stats.retransmits <- stats.retransmits + 1;
    p.last_tx <- Engine.now engine;
    Model.send base engine p.msg ~arrive:(fun () -> on_data engine c p)
  (* Receiver side, running when the base model delivers a (possibly
     duplicated, possibly stale) transmission at the destination NIC. *)
  and on_data engine c p =
    if Engine.is_alive engine c.c_dst then
      if p.seq < c.expected then (
        stats.dup_suppressed <- stats.dup_suppressed + 1;
        send_ack engine c (* re-ack: the previous ack may have been lost *))
      else if p.seq = c.expected then (
        p.deliver ();
        c.expected <- c.expected + 1;
        drain_held engine c;
        send_ack engine c)
      else (
        (* Out of order: hold for in-order release, ack cumulatively. *)
        if not (List.mem_assoc p.seq c.held) then (
          stats.held_out_of_order <- stats.held_out_of_order + 1;
          c.held <- (p.seq, p.deliver) :: c.held);
        send_ack engine c)
  and drain_held engine c =
    match List.assoc_opt c.expected c.held with
    | None -> ()
    | Some deliver ->
        c.held <- List.remove_assoc c.expected c.held;
        deliver ();
        c.expected <- c.expected + 1;
        drain_held engine c
  and send_ack engine c =
    stats.acks_sent <- stats.acks_sent + 1;
    let upto = c.expected in
    let ack =
      {
        Message.src = c.c_dst;
        dst = c.c_src;
        layer = ack_layer;
        payload = Ack { upto };
        body_bytes = params.ack_bytes;
        sent_at = Engine.now engine;
      }
    in
    Model.send base engine ack ~arrive:(fun () -> on_ack engine c ~upto)
  and on_ack engine c ~upto =
    let before = List.length c.unacked in
    c.unacked <- List.filter (fun p -> p.seq >= upto) c.unacked;
    if List.length c.unacked < before then (
      (* Forward progress: the peer is reachable again, restart backoff. *)
      c.cur_rto <- params.rto;
      if c.unacked <> [] then arm engine c)
  and arm_at engine c ~at =
    if not c.timer_armed then begin
      let env = env_for engine in
      (* Past the horizon the run is over: stop rescheduling so the queue
         can drain.  A later ack or fresh send re-arms if needed. *)
      if not (Env.beyond_horizon env ~at) then begin
        c.timer_armed <- true;
        env.Env.schedule ~at (fun () -> on_timer engine c)
      end
    end
  and arm engine c =
    (* The deadline belongs to the oldest unacked frame — newer frames must
       not be retried early just because an older frame's timer fired. *)
    match c.unacked with
    | [] -> ()
    | oldest :: _ -> arm_at engine c ~at:(Time.( + ) oldest.last_tx c.cur_rto)
  and on_timer engine c =
    c.timer_armed <- false;
    match c.unacked with
    | [] -> ()
    | oldest :: _ ->
        if
          (not (Engine.is_alive engine c.c_src))
          || not (Engine.is_alive engine c.c_dst)
        then
          (* Crash-stop purge: a dead endpoint will never make progress, and
             retrying forever would keep the event queue non-empty. *)
          c.unacked <- []
        else begin
          let deadline = Time.( + ) oldest.last_tx c.cur_rto in
          if Time.compare (Engine.now engine) deadline < 0 then
            (* An ack made progress since this timer was set; the oldest
               frame's deadline is still in the future. *)
            arm_at engine c ~at:deadline
          else begin
            (* Go-back-N: resend the whole window, back off exponentially. *)
            List.iter (fun p -> transmit engine c p ~retx:true) c.unacked;
            c.cur_rto <- Float.min (c.cur_rto *. params.backoff) params.max_rto;
            arm engine c
          end
        end
  in
  let send engine msg ~arrive =
    let c = chan msg in
    let p =
      { seq = c.next_seq; msg; deliver = arrive; last_tx = Engine.now engine }
    in
    c.next_seq <- c.next_seq + 1;
    c.unacked <- c.unacked @ [ p ];
    transmit engine c p ~retx:false;
    arm engine c
  in
  let model =
    Model.make
      ?faults:(Model.fault_stats base)
      ~name:("retransmit(" ^ Model.name base ^ ")")
      ~resources:(Model.resources base) send
  in
  (model, stats)

(* {1 Wire-level channel}

   [wrap] lives inside one address space: delivery is an [~arrive] closure
   the sender keeps.  Across real sockets nothing crosses the wire but
   bytes, so the reliability protocol itself must be wire-encodable: data
   frames carry an explicit sequence number ([Seq] wraps the original
   payload), and acks travel back as ordinary [Ack] frames on the data's
   own layer.  Installed as transport middleware, the very same code runs
   over the sim backend (through the network model) and the live backend
   (through the socket runtime). *)

type Message.payload += Seq of { seq : int; inner : Message.payload }

let seq_overhead = 5  (* tag byte + u32 sequence number *)

type wire_pending = {
  w_seq : int;
  w_msg : Message.t;  (* the [Seq]-wrapped frame, kept verbatim for retries *)
  mutable w_last_tx : Time.t;
}

(* Like [wrap]'s [chan], one record per (src, dst, layer) connection holds
   both the sender half (window, timer) and the receiver half (expected
   seq, hold buffer); on a live node only one half of each record is ever
   active, since the node embodies a single endpoint. *)
type wire_chan = {
  wc_src : Pid.t;
  wc_dst : Pid.t;
  wc_layer : Layer.t;  (* data-layer token, reused for the return acks *)
  mutable wc_next_seq : int;
  mutable wc_unacked : wire_pending list;  (* oldest first *)
  mutable wc_timer_armed : bool;
  mutable wc_cur_rto : Time.t;
  mutable wc_expected : int;
  mutable wc_held : (int * Message.t) list;
}

type channel = {
  ch_stats : stats;
  ch_chans : (Pid.t * Pid.t * string, wire_chan) Hashtbl.t;
}

let channel_stats ch = ch.ch_stats

let unacked ch ~src ~dst ~layer =
  match Hashtbl.find_opt ch.ch_chans (src, dst, layer) with
  | Some c -> List.length c.wc_unacked
  | None -> 0

let install ?(params = default_params) transport =
  if params.rto <= 0.0 || params.backoff < 1.0 || params.max_rto < params.rto then
    invalid_arg "Retransmit.install: bad params";
  let env = Transport.env transport in
  let stats =
    {
      transmissions = 0;
      retransmits = 0;
      acks_sent = 0;
      dup_suppressed = 0;
      held_out_of_order = 0;
    }
  in
  let channels : (Pid.t * Pid.t * string, wire_chan) Hashtbl.t =
    Hashtbl.create 64
  in
  let chan_for ~src ~dst ~layer =
    let key = (src, dst, Layer.name layer) in
    match Hashtbl.find_opt channels key with
    | Some c -> c
    | None ->
        let c =
          {
            wc_src = src;
            wc_dst = dst;
            wc_layer = layer;
            wc_next_seq = 0;
            wc_unacked = [];
            wc_timer_armed = false;
            wc_cur_rto = params.rto;
            wc_expected = 0;
            wc_held = [];
          }
        in
        Hashtbl.add channels key c;
        c
  in
  (* The downstream chain (fault interposers, then the raw wire), captured
     when the outbound middleware installs.  Acks and retries reuse it, so
     they are exposed to exactly the same link faults as first
     transmissions — a lost ack is recovered by the sender's timer. *)
  let downstream = ref (fun (_ : Message.t) -> ()) in
  let rec transmit (p : wire_pending) ~retx =
    stats.transmissions <- stats.transmissions + 1;
    if retx then stats.retransmits <- stats.retransmits + 1;
    p.w_last_tx <- env.Env.now ();
    !downstream p.w_msg
  and arm_at c ~at =
    if not c.wc_timer_armed then
      if not (Env.beyond_horizon env ~at) then begin
        c.wc_timer_armed <- true;
        env.Env.schedule ~at (fun () -> on_timer c)
      end
  and arm c =
    match c.wc_unacked with
    | [] -> ()
    | oldest :: _ -> arm_at c ~at:(Time.( + ) oldest.w_last_tx c.wc_cur_rto)
  and on_timer c =
    c.wc_timer_armed <- false;
    match c.wc_unacked with
    | [] -> ()
    | oldest :: _ ->
        if
          (not (env.Env.is_alive c.wc_src))
          || not (env.Env.is_alive c.wc_dst)
        then
          (* Crash-stop purge.  A live node only learns of its own crash
             (a remote endpoint's death shows up as silence), so there the
             purge fires for self-crashes and the horizon retires the
             rest. *)
          c.wc_unacked <- []
        else begin
          let deadline = Time.( + ) oldest.w_last_tx c.wc_cur_rto in
          if Time.compare (env.Env.now ()) deadline < 0 then
            arm_at c ~at:deadline
          else begin
            List.iter (fun p -> transmit p ~retx:true) c.wc_unacked;
            c.wc_cur_rto <- Float.min (c.wc_cur_rto *. params.backoff) params.max_rto;
            arm c
          end
        end
  in
  let send_ack c =
    stats.acks_sent <- stats.acks_sent + 1;
    !downstream
      {
        Message.src = c.wc_dst;
        dst = c.wc_src;
        layer = c.wc_layer;
        payload = Ack { upto = c.wc_expected };
        body_bytes = params.ack_bytes;
        sent_at = env.Env.now ();
      }
  in
  let on_ack c ~upto =
    let before = List.length c.wc_unacked in
    c.wc_unacked <- List.filter (fun p -> p.w_seq >= upto) c.wc_unacked;
    if List.length c.wc_unacked < before then begin
      c.wc_cur_rto <- params.rto;
      if c.wc_unacked <> [] then arm c
    end
  in
  let rec drain_held c next =
    match List.assoc_opt c.wc_expected c.wc_held with
    | None -> ()
    | Some msg ->
        c.wc_held <- List.remove_assoc c.wc_expected c.wc_held;
        next msg;
        c.wc_expected <- c.wc_expected + 1;
        drain_held c next
  in
  Transport.interpose transport (fun inner ->
      downstream := inner;
      fun (msg : Message.t) ->
        match msg.payload with
        | Seq _ | Ack _ -> inner msg  (* already channel traffic *)
        | _ ->
            let c = chan_for ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
            let seq = c.wc_next_seq in
            c.wc_next_seq <- seq + 1;
            let wrapped =
              {
                msg with
                payload = Seq { seq; inner = msg.payload };
                body_bytes = msg.body_bytes + seq_overhead;
              }
            in
            let p = { w_seq = seq; w_msg = wrapped; w_last_tx = env.Env.now () } in
            c.wc_unacked <- c.wc_unacked @ [ p ];
            transmit p ~retx:false;
            arm c);
  Transport.interpose_inbound transport (fun next ->
      fun (msg : Message.t) ->
        match msg.payload with
        | Seq { seq; inner } ->
            let c = chan_for ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
            let unwrapped =
              {
                msg with
                payload = inner;
                body_bytes = Stdlib.max 0 (msg.body_bytes - seq_overhead);
              }
            in
            if seq < c.wc_expected then begin
              stats.dup_suppressed <- stats.dup_suppressed + 1;
              send_ack c (* re-ack: the previous ack may have been lost *)
            end
            else if seq = c.wc_expected then begin
              next unwrapped;
              c.wc_expected <- c.wc_expected + 1;
              drain_held c next;
              send_ack c
            end
            else begin
              if not (List.mem_assoc seq c.wc_held) then begin
                stats.held_out_of_order <- stats.held_out_of_order + 1;
                c.wc_held <- (seq, unwrapped) :: c.wc_held
              end;
              send_ack c
            end
        | Ack { upto } ->
            (* Arrives at the original data sender: the sender half of the
               channel is keyed by the data direction. *)
            on_ack (chan_for ~src:msg.dst ~dst:msg.src ~layer:msg.layer) ~upto
        | _ -> next msg);
  { ch_stats = stats; ch_chans = channels }
