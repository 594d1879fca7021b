module Time = Ics_sim.Time
module Pid = Ics_sim.Pid

(* Initial retransmission timeout, multiplicative backoff and its cap
   (ms), and the body size of an acknowledgement frame. *)
let rto = 8.0
let backoff = 2.0
let max_rto = 128.0
let ack_bytes = 5

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

(* Nothing crosses a real socket but bytes, so the reliability protocol
   itself is wire-encodable: data frames carry an explicit sequence
   number ([Seq] wraps the original payload), and acks travel back as
   ordinary [Ack] frames on the data's own layer.  Installed as transport
   middleware, the very same code runs over the sim backend (through the
   network model) and the live backend (through the socket runtime). *)

type Message.payload += Ack of { upto : int }
type Message.payload += Seq of { seq : int; inner : Message.payload }

let seq_overhead = 5  (* tag byte + u32 sequence number *)

type pending = {
  seq : int;
  frame : Message.t;  (* the [Seq]-wrapped frame, kept verbatim for retries *)
  mutable last_tx : Time.t;
}

(* One record per (src, dst, layer) connection — one logical socket per
   protocol layer, as a layered stack would open, so a blackholed layer
   cannot head-of-line-block the others.  It holds both the sender half
   (go-back-N window, one backoff timer) and the receiver half (expected
   seq, out-of-order hold buffer); on a live node only one half of each
   record is ever active, since the node embodies a single endpoint. *)
type chan = {
  c_src : Pid.t;
  c_dst : Pid.t;
  c_layer : Layer.t;  (* data-layer token, reused for the return acks *)
  mutable next_seq : int;
  mutable unacked : pending list;  (* oldest first *)
  mutable timer_armed : bool;
  mutable cur_rto : Time.t;
  mutable expected : int;
  mutable held : (int * Message.t) list;
}

type channel = {
  ch_stats : stats;
  ch_chans : (Pid.t * Pid.t * string, chan) Hashtbl.t;
}

let channel_stats ch = ch.ch_stats

let unacked ch ~src ~dst ~layer =
  match Hashtbl.find_opt ch.ch_chans (src, dst, layer) with
  | Some c -> List.length c.unacked
  | None -> 0

let install transport =
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
  let channels : (Pid.t * Pid.t * string, chan) Hashtbl.t = Hashtbl.create 64 in
  let chan_for ~src ~dst ~layer =
    let key = (src, dst, Layer.name layer) in
    match Hashtbl.find_opt channels key with
    | Some c -> c
    | None ->
        let c =
          {
            c_src = src;
            c_dst = dst;
            c_layer = layer;
            next_seq = 0;
            unacked = [];
            timer_armed = false;
            cur_rto = rto;
            expected = 0;
            held = [];
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
  let rec transmit p ~retx =
    stats.transmissions <- stats.transmissions + 1;
    if retx then stats.retransmits <- stats.retransmits + 1;
    p.last_tx <- env.Env.now ();
    !downstream p.frame
  and arm_at c ~at =
    (* Past the horizon the run is over: stop rescheduling so the queue
       can drain.  A later ack or fresh send re-arms if needed. *)
    if not c.timer_armed then
      if not (Env.beyond_horizon env ~at) then begin
        c.timer_armed <- true;
        env.Env.schedule ~at (fun () -> on_timer c)
      end
  and arm c =
    (* The deadline belongs to the oldest unacked frame — newer frames must
       not be retried early just because an older frame's timer fired. *)
    match c.unacked with
    | [] -> ()
    | oldest :: _ -> arm_at c ~at:(Time.( + ) oldest.last_tx c.cur_rto)
  and on_timer c =
    c.timer_armed <- false;
    match c.unacked with
    | [] -> ()
    | oldest :: _ ->
        if (not (env.Env.is_alive c.c_src)) || not (env.Env.is_alive c.c_dst) then
          (* Crash-stop purge: a dead endpoint will never make progress,
             and retrying forever would keep the event queue non-empty.  A
             live node only learns of its own crash (a remote endpoint's
             death shows up as silence), so there the purge fires for
             self-crashes and the horizon retires the rest. *)
          c.unacked <- []
        else begin
          let deadline = Time.( + ) oldest.last_tx c.cur_rto in
          if Time.compare (env.Env.now ()) deadline < 0 then
            (* An ack made progress since this timer was set; the oldest
               frame's deadline is still in the future. *)
            arm_at c ~at:deadline
          else begin
            (* Go-back-N: resend the whole window, back off exponentially. *)
            List.iter (fun p -> transmit p ~retx:true) c.unacked;
            c.cur_rto <- Float.min (c.cur_rto *. backoff) max_rto;
            arm c
          end
        end
  in
  let send_ack c =
    stats.acks_sent <- stats.acks_sent + 1;
    !downstream
      {
        Message.src = c.c_dst;
        dst = c.c_src;
        layer = c.c_layer;
        payload = Ack { upto = c.expected };
        body_bytes = ack_bytes;
        sent_at = env.Env.now ();
      }
  in
  let on_ack c ~upto =
    let before = List.length c.unacked in
    c.unacked <- List.filter (fun p -> p.seq >= upto) c.unacked;
    if List.length c.unacked < before then begin
      (* Forward progress: the peer is reachable again, restart backoff. *)
      c.cur_rto <- rto;
      if c.unacked <> [] then arm c
    end
  in
  let rec drain_held c next =
    match List.assoc_opt c.expected c.held with
    | None -> ()
    | Some msg ->
        c.held <- List.remove_assoc c.expected c.held;
        next msg;
        c.expected <- c.expected + 1;
        drain_held c next
  in
  Transport.interpose transport (fun inner ->
      downstream := inner;
      fun (msg : Message.t) ->
        match msg.payload with
        | Seq _ | Ack _ -> inner msg  (* already channel traffic *)
        | _ ->
            let c = chan_for ~src:msg.src ~dst:msg.dst ~layer:msg.layer in
            let seq = c.next_seq in
            c.next_seq <- seq + 1;
            let frame =
              {
                msg with
                payload = Seq { seq; inner = msg.payload };
                body_bytes = msg.body_bytes + seq_overhead;
              }
            in
            let p = { seq; frame; last_tx = env.Env.now () } in
            c.unacked <- c.unacked @ [ p ];
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
            if seq < c.expected then begin
              stats.dup_suppressed <- stats.dup_suppressed + 1;
              send_ack c (* re-ack: the previous ack may have been lost *)
            end
            else if seq = c.expected then begin
              next unwrapped;
              c.expected <- c.expected + 1;
              drain_held c next;
              send_ack c
            end
            else begin
              (* Out of order: hold for in-order release, ack cumulatively. *)
              if not (List.mem_assoc seq c.held) then begin
                stats.held_out_of_order <- stats.held_out_of_order + 1;
                c.held <- (seq, unwrapped) :: c.held
              end;
              send_ack c
            end
        | Ack { upto } ->
            (* Arrives at the original data sender: the sender half of the
               channel is keyed by the data direction. *)
            on_ack (chan_for ~src:msg.dst ~dst:msg.src ~layer:msg.layer) ~upto
        | _ -> next msg);
  { ch_stats = stats; ch_chans = channels }
