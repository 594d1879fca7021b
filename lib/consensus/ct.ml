module Pid = Ics_sim.Pid
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Failure_detector = Ics_fd.Failure_detector

(* [Est.suspicion]: the sender left round [r - 1] on suspecting its
   coordinator, not on that round's proposal or phase-4 outcome. *)
type Message.payload +=
  | Est of { k : int; r : int; est : Proposal.t; ts : int; suspicion : bool }
  | Prop of { k : int; r : int; est : Proposal.t }
  | Ack of { k : int; r : int; ok : bool }
  | Decide of { k : int; est : Proposal.t }

(* Exact encoded body sizes (tag byte + fields + proposal). *)
let est_bytes est = 14 + Proposal.encoded_bytes est
let prop_bytes est = 9 + Proposal.encoded_bytes est
let ack_bytes = 10

let register_codec () =
  let module Codec = Ics_codec.Codec in
  let module Prim = Ics_codec.Prim in
  let module Rng = Ics_prelude.Rng in
  let gen_k rng = Ics_prelude.Rng.int rng 100 in
  let gen_r rng = 1 + Ics_prelude.Rng.int rng 8 in
  Codec.register ~tag:0x20 ~name:"ct.est"
    ~fits:(function Est _ -> true | _ -> false)
    ~size:(function Est { est; _ } -> est_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Est { k; r; est; ts; suspicion } ->
          Prim.u32 w k;
          Prim.u32 w r;
          Prim.u32 w ts;
          Prim.bool w suspicion;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let r = Prim.r_u32 rd in
      let ts = Prim.r_u32 rd in
      let suspicion = Prim.r_bool rd in
      Est { k; r; est = Proposal.decode rd; ts; suspicion })
    ~gen:(fun rng ->
      Est
        {
          k = gen_k rng;
          r = gen_r rng;
          est = Proposal.gen rng;
          ts = Rng.int rng 8;
          suspicion = Rng.bool rng;
        });
  Codec.register ~tag:0x21 ~name:"ct.prop"
    ~fits:(function Prop _ -> true | _ -> false)
    ~size:(function Prop { est; _ } -> prop_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Prop { k; r; est } ->
          Prim.u32 w k;
          Prim.u32 w r;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let r = Prim.r_u32 rd in
      Prop { k; r; est = Proposal.decode rd })
    ~gen:(fun rng -> Prop { k = gen_k rng; r = gen_r rng; est = Proposal.gen rng });
  Codec.register ~tag:0x22 ~name:"ct.ack"
    ~fits:(function Ack _ -> true | _ -> false)
    ~size:(fun _ -> ack_bytes)
    ~encode_into:(fun w -> function
      | Ack { k; r; ok } ->
          Prim.u32 w k;
          Prim.u32 w r;
          Prim.bool w ok
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let r = Prim.r_u32 rd in
      Ack { k; r; ok = Prim.r_bool rd })
    ~gen:(fun rng -> Ack { k = gen_k rng; r = gen_r rng; ok = Rng.bool rng });
  Codec.register ~tag:0x23 ~name:"ct.decide"
    ~fits:(function Decide _ -> true | _ -> false)
    ~size:(function Decide { est; _ } -> Instances.decide_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Decide { k; est } ->
          Prim.u32 w k;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Decide { k; est = Proposal.decode rd })
    ~gen:(fun rng -> Decide { k = gen_k rng; est = Proposal.gen rng })

(* Coordinator-side state of the round the process currently leads. *)
type coord_phase =
  | Not_coordinator
  | Collecting  (* Phase 2, r > 1: gathering estimates *)
  | Waiting_acks of Proposal.t  (* Phase 4: proposal sent, counting replies *)

(* An instance's round state; its [estimate] is estimate_p. *)
type state = {
  mutable ts : int;
  mutable r : int;
  mutable coord : coord_phase;
  mutable waiting_prop : bool;  (* Phase 3 *)
  est_in : (int, (Pid.t * int * Proposal.t) list ref) Hashtbl.t;
      (* round -> phase-1 estimates, one per sender *)
  prop_in : (int, Proposal.t) Hashtbl.t;
  replies_in : (int, replies) Hashtbl.t;  (* round -> phase-3 replies *)
  mutable prop_out : (int * Proposal.t) list;
      (* round (> 1) -> own proposal, answered to a late estimate *)
}

(* The coordinator's tally of one round's phase-3 replies, one per
   process: a duplicate reply from the same sender is not counted. *)
and replies = { replied : bool array; mutable acks : int }

(* Decisions the coordinator reached on a majority of acks, by the round
   it reached them in, decisions on a locked majority of estimates,
   phase-3 nacks sent, catch-ups (rounds left on a peer's next-round
   estimate), decisions sent by the answer rule, and remote sends by
   message kind and round (all processes of the handle; a live node's
   handle runs one).  A round-1 estimate is the announce. *)
type counters = {
  mutable round1 : int;
  mutable round2 : int;
  mutable round3_plus : int;
  mutable locked : int;
  mutable nacks : int;
  mutable catch_ups : int;
  mutable answers : int;
  mutable est_r1 : int;
  mutable est_r2_plus : int;
  mutable prop_r1 : int;
  mutable prop_r2_plus : int;
  mutable acks_sent : int;
  mutable decides_sent : int;
}

let fresh () =
  {
    ts = 0;
    r = 1;
    coord = Not_coordinator;
    waiting_prop = false;
    est_in = Hashtbl.create 8;
    prop_in = Hashtbl.create 8;
    replies_in = Hashtbl.create 8;
    prop_out = [];
  }

(* The decision reaches every process: no estimate needs an answer. *)
let settle s =
  s.waiting_prop <- false;
  s.coord <- Not_coordinator;
  s.prop_out <- []

let replies n = { replied = Array.make n false; acks = 0 }

(* Whether [q]'s estimate is among [ests]. *)
let holds_est ests q = List.exists (fun (src, _, _) -> Pid.equal src q) ests

let create ?announce transport fd config cb =
  let n = Transport.n transport in
  let majority = Quorum.majority ~n in
  let counters =
    {
      round1 = 0;
      round2 = 0;
      round3_plus = 0;
      locked = 0;
      nacks = 0;
      catch_ups = 0;
      answers = 0;
      est_r1 = 0;
      est_r2_plus = 0;
      prop_r1 = 0;
      prop_r2_plus = 0;
      acks_sent = 0;
      decides_sent = 0;
    }
  in
  (* One copy of [payload] queued for another process; a send to oneself
     never reaches the wire and is not counted. *)
  let count_sent payload =
    let c = counters in
    match payload with
    | Est { r = 1; _ } -> c.est_r1 <- c.est_r1 + 1
    | Est _ -> c.est_r2_plus <- c.est_r2_plus + 1
    | Prop { r = 1; _ } -> c.prop_r1 <- c.prop_r1 + 1
    | Prop _ -> c.prop_r2_plus <- c.prop_r2_plus + 1
    | Ack _ -> c.acks_sent <- c.acks_sent + 1
    | Decide _ -> c.decides_sent <- c.decides_sent + 1
    | _ -> ()
  in
  let t =
    Instances.create ~sent:count_sent transport fd config cb ~fresh ~settle
      ~decide:(fun k est -> Decide { k; est })
  in

  (* Phase 3 reply to the coordinator of round [r]. *)
  let reply p (inst : state Instances.inst) ~r ~ok =
    if not ok then counters.nacks <- counters.nacks + 1;
    Instances.send t ~src:p ~dst:(Pid.coordinator ~n ~round:r) ~body_bytes:ack_bytes
      (Ack { k = inst.k; r; ok })
  in

  (* Phase 4 check: the coordinator decides on a majority of acks, and
     gives up the round only once a majority is out of reach — when the
     acks so far plus every process it does not suspect and has not heard
     from fall short of one.  Nacks and suspicions shrink that bound, so
     it is re-evaluated on each reply and on each new suspicion. *)
  let rec coord_check_acks p ({ Instances.st = s; _ } as inst) =
    match s.coord with
    | Waiting_acks proposal ->
        let rs = Instances.find_or_add s.replies_in s.r replies n in
        if rs.acks >= majority then begin
          (match s.r with
          | 1 -> counters.round1 <- counters.round1 + 1
          | 2 -> counters.round2 <- counters.round2 + 1
          | _ -> counters.round3_plus <- counters.round3_plus + 1);
          Instances.decide t p inst proposal
        end
        else begin
          let pending =
            List.fold_left
              (fun c q ->
                if rs.replied.(q) || Failure_detector.is_suspected fd ~by:p q then c
                else c + 1)
              0 (Pid.all ~n)
          in
          if rs.acks + pending < majority then advance_round p inst
        end
    | Not_coordinator | Collecting -> ()

  (* Phase 2, rounds > 1.  A majority of estimates stamped r - 1 is
     locked: each of its senders adopted round r - 1's one proposal, after
     [rcv] held, and no other value can ever be proposed.  The coordinator
     decides it at once, and leaves round r - 1's coordinator out of its
     [Decide] unless it holds that coordinator's own estimate (it left
     round r - 1): otherwise that coordinator decides on the same acks,
     or gives the round up and is answered.  With any other majority of
     estimates in hand, propose one carrying the largest timestamp — to
     this process and the senders of those estimates only.  Every other
     process that enters the round sends its estimate here too and is
     answered with the recorded proposal (the [Est] handler), so a
     process that has decided or moved on is not sent a frame it would
     drop. *)
  and coord_check_estimates p ({ Instances.st = s; _ } as inst) =
    match s.coord with
    | Collecting ->
        let ests = !(Instances.find_or_add s.est_in s.r ref []) in
        let locked = List.filter (fun (_, ts, _) -> ts = s.r - 1) ests in
        if List.length locked >= majority then begin
          counters.locked <- counters.locked + 1;
          let _, _, value = List.hd locked in
          let c = Pid.coordinator ~n ~round:(s.r - 1) in
          Instances.decide t p inst value ~skip:(if holds_est ests c then [] else [ c ])
        end
        else if List.length ests >= majority then begin
          let _, _, best =
            List.fold_left
              (fun ((_, bts, _) as acc) ((_, ts, _) as e) ->
                if ts > bts then e else acc)
              (List.hd ests) (List.tl ests)
          in
          s.coord <- Waiting_acks best;
          s.prop_out <- (s.r, best) :: s.prop_out;
          Instances.multicast t ~src:p
            ~dsts:(List.filter (fun q -> Pid.equal q p || holds_est ests q) (Pid.all ~n))
            ~body_bytes:(prop_bytes best)
            (Prop { k = inst.k; r = s.r; est = best });
          coord_check_acks p inst
        end
    | Not_coordinator | Waiting_acks _ -> ()

  (* Phase 3: react to the coordinator's proposal for the current round. *)
  and handle_prop p ({ Instances.st = s; _ } as inst) (est : Proposal.t) =
    if s.waiting_prop then begin
      s.waiting_prop <- false;
      let c = Pid.coordinator ~n ~round:s.r in
      let ok = Instances.rcv_holds t p est in
      if ok then begin
        inst.estimate <- est;
        s.ts <- s.r
      end;
      reply p inst ~r:s.r ~ok;
      if not (Pid.equal p c) then advance_round p inst
    end

  and enter_phase3 p ({ Instances.st = s; _ } as inst) =
    s.waiting_prop <- true;
    let c = Pid.coordinator ~n ~round:s.r in
    match Hashtbl.find_opt s.prop_in s.r with
    | Some est -> handle_prop p inst est
    | None ->
        if Failure_detector.is_suspected fd ~by:p c then begin
          s.waiting_prop <- false;
          if Pid.equal p c then reply p inst ~r:s.r ~ok:false else give_up p inst
        end

  and start_round ?(suspicion = false) p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      let c = Pid.coordinator ~n ~round:s.r in
      (* Phase 1: send the timestamped estimate to the coordinator. *)
      if s.r > 1 then
        Instances.send t ~src:p ~dst:c ~body_bytes:(est_bytes inst.estimate)
          (Est { k = inst.k; r = s.r; est = inst.estimate; ts = s.ts; suspicion });
      (* Phase 2 entry for the coordinator. *)
      if Pid.equal p c then begin
        if s.r = 1 then begin
          (* First round: the coordinator proposes its own estimate without
             gathering (Algorithm 2 line 20). *)
          s.coord <- Waiting_acks inst.estimate;
          Instances.multicast t ~src:p ~dsts:(Pid.all ~n) ~body_bytes:(prop_bytes inst.estimate)
            (Prop { k = inst.k; r = 1; est = inst.estimate })
        end
        else begin
          s.coord <- Collecting;
          coord_check_estimates p inst
        end
      end
      else s.coord <- Not_coordinator;
      enter_phase3 p inst;
      (* Replies may already be buffered if this process lags behind. *)
      coord_check_acks p inst
    end

  and advance_round ?suspicion p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      s.r <- s.r + 1;
      s.coord <- Not_coordinator;
      s.waiting_prop <- false;
      start_round ?suspicion p inst
    end

  (* Leave phase 3 of the current round without a proposal: enter the
     next round first, then nack the one given up.  The new round's
     destinations are then queued first, so their frames leave this CPU
     ahead of the nack even when its coordinator is not suspected here
     (a peer gave it up); a suspected one goes last anyway. *)
  and give_up p inst =
    let r = inst.st.r in
    advance_round ~suspicion:true p inst;
    reply p inst ~r ~ok:false
  in
  let start p inst = start_round p inst in

  (* A round message from a process this one's decision skipped. *)
  let answer p inst ~src =
    if Instances.answer t p inst ~src then counters.answers <- counters.answers + 1
  in

  let on_message p ~src (payload : Message.payload) =
    match payload with
    | Est { k; r; est; ts; suspicion } -> (
        (* A round-1 estimate is only ever the announce (phase 1 starts
           at round 2): join the instance on it. *)
        let ({ Instances.st = s; _ } as inst) =
          if r = 1 then Instances.join_announced t ~start p k est
          else Instances.get_inst t ~start p k
        in
        if inst.decided then answer p inst ~src
        else
          match List.assoc_opt r s.prop_out with
          | Some value ->
              (* This process has proposed in round r, possibly left it
                 since: answer the late estimate with that proposal (a
                 duplicate answer is dropped by its receiver). *)
              Instances.send t ~src:p ~dst:src ~body_bytes:(prop_bytes value)
                (Prop { k; r; est = value })
          | None ->
              if r >= s.r then begin
                let l = Instances.find_or_add s.est_in r ref [] in
                (* One estimate per sender: a duplicated frame is not a vote. *)
                if not (holds_est !l src) then begin
                  l := (src, ts, est) :: !l;
                  if r = s.r then coord_check_estimates p inst
                  else if
                    (* Catch-up: the sender gave the current round up on
                       suspecting its coordinator, so that coordinator has
                       lost a vote; a non-coordinator still waiting for its
                       proposal follows the sender into the next round,
                       which this process coordinates.  Only on a suspicion:
                       a sender that nacked a proposal for a missing payload
                       leaves the coordinator alive and able to decide with
                       this process's ack.  Only the next round: this process
                       has sent every estimate up to its current round, and
                       skipping a round would withhold that round's from its
                       coordinator. *)
                    suspicion && s.waiting_prop && r = s.r + 1
                    && not (Pid.equal p (Pid.coordinator ~n ~round:s.r))
                  then begin
                    counters.catch_ups <- counters.catch_ups + 1;
                    s.waiting_prop <- false;
                    give_up p inst
                  end
                end
              end)
    | Prop { k; r; est } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start p k in
        if inst.decided then answer p inst ~src
        else if r >= s.r then begin
          Hashtbl.replace s.prop_in r est;
          if r = s.r then handle_prop p inst est
        end
    | Ack { k; r; ok } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start p k in
        if inst.decided then answer p inst ~src
        else if r >= s.r then begin
          let rs = Instances.find_or_add s.replies_in r replies n in
          if not rs.replied.(src) then begin
            rs.replied.(src) <- true;
            if ok then rs.acks <- rs.acks + 1;
            if r = s.r then coord_check_acks p inst
          end
        end
    | Decide { k; est } -> Instances.receive_decide t p ~src k est
    | _ -> ()
  in

  (* The nacks to the suspect leave after every other frame of the step
     (the outbox sends a suspect's frame last). *)
  let on_suspect p suspect =
    Instances.iter t p (fun ({ Instances.st = s; _ } as inst) ->
        if
          (not inst.decided) && s.waiting_prop
          && Pid.equal (Pid.coordinator ~n ~round:s.r) suspect
        then begin
          s.waiting_prop <- false;
          give_up p inst
        end
        else
          (* A coordinator waiting on a silent replier that is now
             suspected may have lost its majority. *)
          coord_check_acks p inst)
  in

  (* Round 1's announce is the phase-1 estimate, which rounds r > 1 send
     anyway, sent to every other process.  It is due while round 1's
     proposal has not arrived, whatever the current round: a process that
     gave round 1 up on a suspicion is exactly the one whose peers may
     never have heard of the instance. *)
  let announce_est ~src ~dsts ({ Instances.st = s; _ } as inst) =
    if not (Hashtbl.mem s.prop_in 1) then
      Instances.multicast t ~src ~dsts ~body_bytes:(est_bytes inst.estimate)
        (Est { k = inst.k; r = 1; est = inst.estimate; ts = s.ts; suspicion = false })
  in
  let counters () =
    let c = counters in
    [
      ("decisions.round1", c.round1);
      ("decisions.round2", c.round2);
      ("decisions.round3+", c.round3_plus);
      ("decisions.locked", c.locked);
      ("nacks", c.nacks);
      ("catch_ups", c.catch_ups);
      ("answers", c.answers);
      ("sent.est.r1", c.est_r1);
      ("sent.est.r2+", c.est_r2_plus);
      ("sent.prop.r1", c.prop_r1);
      ("sent.prop.r2+", c.prop_r2_plus);
      ("sent.ack", c.acks_sent);
      ("sent.decide", c.decides_sent);
    ]
  in
  Instances.handle t ~name:"ct" ~on_message ~on_suspect ~start
    ~announce:(Option.map (fun delay -> (delay, announce_est)) announce)
    ~counters
