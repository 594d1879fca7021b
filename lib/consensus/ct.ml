module Pid = Ics_sim.Pid
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Failure_detector = Ics_fd.Failure_detector

(* [Est.suspicion]: the sender left round [r - 1] on suspecting its
   coordinator, not on that round's phase-4 outcome.  [Ack] is a phase-3
   reply, sent to every other process: [ok] tells an ack from a nack, and
   [est] is the sender's estimate once it replied — on an ack, the round's
   proposal. *)
type Message.payload +=
  | Est of { k : int; r : int; est : Proposal.t; ts : int; suspicion : bool }
  | Prop of { k : int; r : int; est : Proposal.t }
  | Ack of { k : int; r : int; ok : bool; est : Proposal.t }
  | Decide of { k : int; est : Proposal.t }

(* Exact encoded body sizes (tag byte + fields + proposal). *)
let est_bytes est = 14 + Proposal.encoded_bytes est
let prop_bytes est = 9 + Proposal.encoded_bytes est
let ack_bytes est = 10 + Proposal.encoded_bytes est

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
    ~size:(function Ack { est; _ } -> ack_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Ack { k; r; ok; est } ->
          Prim.u32 w k;
          Prim.u32 w r;
          Prim.bool w ok;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let r = Prim.r_u32 rd in
      let ok = Prim.r_bool rd in
      Ack { k; r; ok; est = Proposal.decode rd })
    ~gen:(fun rng ->
      Ack { k = gen_k rng; r = gen_r rng; ok = Rng.bool rng; est = Proposal.gen rng });
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

(* An instance's round state; its [estimate] is estimate_p. *)
type state = {
  mutable ts : int;
  mutable r : int;
  mutable collecting : bool;  (* Phase 2, r > 1: the coordinator gathering estimates *)
  mutable waiting_prop : bool;  (* Phase 3 *)
  est_in : (int, (Pid.t * int * Proposal.t) list ref) Hashtbl.t;
      (* round -> phase-1 estimates, one per sender *)
  prop_in : (int, Proposal.t) Hashtbl.t;
  replies_in : (int, replies) Hashtbl.t;  (* round -> phase-3 replies *)
  mutable prop_out : (int * Proposal.t) list;
      (* round (> 1) -> own proposal, answered to a late estimate *)
  mutable quorum : Pid.t list;
      (* once decided: the processes whose acks it decided on (the sender,
         for a decision received), until it has told everyone or heard
         every process ack that round *)
  mutable quorum_round : int;  (* the round of those acks; 0 for a decision received *)
}

(* A round's phase-3 replies as one process has them, one per sender: a
   duplicate reply is not counted.  Round 1's proposal is its
   coordinator's ack.  [value] is the round's proposal once an ack is in. *)
and replies = {
  replied : bool array;
  mutable acks : int;
  mutable ackers : Pid.t list;
  mutable value : Proposal.t;
}

(* The handle's counters, all processes summed (a live node's handle runs
   one); ct.mli says what each counts. *)
type counters = {
  mutable round1 : int;
  mutable round2 : int;
  mutable round3_plus : int;
  mutable nacks : int;
  mutable catch_ups : int;
  mutable late_props : int;
  mutable answers : int;
  mutable tells : int;
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
    collecting = false;
    waiting_prop = false;
    est_in = Hashtbl.create 8;
    prop_in = Hashtbl.create 8;
    replies_in = Hashtbl.create 8;
    prop_out = [];
    quorum = [];
    quorum_round = 0;
  }

(* A decided process sends no round message, and answers a late one with
   its decision. *)
let settle s =
  s.waiting_prop <- false;
  s.collecting <- false;
  s.prop_out <- []

let replies n = { replied = Array.make n false; acks = 0; ackers = []; value = Proposal.empty }

(* Counts [q]'s reply; false for a duplicate. *)
let record rs q ~ok ~est =
  if rs.replied.(q) then false
  else begin
    rs.replied.(q) <- true;
    if ok then begin
      rs.acks <- rs.acks + 1;
      rs.ackers <- q :: rs.ackers;
      rs.value <- est
    end;
    true
  end

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
      nacks = 0;
      catch_ups = 0;
      late_props = 0;
      answers = 0;
      tells = 0;
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
  let suspected p q = Failure_detector.is_suspected fd ~by:p q in

  (* The suspicion rule: a decided process whose quorum has lost a member
     to a suspicion tells every process it has not told yet.  Until then
     each correct process gets the quorum's acks and decides on its own. *)
  let tell_all p ({ Instances.st = s; _ } as inst) =
    s.quorum <- [];
    counters.tells <- counters.tells + Instances.tell t p inst (Pid.others ~n p)
  in
  let watch p ({ Instances.st = s; _ } as inst) =
    if List.exists (suspected p) s.quorum then tell_all p inst
  in

  (* A round message from a process that has not decided. *)
  let answer p inst ~src = counters.answers <- counters.answers + Instances.tell t p inst [ src ] in

  (* Phase 4, at every process: decide round [r]'s value on a majority of
     its acks, whatever round the process is in.  In its current round it
     gives up once a majority of acks is out of reach: when the acks so
     far plus the silent processes it does not suspect fall short of
     one.  Nacks and suspicions shrink that bound, so it is re-evaluated
     on each reply and on each new suspicion; a round no reply has
     reached yet is never given up here, so a process that suspects a
     majority does not run through rounds on no message at all. *)
  let rec check_round p ({ Instances.st = s; _ } as inst) r =
    if not inst.decided then
      match Hashtbl.find_opt s.replies_in r with
      | None -> ()
      | Some rs ->
          if rs.acks >= majority then begin
            (match r with
            | 1 -> counters.round1 <- counters.round1 + 1
            | 2 -> counters.round2 <- counters.round2 + 1
            | _ -> counters.round3_plus <- counters.round3_plus + 1);
            s.quorum <- (if rs.acks = n then [] else rs.ackers);
            s.quorum_round <- r;
            Instances.decide t p inst.k rs.value ~tell:[];
            watch p inst
          end
          else if r = s.r then begin
            let pending =
              List.fold_left
                (fun c q -> if rs.replied.(q) || suspected p q then c else c + 1)
                0 (Pid.all ~n)
            in
            if rs.acks + pending < majority then leave_round p inst
          end

  (* Phase 3 reply to round [r], to every other process; the process
     counts its own at once. *)
  and reply p ({ Instances.st = s; _ } as inst) ~r ~ok =
    if not ok then counters.nacks <- counters.nacks + 1;
    let est = inst.estimate in
    ignore (record (Instances.find_or_add s.replies_in r replies n) p ~ok ~est : bool);
    Instances.multicast t ~src:p ~dsts:(Pid.others ~n p) ~body_bytes:(ack_bytes est)
      (Ack { k = inst.k; r; ok; est });
    check_round p inst r

  (* Phase 2, rounds > 1: with a majority of estimates in hand, propose
     one carrying the largest timestamp — to the senders of those
     estimates only — and take it through phase 3 at once.  Every other
     process that enters the round sends its estimate here too and is
     answered with the recorded proposal (the [Est] handler), so a process
     that has decided or moved on is not sent a frame it would drop. *)
  and check_estimates p ({ Instances.st = s; _ } as inst) =
    if s.collecting then begin
      let ests = !(Instances.find_or_add s.est_in s.r ref []) in
      if List.length ests >= majority then begin
        let _, _, best =
          List.fold_left
            (fun ((_, bts, _) as acc) ((_, ts, _) as e) -> if ts > bts then e else acc)
            (List.hd ests) (List.tl ests)
        in
        s.collecting <- false;
        s.prop_out <- (s.r, best) :: s.prop_out;
        Instances.multicast t ~src:p
          ~dsts:(List.filter (fun q -> (not (Pid.equal q p)) && holds_est ests q) (Pid.all ~n))
          ~body_bytes:(prop_bytes best)
          (Prop { k = inst.k; r = s.r; est = best });
        s.waiting_prop <- true;
        handle_prop p inst best
      end
    end

  (* Phase 3: adopt the proposal where [rcv] holds it (always, in the
     original variant) and ack it; nack it otherwise.  The process stays
     in the round for its outcome. *)
  and handle_prop p ({ Instances.st = s; _ } as inst) (est : Proposal.t) =
    if s.waiting_prop then begin
      s.waiting_prop <- false;
      let ok = Instances.rcv_holds t p est in
      if ok then begin
        inst.estimate <- est;
        s.ts <- s.r
      end;
      reply p inst ~r:s.r ~ok
    end

  and enter_phase3 p ({ Instances.st = s; _ } as inst) =
    s.waiting_prop <- true;
    match Hashtbl.find_opt s.prop_in s.r with
    | Some est -> handle_prop p inst est
    | None ->
        if suspected p (Pid.coordinator ~n ~round:s.r) then leave_round ~suspicion:true p inst

  and start_round ?(suspicion = false) p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      let r = s.r in
      let c = Pid.coordinator ~n ~round:r in
      (* Phase 1: send the timestamped estimate to the coordinator. *)
      if r > 1 then
        Instances.send t ~src:p ~dst:c ~body_bytes:(est_bytes inst.estimate)
          (Est { k = inst.k; r; est = inst.estimate; ts = s.ts; suspicion });
      if not (Pid.equal p c) then enter_phase3 p inst
      else if r = 1 then begin
        (* First round: the coordinator proposes its own estimate without
           gathering (Algorithm 2 line 20) and adopts it, stamped 1, in
           the same step, so the proposal is its ack.  The estimate is its
           own, so [rcv] holds. *)
        s.ts <- 1;
        ignore (record (Instances.find_or_add s.replies_in 1 replies n) p ~ok:true
                  ~est:inst.estimate : bool);
        Instances.multicast t ~src:p ~dsts:(Pid.others ~n p)
          ~body_bytes:(prop_bytes inst.estimate)
          (Prop { k = inst.k; r = 1; est = inst.estimate })
      end
      else begin
        s.collecting <- true;
        check_estimates p inst
      end;
      (* Replies may already be buffered if this process lags behind. *)
      check_round p inst r
    end

  (* Leave the current round for the next, nacking it if the process has
     not replied yet.  The new round's destinations are queued first, so
     their frames leave this CPU ahead of the nack; a suspected
     coordinator's goes last anyway. *)
  and leave_round ?suspicion p ({ Instances.st = s; _ } as inst) =
    let r = s.r in
    let replied =
      match Hashtbl.find_opt s.replies_in r with Some rs -> rs.replied.(p) | None -> false
    in
    s.r <- r + 1;
    s.collecting <- false;
    s.waiting_prop <- false;
    start_round ?suspicion p inst;
    if not (replied || inst.decided) then reply p inst ~r ~ok:false
  in
  let start p inst = start_round p inst in

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
              counters.late_props <- counters.late_props + 1;
              Instances.send t ~src:p ~dst:src ~body_bytes:(prop_bytes value)
                (Prop { k; r; est = value })
          | None ->
              if r >= s.r then begin
                let l = Instances.find_or_add s.est_in r ref [] in
                (* One estimate per sender: a duplicated frame is not a vote. *)
                if not (holds_est !l src) then begin
                  l := (src, ts, est) :: !l;
                  if r = s.r then check_estimates p inst
                  else if
                    (* Catch-up: the sender gave the current round up on
                       suspecting its coordinator, so that coordinator has
                       lost a vote; a non-coordinator still waiting for its
                       proposal follows the sender into the next round,
                       which this process coordinates.  Only on a suspicion:
                       a sender that left on the round's outcome leaves the
                       coordinator alive and able to decide with this
                       process's ack.  Only the next round: this process
                       has sent every estimate up to its current round, and
                       skipping a round would withhold that round's from its
                       coordinator. *)
                    suspicion && s.waiting_prop && r = s.r + 1
                    && not (Pid.equal p (Pid.coordinator ~n ~round:s.r))
                  then begin
                    counters.catch_ups <- counters.catch_ups + 1;
                    leave_round ~suspicion:true p inst
                  end
                end
              end)
    | Prop { k; r; est } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start p k in
        if inst.decided then answer p inst ~src
        else begin
          (* Round 1's proposal is its coordinator's ack. *)
          let acked =
            r = 1 && record (Instances.find_or_add s.replies_in 1 replies n) src ~ok:true ~est
          in
          if r >= s.r then begin
            Hashtbl.replace s.prop_in r est;
            if r = s.r then handle_prop p inst est
          end;
          if acked then check_round p inst 1
        end
    | Ack { k; r; ok; est } ->
        (* A process that first hears of the instance here joins seeded
           with the sender's estimate where [rcv] holds it, as on an
           announce. *)
        let ({ Instances.st = s; _ } as inst) = Instances.join_announced t ~start p k est in
        if not inst.decided then begin
          if record (Instances.find_or_add s.replies_in r replies n) src ~ok ~est then
            check_round p inst r
        end
        else if r = s.quorum_round && s.quorum <> [] then begin
          let rs = Instances.find_or_add s.replies_in r replies n in
          if record rs src ~ok ~est && rs.acks = n then
            (* Every process acked the decided round: each correct one
               holds a majority of its acks, or will, and needs no
               telling. *)
            s.quorum <- []
        end
    | Decide { k; est } -> (
        match Instances.find t p k with
        | Some { decided = true; _ } -> ()
        | Some _ | None ->
            Instances.decide ~src t p k est ~tell:[];
            Option.iter
              (fun ({ Instances.st = s; _ } as inst) ->
                s.quorum <- [ src ];
                watch p inst)
              (Instances.find t p k))
    | _ -> ()
  in

  (* The nacks to the suspect leave after every other frame of the step
     (the outbox sends a suspect's frame last). *)
  let on_suspect p suspect =
    Instances.iter t p (fun ({ Instances.st = s; _ } as inst) ->
        if inst.decided then (if List.mem suspect s.quorum then tell_all p inst)
        else if Pid.equal (Pid.coordinator ~n ~round:s.r) suspect then
          leave_round ~suspicion:true p inst
        else
          (* A silent replier that is now suspected may have put a
             majority of acks out of reach. *)
          check_round p inst s.r)
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
      ("nacks", c.nacks);
      ("catch_ups", c.catch_ups);
      ("late_props", c.late_props);
      ("answers", c.answers);
      ("tells", c.tells);
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
