module Pid = Ics_sim.Pid
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Failure_detector = Ics_fd.Failure_detector

type Message.payload +=
  | Kick of { k : int }  (* non-leader proposer nudges the leader *)
  | Prepare of { k : int; b : int }
  | Promise of { k : int; b : int; accepted : (int * Proposal.t) option }
  | Accept of { k : int; b : int; v : Proposal.t }
  | Accepted of { k : int; b : int }
  | Nack of { k : int; b : int; promised : int }
  | Decide of { k : int; v : Proposal.t }

(* Exact encoded body sizes (tag byte + fields + proposal, where carried).
   Ballot numbers and [promised] are shifted by one on the wire so the
   sentinel -1 fits an unsigned field. *)
let kick_bytes = 5
let prepare_bytes = 9
let promise_bytes = function
  | Some (_, v) -> 14 + Proposal.encoded_bytes v
  | None -> 10
let accept_bytes v = 9 + Proposal.encoded_bytes v
let accepted_bytes = 9
let nack_bytes = 13

let register_codec () =
  let module Codec = Ics_codec.Codec in
  let module Prim = Ics_codec.Prim in
  let module Rng = Ics_prelude.Rng in
  let gen_k rng = Rng.int rng 100 in
  let gen_b rng = Rng.int rng 16 in
  Codec.register ~tag:0x30 ~name:"lb.kick"
    ~fits:(function Kick _ -> true | _ -> false)
    ~size:(fun _ -> kick_bytes)
    ~encode_into:(fun w -> function Kick { k } -> Prim.u32 w k | _ -> assert false)
    ~dec:(fun rd -> Kick { k = Prim.r_u32 rd })
    ~gen:(fun rng -> Kick { k = gen_k rng });
  Codec.register ~tag:0x31 ~name:"lb.prepare"
    ~fits:(function Prepare _ -> true | _ -> false)
    ~size:(fun _ -> prepare_bytes)
    ~encode_into:(fun w -> function
      | Prepare { k; b } ->
          Prim.u32 w k;
          Prim.u32 w b
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Prepare { k; b = Prim.r_u32 rd })
    ~gen:(fun rng -> Prepare { k = gen_k rng; b = gen_b rng });
  Codec.register ~tag:0x32 ~name:"lb.promise"
    ~fits:(function Promise _ -> true | _ -> false)
    ~size:(function Promise { accepted; _ } -> promise_bytes accepted | _ -> assert false)
    ~encode_into:(fun w -> function
      | Promise { k; b; accepted } -> (
          Prim.u32 w k;
          Prim.u32 w b;
          match accepted with
          | Some (ab, v) ->
              Prim.bool w true;
              Prim.u32 w ab;
              Proposal.encode w v
          | None -> Prim.bool w false)
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let b = Prim.r_u32 rd in
      let accepted =
        if Prim.r_bool rd then begin
          let ab = Prim.r_u32 rd in
          Some (ab, Proposal.decode rd)
        end
        else None
      in
      Promise { k; b; accepted })
    ~gen:(fun rng ->
      Promise
        {
          k = gen_k rng;
          b = gen_b rng;
          accepted =
            (if Rng.bool rng then Some (gen_b rng, Proposal.gen rng) else None);
        });
  Codec.register ~tag:0x33 ~name:"lb.accept"
    ~fits:(function Accept _ -> true | _ -> false)
    ~size:(function Accept { v; _ } -> accept_bytes v | _ -> assert false)
    ~encode_into:(fun w -> function
      | Accept { k; b; v } ->
          Prim.u32 w k;
          Prim.u32 w b;
          Proposal.encode w v
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let b = Prim.r_u32 rd in
      Accept { k; b; v = Proposal.decode rd })
    ~gen:(fun rng -> Accept { k = gen_k rng; b = gen_b rng; v = Proposal.gen rng });
  Codec.register ~tag:0x34 ~name:"lb.accepted"
    ~fits:(function Accepted _ -> true | _ -> false)
    ~size:(fun _ -> accepted_bytes)
    ~encode_into:(fun w -> function
      | Accepted { k; b } ->
          Prim.u32 w k;
          Prim.u32 w b
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Accepted { k; b = Prim.r_u32 rd })
    ~gen:(fun rng -> Accepted { k = gen_k rng; b = gen_b rng });
  Codec.register ~tag:0x35 ~name:"lb.nack"
    ~fits:(function Nack _ -> true | _ -> false)
    ~size:(fun _ -> nack_bytes)
    ~encode_into:(fun w -> function
      | Nack { k; b; promised } ->
          Prim.u32 w k;
          Prim.u32 w b;
          Prim.u32 w (promised + 1)
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let b = Prim.r_u32 rd in
      Nack { k; b; promised = Prim.r_u32 rd - 1 })
    ~gen:(fun rng -> Nack { k = gen_k rng; b = gen_b rng; promised = Rng.int rng 16 - 1 });
  Codec.register ~tag:0x36 ~name:"lb.decide"
    ~fits:(function Decide _ -> true | _ -> false)
    ~size:(function Decide { v; _ } -> Instances.decide_bytes v | _ -> assert false)
    ~encode_into:(fun w -> function
      | Decide { k; v } ->
          Prim.u32 w k;
          Proposal.encode w v
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Decide { k; v = Proposal.decode rd })
    ~gen:(fun rng -> Decide { k = gen_k rng; v = Proposal.gen rng })

type leader_phase = Idle | Preparing | Accepting of Proposal.t

(* An instance's ballot state. *)
type state = {
  mutable promised : int;  (* highest ballot promised; -1 = none *)
  mutable accepted : (int * Proposal.t) option;
  mutable highest_seen : int;  (* highest ballot observed anywhere *)
  (* leader-side state for the ballot this process currently drives *)
  mutable my_ballot : int;  (* -1 = never initiated *)
  mutable phase : leader_phase;
  mutable promises : (int * Proposal.t) option list;
  mutable accepts : int;
}

let fresh () =
  {
    promised = -1;
    accepted = None;
    highest_seen = -1;
    my_ballot = -1;
    phase = Idle;
    promises = [];
    accepts = 0;
  }

(* Smallest ballot owned by [p] strictly greater than [above]. *)
let next_ballot ~n ~p ~above =
  let b0 = above + 1 in
  let off = (((p - b0) mod n) + n) mod n in
  b0 + off

let create transport fd (config : Instances.config) cb =
  let n = Transport.n transport in
  let majority = Quorum.majority ~n in
  let t =
    Instances.create transport fd config cb ~fresh ~settle:ignore
      ~decide:(fun k v -> Decide { k; v })
  in

  let start_ballot p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      let b = next_ballot ~n ~p ~above:(max s.highest_seen s.my_ballot) in
      s.my_ballot <- b;
      s.highest_seen <- max s.highest_seen b;
      s.promises <- [];
      s.accepts <- 0;
      if b = 0 then begin
        (* Nothing can have been accepted below ballot 0: go straight to
           the accept phase with our own estimate. *)
        s.phase <- Accepting inst.estimate;
        Instances.send_to_all t ~src:p ~body_bytes:(accept_bytes inst.estimate)
          (Accept { k = inst.k; b; v = inst.estimate })
      end
      else begin
        s.phase <- Preparing;
        Instances.send_to_all t ~src:p ~body_bytes:prepare_bytes (Prepare { k = inst.k; b })
      end
    end
  in

  (* Drive or delegate: leaders start a ballot, everyone else nudges the
     process they currently believe to be the leader. *)
  let engage p (inst : state Instances.inst) =
    if not inst.decided then begin
      let l = Failure_detector.leader fd ~observer:p in
      if Pid.equal l p then begin
        if inst.st.phase = Idle then start_ballot p inst
      end
      else Instances.send t ~src:p ~dst:l ~body_bytes:kick_bytes (Kick { k = inst.k })
    end
  in

  let leader_pick_value (inst : state Instances.inst) =
    let best =
      List.fold_left
        (fun acc promise ->
          match (acc, promise) with
          | None, p -> p
          | Some (ab, _), Some (pb, pv) when pb > ab -> Some (pb, pv)
          | acc, _ -> acc)
        None inst.st.promises
    in
    match best with Some (_, v) -> v | None -> inst.estimate
  in

  let on_message p ~src (payload : Message.payload) =
    match payload with
    | Kick { k } ->
        let inst = Instances.get_inst t ~start:engage p k in
        if Failure_detector.leader fd ~observer:p = p && inst.st.phase = Idle then
          start_ballot p inst
    | Prepare { k; b } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:engage p k in
        if not inst.decided then begin
          s.highest_seen <- max s.highest_seen b;
          if b >= s.promised then begin
            s.promised <- b;
            Instances.send t ~src:p ~dst:src ~body_bytes:(promise_bytes s.accepted)
              (Promise { k; b; accepted = s.accepted })
          end
          else
            Instances.send t ~src:p ~dst:src ~body_bytes:nack_bytes
              (Nack { k; b; promised = s.promised })
        end
    | Promise { k; b; accepted } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:engage p k in
        if (not inst.decided) && s.phase = Preparing && b = s.my_ballot then begin
          s.promises <- accepted :: s.promises;
          if List.length s.promises >= majority then begin
            let v = leader_pick_value inst in
            s.phase <- Accepting v;
            s.accepts <- 0;
            Instances.send_to_all t ~src:p ~body_bytes:(accept_bytes v) (Accept { k; b; v })
          end
        end
    | Accept { k; b; v } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:engage p k in
        if not inst.decided then begin
          s.highest_seen <- max s.highest_seen b;
          if b >= s.promised && Instances.rcv_holds t p v then begin
            s.promised <- b;
            s.accepted <- Some (b, v);
            Instances.send t ~src:p ~dst:src ~body_bytes:accepted_bytes (Accepted { k; b })
          end
          else
            Instances.send t ~src:p ~dst:src ~body_bytes:nack_bytes
              (Nack { k; b; promised = s.promised })
        end
    | Accepted { k; b } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:engage p k in
        (match s.phase with
        | Accepting v when (not inst.decided) && b = s.my_ballot ->
            s.accepts <- s.accepts + 1;
            if s.accepts >= majority then Instances.decide t p k v ~tell:(Instances.flood t p)
        | Accepting _ | Idle | Preparing -> ())
    | Nack { k; b; promised } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:engage p k in
        if (not inst.decided) && b = s.my_ballot && s.phase <> Idle then begin
          s.highest_seen <- max s.highest_seen promised;
          s.phase <- Idle;
          (* Retry while we still believe we lead; otherwise defer to the
             real leader (it will be kicked by the suspicion handler or by
             other proposers). *)
          if Failure_detector.leader fd ~observer:p = p then start_ballot p inst
        end
    | Decide { k; v } -> Instances.decide ~src t p k v ~tell:(Instances.flood ~src t p)
    | _ -> ()
  in

  (* Leadership changes: every undecided instance re-engages. *)
  let on_fd_change p _target =
    Instances.iter t p (fun inst -> if not inst.decided then engage p inst)
  in
  List.iter
    (fun p ->
      Failure_detector.on_trust fd ~observer:p (fun q ->
          Instances.step t p (fun () -> on_fd_change p q)))
    (Pid.all ~n);
  Instances.handle t ~name:"lb" ~on_message ~on_suspect:on_fd_change ~start:engage
    ~announce:None ~counters:(fun () -> [])
