module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Host = Ics_net.Host
module Failure_detector = Ics_fd.Failure_detector

type Message.payload +=
  | Kick of { k : int }  (* non-leader proposer nudges the leader *)
  | Prepare of { k : int; b : int }
  | Promise of { k : int; b : int; accepted : (int * Proposal.t) option }
  | Accept of { k : int; b : int; v : Proposal.t }
  | Accepted of { k : int; b : int }
  | Nack of { k : int; b : int; promised : int }
  | Decide of { k : int; v : Proposal.t }

type config = { layer : string; rcv : Consensus_intf.rcv option }

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
let decide_bytes v = 5 + Proposal.encoded_bytes v

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
    ~size:(function Decide { v; _ } -> decide_bytes v | _ -> assert false)
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

type inst = {
  k : int;
  mutable estimate : Proposal.t;
  mutable promised : int;  (* highest ballot promised; -1 = none *)
  mutable accepted : (int * Proposal.t) option;
  mutable decided : bool;
  mutable highest_seen : int;  (* highest ballot observed anywhere *)
  (* leader-side state for the ballot this process currently drives *)
  mutable my_ballot : int;  (* -1 = never initiated *)
  mutable phase : leader_phase;
  mutable promises : (int * Proposal.t) option list;
  mutable accepts : int;
}

(* [undecided]: instances this process holds that have not decided. *)
type proc = { pid : Pid.t; instances : (int, inst) Hashtbl.t; mutable undecided : int }

(* Smallest ballot owned by [p] strictly greater than [above]. *)
let next_ballot ~n ~p ~above =
  let b0 = above + 1 in
  let off = (((p - b0) mod n) + n) mod n in
  b0 + off

let create transport fd config (cb : Consensus_intf.callbacks) =
  let engine = Transport.engine transport in
  let host = Transport.host transport in
  let n = Transport.n transport in
  let majority = Quorum.majority ~n in
  let layer = Transport.intern transport config.layer in
  let procs =
    Array.init n (fun pid -> { pid; instances = Hashtbl.create 16; undecided = 0 })
  in

  let send ~src ~dst ~bytes payload =
    Transport.send transport ~src ~dst ~layer ~body_bytes:bytes payload
  in
  let send_all ~src ~bytes payload =
    Transport.send_to_all transport ~src ~layer ~body_bytes:bytes payload
  in

  let rcv_holds p (v : Proposal.t) =
    match config.rcv with
    | None -> true
    | Some rcv ->
        let ids = Proposal.ids v in
        Transport.charge_cpu transport p (Host.rcv_check_cost host ~ids:(List.length ids));
        rcv p ids
  in

  let decide_flood p inst v ~relay_from =
    if not inst.decided then begin
      inst.decided <- true;
      procs.(p).undecided <- procs.(p).undecided - 1;
      inst.phase <- Idle;
      let dsts =
        List.filter
          (fun q -> match relay_from with Some src -> not (Pid.equal q src) | None -> true)
          (Pid.others ~n p)
      in
      Transport.multicast transport ~src:p ~dsts ~layer
        ~body_bytes:(decide_bytes v) (Decide { k = inst.k; v });
      Engine.record engine p (Trace.Decide (inst.k, Proposal.ids v));
      cb.on_decide p inst.k v
    end
  in

  let start_ballot p inst =
    if not inst.decided then begin
      let b = next_ballot ~n ~p ~above:(max inst.highest_seen inst.my_ballot) in
      inst.my_ballot <- b;
      inst.highest_seen <- max inst.highest_seen b;
      inst.promises <- [];
      inst.accepts <- 0;
      if b = 0 then begin
        (* Nothing can have been accepted below ballot 0: go straight to
           the accept phase with our own estimate. *)
        inst.phase <- Accepting inst.estimate;
        send_all ~src:p ~bytes:(accept_bytes inst.estimate)
          (Accept { k = inst.k; b; v = inst.estimate })
      end
      else begin
        inst.phase <- Preparing;
        send_all ~src:p ~bytes:prepare_bytes (Prepare { k = inst.k; b })
      end
    end
  in

  let new_instance p k estimate =
    let inst =
      {
        k;
        estimate;
        promised = -1;
        accepted = None;
        decided = false;
        highest_seen = -1;
        my_ballot = -1;
        phase = Idle;
        promises = [];
        accepts = 0;
      }
    in
    Hashtbl.add procs.(p).instances k inst;
    procs.(p).undecided <- procs.(p).undecided + 1;
    Engine.record engine p (Trace.Propose (k, Proposal.ids estimate));
    inst
  in

  (* Drive or delegate: leaders start a ballot, everyone else nudges the
     process they currently believe to be the leader. *)
  let engage p inst =
    if not inst.decided then begin
      let l = Failure_detector.leader fd ~observer:p in
      if Pid.equal l p then begin
        if inst.phase = Idle then start_ballot p inst
      end
      else send ~src:p ~dst:l ~bytes:kick_bytes (Kick { k = inst.k })
    end
  in

  let get_inst p k =
    match Hashtbl.find_opt procs.(p).instances k with
    | Some inst -> inst
    | None ->
        let inst = new_instance p k (cb.join p k) in
        engage p inst;
        inst
  in

  let leader_pick_value inst =
    let best =
      List.fold_left
        (fun acc promise ->
          match (acc, promise) with
          | None, p -> p
          | Some (ab, _), Some (pb, pv) when pb > ab -> Some (pb, pv)
          | acc, _ -> acc)
        None inst.promises
    in
    match best with Some (_, v) -> v | None -> inst.estimate
  in

  let on_message p (msg : Message.t) =
    match msg.payload with
    | Kick { k } ->
        let inst = get_inst p k in
        if Failure_detector.leader fd ~observer:p = p && inst.phase = Idle then
          start_ballot p inst
    | Prepare { k; b } ->
        let inst = get_inst p k in
        if not inst.decided then begin
          inst.highest_seen <- max inst.highest_seen b;
          if b >= inst.promised then begin
            inst.promised <- b;
            send ~src:p ~dst:msg.src ~bytes:(promise_bytes inst.accepted)
              (Promise { k; b; accepted = inst.accepted })
          end
          else
            send ~src:p ~dst:msg.src ~bytes:nack_bytes
              (Nack { k; b; promised = inst.promised })
        end
    | Promise { k; b; accepted } ->
        let inst = get_inst p k in
        if (not inst.decided) && inst.phase = Preparing && b = inst.my_ballot then begin
          inst.promises <- accepted :: inst.promises;
          if List.length inst.promises >= majority then begin
            let v = leader_pick_value inst in
            inst.phase <- Accepting v;
            inst.accepts <- 0;
            send_all ~src:p ~bytes:(accept_bytes v) (Accept { k; b; v })
          end
        end
    | Accept { k; b; v } ->
        let inst = get_inst p k in
        if not inst.decided then begin
          inst.highest_seen <- max inst.highest_seen b;
          if b >= inst.promised && rcv_holds p v then begin
            inst.promised <- b;
            inst.accepted <- Some (b, v);
            send ~src:p ~dst:msg.src ~bytes:accepted_bytes (Accepted { k; b })
          end
          else
            send ~src:p ~dst:msg.src ~bytes:nack_bytes
              (Nack { k; b; promised = inst.promised })
        end
    | Accepted { k; b } ->
        let inst = get_inst p k in
        (match inst.phase with
        | Accepting v when (not inst.decided) && b = inst.my_ballot ->
            inst.accepts <- inst.accepts + 1;
            if inst.accepts >= majority then decide_flood p inst v ~relay_from:None
        | Accepting _ | Idle | Preparing -> ())
    | Nack { k; b; promised } ->
        let inst = get_inst p k in
        if (not inst.decided) && b = inst.my_ballot && inst.phase <> Idle then begin
          inst.highest_seen <- max inst.highest_seen promised;
          inst.phase <- Idle;
          (* Retry while we still believe we lead; otherwise defer to the
             real leader (it will be kicked by the suspicion handler or by
             other proposers). *)
          if Failure_detector.leader fd ~observer:p = p then start_ballot p inst
        end
    | Decide { k; v } ->
        let inst =
          match Hashtbl.find_opt procs.(p).instances k with
          | Some inst -> inst
          | None -> new_instance p k v
        in
        decide_flood p inst v ~relay_from:(Some msg.src)
    | _ -> ()
  in

  (* Leadership changes: every undecided instance re-engages. *)
  let on_fd_change p _target =
    (* Key-sorted: the re-engage order is visible in the trace. *)
    Ics_prelude.Sorted_tbl.iter ~cmp:Int.compare
      (fun _ inst -> if not inst.decided then engage p inst)
      procs.(p).instances
  in

  List.iter
    (fun p ->
      Transport.register transport p ~layer (on_message p);
      Failure_detector.on_suspect fd ~observer:p (on_fd_change p);
      Failure_detector.on_trust fd ~observer:p (on_fd_change p))
    (Pid.all ~n);

  let propose p k value =
    if Engine.is_alive engine p && not (Hashtbl.mem procs.(p).instances k) then begin
      let inst = new_instance p k value in
      engage p inst
    end
  in
  let has_instance p k = Hashtbl.mem procs.(p).instances k in
  let undecided p = procs.(p).undecided in
  let name = match config.rcv with None -> "lb" | Some _ -> "lb-indirect" in
  { Consensus_intf.name; propose; has_instance; undecided; counters = (fun () -> []) }
