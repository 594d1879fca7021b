module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Host = Ics_net.Host
module Failure_detector = Ics_fd.Failure_detector

(* One message type per round: every process (coordinator included)
   broadcasts its [est_from_c] — the coordinator's value, or ⊥.  The
   coordinator's own broadcast doubles as its Phase-1 proposal, exactly as
   in Algorithm 3 where line 20's send is shared by all processes. *)
type Message.payload +=
  | Relay of { k : int; r : int; est : Proposal.t option }
  | Decide of { k : int; est : Proposal.t }
  | Nudge of { k : int; est : Proposal.t }
      (* a round-1 non-coordinator proposer waking the coordinator (the
         batched/pipelined proposers of an instance may not include it);
         carries the proposer's estimate so a coordinator with nothing
         fresh of its own seeds the instance with it instead of an empty
         set *)

type config = { layer : string; rcv : Consensus_intf.rcv option }

type inst = {
  k : int;
  mutable estimate : Proposal.t;
  mutable r : int;
  mutable waiting_prop : bool;  (* Phase 1, non-coordinator *)
  mutable in_phase2 : bool;
  mutable decided : bool;
  relay_in : (int, (Pid.t * Proposal.t option) list ref) Hashtbl.t;
}

(* [undecided]: instances this process holds that have not decided. *)
type proc = { pid : Pid.t; instances : (int, inst) Hashtbl.t; mutable undecided : int }

let get_list tbl key =
  match Hashtbl.find_opt tbl key with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add tbl key l;
      l

(* Exact encoded body sizes (tag byte + fields + optional proposal). *)
let relay_bytes = function
  | Some est -> 10 + Proposal.encoded_bytes est
  | None -> 10

let decide_bytes est = 5 + Proposal.encoded_bytes est
let nudge_bytes est = 5 + Proposal.encoded_bytes est

let register_codec () =
  let module Codec = Ics_codec.Codec in
  let module Prim = Ics_codec.Prim in
  let module Rng = Ics_prelude.Rng in
  Codec.register ~tag:0x28 ~name:"mr.relay"
    ~fits:(function Relay _ -> true | _ -> false)
    ~size:(function Relay { est; _ } -> relay_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Relay { k; r; est } -> (
          Prim.u32 w k;
          Prim.u32 w r;
          match est with
          | Some e ->
              Prim.bool w true;
              Proposal.encode w e
          | None -> Prim.bool w false)
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      let r = Prim.r_u32 rd in
      let est = if Prim.r_bool rd then Some (Proposal.decode rd) else None in
      Relay { k; r; est })
    ~gen:(fun rng ->
      Relay
        {
          k = Rng.int rng 100;
          r = 1 + Rng.int rng 8;
          est = (if Rng.bool rng then Some (Proposal.gen rng) else None);
        });
  Codec.register ~tag:0x29 ~name:"mr.decide"
    ~fits:(function Decide _ -> true | _ -> false)
    ~size:(function Decide { est; _ } -> decide_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Decide { k; est } ->
          Prim.u32 w k;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Decide { k; est = Proposal.decode rd })
    ~gen:(fun rng -> Decide { k = Rng.int rng 100; est = Proposal.gen rng });
  Codec.register ~tag:0x2A ~name:"mr.nudge"
    ~fits:(function Nudge _ -> true | _ -> false)
    ~size:(function Nudge { est; _ } -> nudge_bytes est | _ -> assert false)
    ~encode_into:(fun w -> function
      | Nudge { k; est } ->
          Prim.u32 w k;
          Proposal.encode w est
      | _ -> assert false)
    ~dec:(fun rd ->
      let k = Prim.r_u32 rd in
      Nudge { k; est = Proposal.decode rd })
    ~gen:(fun rng -> Nudge { k = Rng.int rng 100; est = Proposal.gen rng })

let create ?(announce = false) transport fd config (cb : Consensus_intf.callbacks) =
  let engine = Transport.engine transport in
  let host = Transport.host transport in
  let n = Transport.n transport in
  let quorum =
    match config.rcv with
    | None -> Quorum.majority ~n
    | Some _ -> Quorum.two_thirds ~n
  in
  let adoption_threshold = Quorum.one_third ~n in
  let layer = Transport.intern transport config.layer in
  let procs =
    Array.init n (fun pid -> { pid; instances = Hashtbl.create 16; undecided = 0 })
  in

  let rcv_holds p (est : Proposal.t) =
    match config.rcv with
    | None -> true
    | Some rcv ->
        let ids = Proposal.ids est in
        Transport.charge_cpu transport p (Host.rcv_check_cost host ~ids:(List.length ids));
        rcv p ids
  in

  let decide_flood p inst est ~relay_from =
    if not inst.decided then begin
      inst.decided <- true;
      procs.(p).undecided <- procs.(p).undecided - 1;
      inst.waiting_prop <- false;
      inst.in_phase2 <- false;
      let dsts =
        List.filter
          (fun q -> match relay_from with Some src -> not (Pid.equal q src) | None -> true)
          (Pid.others ~n p)
      in
      Transport.multicast transport ~src:p ~dsts ~layer
        ~body_bytes:(decide_bytes est) (Decide { k = inst.k; est });
      Engine.record engine p (Trace.Decide (inst.k, Proposal.ids est));
      cb.on_decide p inst.k est
    end
  in

  (* Phase 2: with a quorum of relays in hand, decide on unanimity, adopt on
     a mixed round (guarded in the indirect variant), and move on. *)
  let rec check_phase2 p inst =
    if inst.in_phase2 && not inst.decided then begin
      let relays = !(get_list inst.relay_in inst.r) in
      if List.length relays >= quorum then begin
        inst.in_phase2 <- false;
        let valids = List.filter_map (fun (_, e) -> e) relays in
        let bots = List.length relays - List.length valids in
        match valids with
        | [] -> advance_round p inst
        | v :: _ ->
            (* All valid relays of a round carry the same coordinator
               value, so inspecting the first is enough. *)
            if bots = 0 then begin
              inst.estimate <- v;
              decide_flood p inst v ~relay_from:None
            end
            else begin
              (* Algorithm 3 line 28: adopt v iff rcv(v) holds or v was
                 seen ⌈(n+1)/3⌉ times; the original adopts unconditionally. *)
              let adopt =
                match config.rcv with
                | None -> true
                | Some _ -> List.length valids >= adoption_threshold || rcv_holds p v
              in
              if adopt then inst.estimate <- v;
              advance_round p inst
            end
      end
    end

  (* End of Phase 1 at a non-coordinator: relay the coordinator's value, or
     ⊥ if the coordinator is suspected or (indirect) its payloads are
     missing. *)
  and finish_phase1 p inst (est_from_c : Proposal.t option) =
    if inst.waiting_prop then begin
      inst.waiting_prop <- false;
      let contribution =
        match est_from_c with
        | Some est when rcv_holds p est -> Some est
        | Some _ | None -> None
      in
      Transport.send_to_all transport ~src:p ~layer ~body_bytes:(relay_bytes contribution)
        (Relay { k = inst.k; r = inst.r; est = contribution });
      inst.in_phase2 <- true;
      check_phase2 p inst
    end

  and start_round p inst =
    if not inst.decided then begin
      let c = Pid.coordinator ~n ~round:inst.r in
      if Pid.equal p c then begin
        (* The coordinator's relay of its own estimate is the proposal.  It
           trivially holds its own value's payloads: an estimate becomes
           one's own only through rcv or as the initial proposal. *)
        Transport.send_to_all transport ~src:p ~layer
          ~body_bytes:(relay_bytes (Some inst.estimate))
          (Relay { k = inst.k; r = inst.r; est = Some inst.estimate });
        inst.waiting_prop <- false;
        inst.in_phase2 <- true;
        check_phase2 p inst
      end
      else begin
        inst.waiting_prop <- true;
        (* The coordinator's relay may already be buffered if p lags. *)
        let buffered = !(get_list inst.relay_in inst.r) in
        match List.find_opt (fun (q, _) -> Pid.equal q c) buffered with
        | Some (_, est) -> finish_phase1 p inst est
        | None ->
            if Failure_detector.is_suspected fd ~by:p c then finish_phase1 p inst None
      end
    end

  and advance_round p inst =
    if not inst.decided then begin
      inst.r <- inst.r + 1;
      inst.waiting_prop <- false;
      inst.in_phase2 <- false;
      start_round p inst
    end
  in

  let new_instance p k estimate =
    let inst =
      {
        k;
        estimate;
        r = 1;
        waiting_prop = false;
        in_phase2 = false;
        decided = false;
        relay_in = Hashtbl.create 8;
      }
    in
    Hashtbl.add procs.(p).instances k inst;
    procs.(p).undecided <- procs.(p).undecided + 1;
    Engine.record engine p (Trace.Propose (k, Proposal.ids estimate));
    inst
  in

  let get_inst p k =
    match Hashtbl.find_opt procs.(p).instances k with
    | Some inst -> inst
    | None ->
        let inst = new_instance p k (cb.join p k) in
        start_round p inst;
        inst
  in

  let on_message p (msg : Message.t) =
    match msg.payload with
    | Relay { k; r; est } ->
        let inst = get_inst p k in
        if (not inst.decided) && r >= inst.r then begin
          let l = get_list inst.relay_in r in
          l := (msg.src, est) :: !l;
          if r = inst.r then begin
            let c = Pid.coordinator ~n ~round:inst.r in
            if inst.waiting_prop && Pid.equal msg.src c then finish_phase1 p inst est
            else check_phase2 p inst
          end
        end
    | Decide { k; est } ->
        let inst =
          match Hashtbl.find_opt procs.(p).instances k with
          | Some inst -> inst
          | None -> new_instance p k est
        in
        decide_flood p inst est ~relay_from:(Some msg.src)
    | Nudge { k; est } ->
        (* Joining is the point: a nudged coordinator starts round 1 and
           relays its estimate, giving the instance its first traffic.
           When the AB layer's join value is empty (everything fresh is
           already inflight elsewhere), seed with the announced estimate —
           the receivers' rcv guards still protect No-loss even though
           this coordinator may not hold those payloads yet. *)
        if not (Hashtbl.mem procs.(p).instances k) then begin
          let own = cb.join p k in
          let inst =
            new_instance p k (if Proposal.is_empty own then est else own)
          in
          start_round p inst
        end
    | _ -> ()
  in

  let on_suspect p suspect =
    (* Key-sorted: bucket-order iteration would make the phase-1 finish
       order — and hence the trace — depend on hashing internals. *)
    Ics_prelude.Sorted_tbl.iter ~cmp:Int.compare
      (fun _ inst ->
        if
          (not inst.decided) && inst.waiting_prop
          && Pid.equal (Pid.coordinator ~n ~round:inst.r) suspect
        then finish_phase1 p inst None)
      procs.(p).instances
  in

  List.iter
    (fun p ->
      Transport.register transport p ~layer (on_message p);
      Failure_detector.on_suspect fd ~observer:p (on_suspect p))
    (Pid.all ~n);

  let propose p k value =
    if Engine.is_alive engine p && not (Hashtbl.mem procs.(p).instances k) then begin
      let inst = new_instance p k value in
      start_round p inst;
      (* Same liveness hole as CT's round 1: a non-coordinator proposer
         sends nothing until the coordinator's relay arrives, and under
         batching / pipelining the coordinator may never propose this
         instance itself.  Announce with a nudge (LB's Kick, ported).
         Off by default to keep the unbatched traffic — and the pinned
         replay fingerprints — byte-identical. *)
      if announce && (not inst.decided) && inst.r = 1 then begin
        let c = Pid.coordinator ~n ~round:1 in
        if not (Pid.equal p c) then
          Transport.send transport ~src:p ~dst:c ~layer
            ~body_bytes:(nudge_bytes inst.estimate)
            (Nudge { k; est = inst.estimate })
      end
    end
  in
  let has_instance p k = Hashtbl.mem procs.(p).instances k in
  let undecided p = procs.(p).undecided in
  let name = match config.rcv with None -> "mr" | Some _ -> "mr-indirect" in
  { Consensus_intf.name; propose; has_instance; undecided; counters = (fun () -> []) }
