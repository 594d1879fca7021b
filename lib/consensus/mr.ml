module Pid = Ics_sim.Pid
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Failure_detector = Ics_fd.Failure_detector

(* One message type per round: every process (coordinator included)
   broadcasts its [est_from_c] — the coordinator's value, or ⊥.  The
   coordinator's own broadcast doubles as its Phase-1 proposal, exactly as
   in Algorithm 3 where line 20's send is shared by all processes. *)
type Message.payload +=
  | Relay of { k : int; r : int; est : Proposal.t option }
  | Decide of { k : int; est : Proposal.t }
  | Nudge of { k : int; est : Proposal.t }
      (* a round-1 non-coordinator proposer that has not heard from the
         coordinator telling every process of the instance (the
         batched/pipelined proposers of an instance may not include the
         coordinator, which may also have crashed); carries the
         proposer's estimate so a joiner with nothing fresh of its own
         seeds the instance with it instead of an empty set *)

(* An instance's round state. *)
type state = {
  mutable r : int;
  mutable waiting_prop : bool;  (* Phase 1, non-coordinator *)
  mutable in_phase2 : bool;
  relay_in : (int, (Pid.t * Proposal.t option) list ref) Hashtbl.t;
}

let fresh () =
  { r = 1; waiting_prop = false; in_phase2 = false; relay_in = Hashtbl.create 8 }

(* Exact encoded body sizes (tag byte + fields + optional proposal). *)
let relay_bytes = function
  | Some est -> 10 + Proposal.encoded_bytes est
  | None -> 10

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
    ~size:(function Decide { est; _ } -> Instances.decide_bytes est | _ -> assert false)
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

let create ?announce transport fd (config : Instances.config) cb =
  let n = Transport.n transport in
  let quorum =
    match config.rcv with
    | None -> Quorum.majority ~n
    | Some _ -> Quorum.two_thirds ~n
  in
  let adoption_threshold = Quorum.one_third ~n in
  let t =
    Instances.create transport fd config cb ~fresh ~settle:ignore
      ~decide:(fun k est -> Decide { k; est })
  in

  (* Phase 2: with a quorum of relays in hand, decide on unanimity, adopt on
     a mixed round (guarded in the indirect variant), and move on. *)
  let rec check_phase2 p ({ Instances.st = s; _ } as inst) =
    if s.in_phase2 && not inst.decided then begin
      let relays = !(Instances.find_or_add s.relay_in s.r ref []) in
      if List.length relays >= quorum then begin
        s.in_phase2 <- false;
        let valids = List.filter_map (fun (_, e) -> e) relays in
        let bots = List.length relays - List.length valids in
        match valids with
        | [] -> advance_round p inst
        | v :: _ ->
            (* All valid relays of a round carry the same coordinator
               value, so inspecting the first is enough. *)
            if bots = 0 then begin
              inst.estimate <- v;
              Instances.decide t p inst.k v ~tell:(Instances.flood t p)
            end
            else begin
              (* Algorithm 3 line 28: adopt v iff rcv(v) holds or v was
                 seen ⌈(n+1)/3⌉ times; the original adopts unconditionally. *)
              let adopt =
                match config.rcv with
                | None -> true
                | Some _ ->
                    List.length valids >= adoption_threshold || Instances.rcv_holds t p v
              in
              if adopt then inst.estimate <- v;
              advance_round p inst
            end
      end
    end

  (* End of Phase 1 at a non-coordinator: relay the coordinator's value, or
     ⊥ if the coordinator is suspected or (indirect) its payloads are
     missing. *)
  and finish_phase1 p ({ Instances.st = s; _ } as inst) (est_from_c : Proposal.t option) =
    if s.waiting_prop then begin
      s.waiting_prop <- false;
      let contribution =
        match est_from_c with
        | Some est when Instances.rcv_holds t p est -> Some est
        | Some _ | None -> None
      in
      Instances.send_to_all t ~src:p ~body_bytes:(relay_bytes contribution)
        (Relay { k = inst.k; r = s.r; est = contribution });
      s.in_phase2 <- true;
      check_phase2 p inst
    end

  and start_round p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      let c = Pid.coordinator ~n ~round:s.r in
      if Pid.equal p c then begin
        (* The coordinator's relay of its own estimate is the proposal.  It
           trivially holds its own value's payloads: an estimate becomes
           one's own only through rcv or as the initial proposal. *)
        Instances.send_to_all t ~src:p ~body_bytes:(relay_bytes (Some inst.estimate))
          (Relay { k = inst.k; r = s.r; est = Some inst.estimate });
        s.waiting_prop <- false;
        s.in_phase2 <- true;
        check_phase2 p inst
      end
      else begin
        s.waiting_prop <- true;
        (* The coordinator's relay may already be buffered if p lags. *)
        let buffered = !(Instances.find_or_add s.relay_in s.r ref []) in
        match List.find_opt (fun (q, _) -> Pid.equal q c) buffered with
        | Some (_, est) -> finish_phase1 p inst est
        | None ->
            if Failure_detector.is_suspected fd ~by:p c then finish_phase1 p inst None
      end
    end

  and advance_round p ({ Instances.st = s; _ } as inst) =
    if not inst.decided then begin
      s.r <- s.r + 1;
      s.waiting_prop <- false;
      s.in_phase2 <- false;
      start_round p inst
    end
  in

  let on_message p ~src (payload : Message.payload) =
    match payload with
    | Relay { k; r; est } ->
        let ({ Instances.st = s; _ } as inst) = Instances.get_inst t ~start:start_round p k in
        if (not inst.decided) && r >= s.r then begin
          let l = Instances.find_or_add s.relay_in r ref [] in
          l := (src, est) :: !l;
          if r = s.r then begin
            let c = Pid.coordinator ~n ~round:s.r in
            if s.waiting_prop && Pid.equal src c then finish_phase1 p inst est
            else check_phase2 p inst
          end
        end
    | Decide { k; est } -> Instances.decide ~src t p k est ~tell:(Instances.flood ~src t p)
    | Nudge { k; est } ->
        (* Joining is the point: a nudged coordinator starts round 1 and
           relays its estimate, giving the instance its first traffic; a
           nudged non-coordinator joins the rounds that follow. *)
        ignore (Instances.join_announced t ~start:start_round p k est)
    | _ -> ()
  in

  let on_suspect p suspect =
    Instances.iter t p (fun ({ Instances.st = s; _ } as inst) ->
        if
          (not inst.decided) && s.waiting_prop
          && Pid.equal (Pid.coordinator ~n ~round:s.r) suspect
        then finish_phase1 p inst None)
  in

  (* A round-1 non-coordinator sends nothing until the coordinator's relay
     arrives: announce with a nudge to every other process (LB's Kick,
     ported), due while that relay has not arrived, whatever the current
     round — a process that relayed ⊥ on a suspicion is the one whose
     peers may never have heard of the instance. *)
  let nudge ~src ~dsts ({ Instances.st = s; _ } as inst) =
    let c = Pid.coordinator ~n ~round:1 in
    let heard =
      match Hashtbl.find_opt s.relay_in 1 with
      | Some l -> List.exists (fun (q, _) -> Pid.equal q c) !l
      | None -> false
    in
    if not heard then
      Instances.multicast t ~src ~dsts ~body_bytes:(nudge_bytes inst.estimate)
        (Nudge { k = inst.k; est = inst.estimate })
  in
  Instances.handle t ~name:"mr" ~on_message ~on_suspect ~start:start_round
    ~announce:(Option.map (fun delay -> (delay, nudge)) announce)
    ~counters:(fun () -> [])
