module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Host = Ics_net.Host
module Failure_detector = Ics_fd.Failure_detector

let layer = "consensus"

(* Tag byte + instance number + proposal. *)
let decide_bytes v = 5 + Proposal.encoded_bytes v

(* The consensus payloads one step queued for one destination, in send
   order: one frame instead of one per payload. *)
type Message.payload += Bundle of Message.payload list

(* Tag byte + payload count; each inner payload carries its own tag. *)
let bundle_overhead = 5

let register_codec () =
  let module Codec = Ics_codec.Codec in
  let module Prim = Ics_codec.Prim in
  let tag = 0x2F in
  Codec.register ~tag ~name:"consensus.bundle"
    ~fits:(function Bundle _ -> true | _ -> false)
    ~size:(function
      | Bundle payloads ->
          List.fold_left (fun acc p -> acc + Codec.body_bytes p) bundle_overhead payloads
      | _ -> assert false)
    ~encode_into:(fun w -> function
      | Bundle payloads ->
          Prim.u32 w (List.length payloads);
          List.iter (Codec.encode_payload w) payloads
      | _ -> assert false)
    ~dec:(fun rd ->
      let count = Prim.r_u32 rd in
      let rec go acc i =
        if i = 0 then List.rev acc else go (Codec.decode_payload rd :: acc) (i - 1)
      in
      Bundle (go [] count))
    ~gen:(fun rng ->
      let inner =
        Array.of_list
          (List.filter (fun (e : Codec.entry) -> e.tag <> tag) (Codec.entries ()))
      in
      let pick _ = inner.(Ics_prelude.Rng.int rng (Array.length inner)).gen rng in
      Bundle (List.init (2 + Ics_prelude.Rng.int rng 3) pick))

type config = { rcv : Consensus_intf.rcv option }

type create =
  ?announce:Time.t ->
  Transport.t -> Failure_detector.t -> config -> Consensus_intf.callbacks ->
  Consensus_intf.handle

type 'a inst = {
  k : int;
  mutable estimate : Proposal.t;
  mutable decided : bool;
  mutable told : Pid.t list;
  st : 'a;
}

(* One process's sends of its current step: per destination, newest
   first, and the destinations in the order each was first queued
   (newest first).  [depth] counts the steps open at the process. *)
type outbox = {
  mutable depth : int;
  mutable order : Pid.t list;
  queued : (Message.payload * int) list array;
}

type 'a t = {
  transport : Transport.t;
  fd : Failure_detector.t;
  engine : Engine.t;
  n : int;
  layer_id : Ics_net.Layer.t;
  rcv : Consensus_intf.rcv option;
  cb : Consensus_intf.callbacks;
  instances : (int, 'a inst) Hashtbl.t array;  (* by process *)
  undecided : int array;
      (* by process: the instances it holds that have not decided, kept
         by hand (one more per new instance, one less per decision) so a
         live node can ask in O(1) whether one of its instances is still
         open, and may still need its replies or its flood, before it
         says Bye *)
  fresh : unit -> 'a;
  settle : 'a -> unit;
  decide_msg : int -> Proposal.t -> Message.payload;
  sent : Message.payload -> unit;
  outbox : outbox array;  (* by process *)
  mutable frames : int;
}

let create ?(sent = ignore) transport fd (config : config) cb ~fresh ~settle ~decide =
  let n = Transport.n transport in
  {
    transport;
    fd;
    engine = Transport.engine transport;
    n;
    layer_id = Transport.intern transport layer;
    rcv = config.rcv;
    cb;
    instances = Array.init n (fun _ -> Hashtbl.create 16);
    undecided = Array.make n 0;
    fresh;
    settle;
    decide_msg = decide;
    sent;
    outbox = Array.init n (fun _ -> { depth = 0; order = []; queued = Array.make n [] });
    frames = 0;
  }

(* One frame to [q]: its only payload as is, several as one [Bundle]. *)
let ship t p q =
  let o = t.outbox.(p) in
  let items = o.queued.(q) in
  o.queued.(q) <- [];
  if not (Pid.equal p q) then t.frames <- t.frames + 1;
  let send = Transport.send t.transport ~src:p ~dst:q ~layer:t.layer_id in
  match items with
  | [ (payload, body_bytes) ] -> send ~body_bytes payload
  | items ->
      let payloads, body_bytes =
        List.fold_left
          (fun (payloads, bytes) (payload, b) -> (payload :: payloads, bytes + b))
          ([], bundle_overhead) items
      in
      send ~body_bytes (Bundle payloads)

(* Destinations leave in the order they were first queued, those [p]
   suspects after every other. *)
let flush t p =
  let o = t.outbox.(p) in
  let order = List.rev o.order in
  o.order <- [];
  List.iter (ship t p) (Failure_detector.suspected_last t.fd ~by:p order)

let step t p f =
  let o = t.outbox.(p) in
  o.depth <- o.depth + 1;
  f ();
  o.depth <- o.depth - 1;
  if o.depth = 0 then flush t p

let send t ~src ~dst ~body_bytes payload =
  if not (Pid.equal src dst) then t.sent payload;
  let o = t.outbox.(src) in
  (match o.queued.(dst) with [] -> o.order <- dst :: o.order | _ :: _ -> ());
  o.queued.(dst) <- (payload, body_bytes) :: o.queued.(dst);
  if o.depth = 0 then flush t src

let multicast t ~src ~dsts ~body_bytes payload =
  List.iter (fun dst -> send t ~src ~dst ~body_bytes payload) dsts

let send_to_all t ~src ~body_bytes payload =
  multicast t ~src ~dsts:(Pid.all ~n:t.n) ~body_bytes payload

let find_or_add tbl key make x =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make x in
      Hashtbl.add tbl key v;
      v

(* The original variant adopts unconditionally and costs nothing. *)
let rcv_holds t p (v : Proposal.t) =
  match t.rcv with
  | None -> true
  | Some rcv ->
      let ids = Proposal.ids v in
      let cost = Host.rcv_check_cost (Transport.host t.transport) ~ids:(List.length ids) in
      Transport.charge_cpu t.transport p cost;
      rcv p ids

let new_instance t p k estimate =
  let inst = { k; estimate; decided = false; told = []; st = t.fresh () } in
  Hashtbl.add t.instances.(p) k inst;
  t.undecided.(p) <- t.undecided.(p) + 1;
  Engine.record t.engine p (Trace.Propose (k, Proposal.ids estimate));
  inst

let join t ~start p k v =
  let inst = new_instance t p k v in
  start p inst;
  inst

(* Joining is required for quorum liveness: a quorum must be able to
   include processes that have nothing to order yet. *)
let get_inst t ~start p k =
  match Hashtbl.find_opt t.instances.(p) k with
  | Some inst -> inst
  | None -> join t ~start p k (t.cb.join p k)

(* The AB layer's join value may be empty under batching: everything
   fresh already rides other open instances.  The announced estimate
   replaces it only where [rcv] holds: an estimate whose payloads no live
   process holds could never be acked, so were every joiner to adopt one
   unchecked, the instance could never decide once its proposer
   crashed. *)
let join_announced t ~start p k est =
  match Hashtbl.find_opt t.instances.(p) k with
  | Some inst -> inst
  | None ->
      let own = t.cb.join p k in
      let seed = Proposal.is_empty own && rcv_holds t p est in
      join t ~start p k (if seed then est else own)

let find t p k = Hashtbl.find_opt t.instances.(p) k

let decide ?src t p k v ~tell =
  let inst =
    match Hashtbl.find_opt t.instances.(p) k with
    | Some inst -> inst
    | None ->
        (* A decision can reach a process that never participated: adopt
           it without running any round. *)
        new_instance t p k v
  in
  if not inst.decided then begin
    inst.decided <- true;
    inst.estimate <- v;
    inst.told <- (match src with Some q -> q :: tell | None -> tell);
    t.undecided.(p) <- t.undecided.(p) - 1;
    t.settle inst.st;
    multicast t ~src:p ~dsts:tell ~body_bytes:(decide_bytes v) (t.decide_msg k v);
    Engine.record t.engine p (Trace.Decide (k, Proposal.ids v));
    t.cb.on_decide p k v
  end

let flood ?src t p =
  match src with
  | None -> Pid.others ~n:t.n p
  | Some src -> List.filter (fun q -> not (Pid.equal q src)) (Pid.others ~n:t.n p)

let tell t p inst dsts =
  List.fold_left
    (fun sent q ->
      if Pid.equal q p || List.mem q inst.told then sent
      else begin
        inst.told <- q :: inst.told;
        send t ~src:p ~dst:q ~body_bytes:(decide_bytes inst.estimate)
          (t.decide_msg inst.k inst.estimate);
        sent + 1
      end)
    0 dsts

(* Key-sorted: bucket-order iteration would make the order of the round
   steps a suspicion triggers, and hence the trace, depend on hashing
   internals. *)
let iter t p f = Ics_prelude.Sorted_tbl.iter ~cmp:Int.compare (fun _ inst -> f inst) t.instances.(p)

let handle t ~name ~on_message ~on_suspect ~start ~announce ~counters =
  List.iter
    (fun p ->
      Transport.register t.transport p ~layer:t.layer_id (fun (msg : Message.t) ->
          step t p (fun () ->
              match msg.payload with
              | Bundle payloads -> List.iter (on_message p ~src:msg.src) payloads
              | payload -> on_message p ~src:msg.src payload));
      Failure_detector.on_suspect t.fd ~observer:p (fun q -> step t p (fun () -> on_suspect p q)))
    (Pid.all ~n:t.n);
  let coordinator = Pid.coordinator ~n:t.n ~round:1 in
  (* The deferred announce: one shot, [delay] after the proposal, and at
     once when that moment lies past the run's horizon (lint rule P2's
     deadline discipline), so a faulted run still drains. *)
  let arm_announce p inst (delay, announce) =
    let env = Transport.env t.transport in
    let fire () =
      if env.Ics_net.Env.is_alive p && not inst.decided then
        step t p (fun () -> announce ~src:p ~dsts:(Pid.others ~n:t.n p) inst)
    in
    let at = Time.( + ) (env.now ()) delay in
    if Ics_net.Env.beyond_horizon env ~at then fire () else env.schedule ~at fire
  in
  let propose p k value =
    if Engine.is_alive t.engine p && not (Hashtbl.mem t.instances.(p) k) then
      step t p (fun () ->
          let inst = join t ~start p k value in
          match announce with
          | Some announce when (not inst.decided) && not (Pid.equal p coordinator) ->
              arm_announce p inst announce
          | Some _ | None -> ())
  in
  let has_instance p k = Hashtbl.mem t.instances.(p) k in
  let undecided p = t.undecided.(p) in
  let name = match t.rcv with None -> name | Some _ -> name ^ "-indirect" in
  let counters () = counters () @ [ ("frames", t.frames) ] in
  { Consensus_intf.name; propose; has_instance; undecided; counters }
