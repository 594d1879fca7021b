module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Host = Ics_net.Host
module Failure_detector = Ics_fd.Failure_detector

let layer = "consensus"

(* Tag byte + instance number + proposal. *)
let decide_bytes v = 5 + Proposal.encoded_bytes v

type config = { rcv : Consensus_intf.rcv option }

type create =
  ?announce:bool ->
  Transport.t -> Failure_detector.t -> config -> Consensus_intf.callbacks ->
  Consensus_intf.handle

type multicast =
  src:Pid.t -> dsts:Pid.t list -> layer:Ics_net.Layer.t -> body_bytes:int ->
  Message.payload -> unit

type 'a inst = { k : int; mutable estimate : Proposal.t; mutable decided : bool; st : 'a }

type 'a t = {
  transport : Transport.t;
  engine : Engine.t;
  n : int;
  layer_id : Ics_net.Layer.t;
  rcv : Consensus_intf.rcv option;
  cb : Consensus_intf.callbacks;
  instances : (int, 'a inst) Hashtbl.t array;  (* by process *)
  undecided : int array;
      (* by process: the instances it holds that have not decided, kept
         by hand (one more per new instance, one less per decision) so a
         live node can ask in O(1) whether it still owes a peer a
         decision flood before it says Bye *)
  fresh : unit -> 'a;
  settle : 'a -> unit;
  decide_msg : int -> Proposal.t -> Message.payload;
  multicast : multicast;
}

let create transport (config : config) cb ~fresh ~settle ~decide ~multicast =
  let n = Transport.n transport in
  {
    transport;
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
    multicast;
  }

let layer_id t = t.layer_id

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
  let inst = { k; estimate; decided = false; st = t.fresh () } in
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
   fresh already rides other open instances. *)
let join_announced t ~start p k est =
  match Hashtbl.find_opt t.instances.(p) k with
  | Some inst -> inst
  | None ->
      let own = t.cb.join p k in
      join t ~start p k (if Proposal.is_empty own then est else own)

(* [except] is the process a relayed decision came from ([p] itself for
   the process's own decision, which [Pid.others] leaves out anyway). *)
let flood t p inst v ~except =
  if not inst.decided then begin
    inst.decided <- true;
    t.undecided.(p) <- t.undecided.(p) - 1;
    t.settle inst.st;
    let dsts = List.filter (fun q -> not (Pid.equal q except)) (Pid.others ~n:t.n p) in
    t.multicast ~src:p ~dsts ~layer:t.layer_id ~body_bytes:(decide_bytes v)
      (t.decide_msg inst.k v);
    Engine.record t.engine p (Trace.Decide (inst.k, Proposal.ids v));
    t.cb.on_decide p inst.k v
  end

let decide t p inst v = flood t p inst v ~except:p

let receive_decide t p ~src k v =
  let inst =
    match Hashtbl.find_opt t.instances.(p) k with
    | Some inst -> inst
    | None ->
        (* A decision can reach a process that never participated: adopt
           it without running any round (the flood settles it at once). *)
        new_instance t p k v
  in
  flood t p inst v ~except:src

(* Key-sorted: bucket-order iteration would make the order of the round
   steps a suspicion triggers, and hence the trace, depend on hashing
   internals. *)
let iter t p f = Ics_prelude.Sorted_tbl.iter ~cmp:Int.compare (fun _ inst -> f inst) t.instances.(p)

let handle t fd ~name ~on_message ~on_suspect ~start ~announce ~counters =
  List.iter
    (fun p ->
      Transport.register t.transport p ~layer:t.layer_id (on_message p);
      Failure_detector.on_suspect fd ~observer:p (on_suspect p))
    (Pid.all ~n:t.n);
  let coordinator = Pid.coordinator ~n:t.n ~round:1 in
  let propose p k value =
    if Engine.is_alive t.engine p && not (Hashtbl.mem t.instances.(p) k) then begin
      let inst = join t ~start p k value in
      match announce with
      | Some announce when (not inst.decided) && not (Pid.equal p coordinator) ->
          announce ~src:p ~dst:coordinator inst
      | Some _ | None -> ()
    end
  in
  let has_instance p k = Hashtbl.mem t.instances.(p) k in
  let undecided p = t.undecided.(p) in
  let name = match t.rcv with None -> name | Some _ -> name ^ "-indirect" in
  { Consensus_intf.name; propose; has_instance; undecided; counters }
