module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Transport = Ics_net.Transport
module Env = Ics_net.Env
module Broadcast_intf = Ics_broadcast.Broadcast_intf
module Consensus_intf = Ics_consensus.Consensus_intf
module Proposal = Ics_consensus.Proposal

type ordering = Consensus_on_messages | Consensus_on_ids | Indirect_consensus

type batching = { batch : int; pipeline : int; flush_ms : float }

let no_batching = { batch = 1; pipeline = 1; flush_ms = 2.0 }

type pstate = {
  received : App_msg.t Msg_id.Table.t;
  mutable unordered : Msg_id.Set.t;
  mutable unordered_elems : Msg_id.t list option;
      (* memo of [Msg_id.Set.elements unordered]; invalidated on mutation *)
  mutable inflight : Msg_id.Set.t;
      (* ids this process has proposed into a still-open instance; the
         complement [unordered \ inflight] is what the next slot may carry *)
  proposed_ids : (int, Msg_id.t list) Hashtbl.t;
      (* instance -> ids we proposed there, so [inflight] can be released
         when the instance's decision is applied *)
  mutable flush_armed : bool;
  ordered_pending : Msg_id.t Queue.t;
  ordered_ever : unit Msg_id.Table.t;
  decisions : (int, Proposal.t) Hashtbl.t;
  mutable applied : int;  (* highest instance whose decision is applied *)
  mutable next_seq : int;
  mutable delivered_rev : Msg_id.t list;
}

type t = {
  engine : Engine.t;
  transport : Transport.t;
  ordering : ordering;
  batching : batching;
  states : pstate array;
  mutable broadcast : Broadcast_intf.handle;
  mutable consensus : Consensus_intf.handle;
  deliver : Pid.t -> App_msg.t -> unit;
}

(* Fetched per use, not captured at [create]: the live runtime installs
   its wall-clock Env on the transport and must win even if it does so
   after the stack is assembled. *)
let env t = Transport.env t.transport

let holds t p id = Msg_id.Table.mem t.states.(p).received id

let unordered_elems st =
  match st.unordered_elems with
  | Some ids -> ids
  | None ->
      let ids = Msg_id.Set.elements st.unordered in
      st.unordered_elems <- Some ids;
      ids

let proposal_of_ids t p ids =
  match t.ordering with
  | Consensus_on_messages ->
      Proposal.on_messages (List.map (Msg_id.Table.find t.states.(p).received) ids)
  | Consensus_on_ids | Indirect_consensus ->
      (* [ids] comes from Set.elements: already sorted and duplicate-free. *)
      Proposal.of_sorted ids

let make_proposal t p = proposal_of_ids t p (unordered_elems t.states.(p))

(* Ids eligible for the next instance slot: unordered minus whatever is
   already riding an open instance. *)
let fresh_ids st =
  if Msg_id.Set.is_empty st.inflight then unordered_elems st
  else Msg_id.Set.elements (Msg_id.Set.diff st.unordered st.inflight)

(* Proposal size cap, batched modes only.  [batch] stays a trigger, but a
   single value may not carry an unbounded backlog: every cost downstream
   of a proposal — frame bytes, the rcv-guard scan, a CT round change
   re-shipping the estimate — is linear in its id count, so an O(backlog)
   value makes overload quadratic and the stack collapses instead of
   queueing.  Capped, a backlog drains cap x pipeline ids per decision
   wave.  The cap never binds at batch=1/pipeline=1 (seed behaviour and
   its pinned fingerprints are computed without it). *)
let cap_factor = 8

let batched b = b.batch > 1 || b.pipeline > 1

let rec take k ids =
  if k <= 0 then []
  else match ids with [] -> [] | id :: tl -> id :: take (k - 1) tl

let cap_ids b ids = if batched b then take (b.batch * cap_factor) ids else ids

(* [List.length ids >= k] without walking a backlog-sized list. *)
let rec at_least k ids =
  k <= 0 || (match ids with [] -> false | _ :: tl -> at_least (k - 1) tl)

let try_deliver t p =
  let st = t.states.(p) in
  let rec loop () =
    match Queue.peek_opt st.ordered_pending with
    | Some id when Msg_id.Table.mem st.received id ->
        ignore (Queue.pop st.ordered_pending);
        let m = Msg_id.Table.find st.received id in
        st.delivered_rev <- id :: st.delivered_rev;
        Engine.record t.engine p (Trace.Adeliver id);
        t.deliver p m;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

(* Batching and pipelining of Algorithm 1's proposal step.  Instance
   slots [applied+1 .. applied+pipeline] may run concurrently; each id is
   proposed into at most one open instance (tracked by [inflight]).  With
   no instance open in those slots the pipeline is idle and fresh ids are
   proposed at once, as in Algorithm 1.  While an instance is open, a
   further slot opens only once [batch] fresh ids have accumulated, a
   decision empties the pipeline ([apply_decisions] calls back here), or
   the flush timer fires — so batches grow with load instead of delaying
   an unloaded abcast.  [batch] is a trigger; a proposal carries every
   fresh id up to the [cap_factor] cap.  At the default batch=1/pipeline=1
   this reduces exactly to the seed behaviour — one instance at a time,
   proposed the moment an id shows up, no timer ever armed — which is what
   keeps the pinned chaos fingerprints bit-identical. *)
let rec try_propose ?(flush = false) t p =
  let st = t.states.(p) in
  let rec open_slot d =
    d <= t.batching.pipeline
    && (t.consensus.has_instance p (st.applied + d) || open_slot (d + 1))
  in
  let flush = flush || not (open_slot 1) in
  let rec slots d =
    if d <= t.batching.pipeline then begin
      let k = st.applied + d in
      (* Occupancy first: while every slot is riding an instance — the
         steady state under load — this call must stay O(pipeline), not
         pay the O(backlog) set walk below on every arrival. *)
      if t.consensus.has_instance p k then slots (d + 1)
      else
        let ids = fresh_ids st in
        if ids <> [] then
          if flush || at_least t.batching.batch ids then begin
            let ids = cap_ids t.batching ids in
            t.consensus.propose p k (proposal_of_ids t p ids);
            Hashtbl.replace st.proposed_ids k ids;
            st.inflight <-
              List.fold_left (fun s id -> Msg_id.Set.add id s) st.inflight ids;
            slots (d + 1)
          end
          else arm_flush t p
    end
  in
  slots 1

and arm_flush t p =
  let st = t.states.(p) in
  if not st.flush_armed then begin
    let e = env t in
    let at = Time.( + ) (e.Env.now ()) t.batching.flush_ms in
    if Env.beyond_horizon e ~at then
      (* Deadline discipline (the P2 rule for self-rearming timers):
         never park ids behind a timer that would fire after the run's
         horizon — flush now so a faulted run still drains to quiescence. *)
      try_propose ~flush:true t p
    else begin
      st.flush_armed <- true;
      e.Env.schedule ~at (fun () ->
          st.flush_armed <- false;
          if (env t).Env.is_alive p then try_propose ~flush:true t p)
    end
  end

let apply_decisions t p =
  let st = t.states.(p) in
  let progressed = ref false in
  let rec loop () =
    match Hashtbl.find_opt st.decisions (st.applied + 1) with
    | None -> ()
    | Some v ->
        let k = st.applied + 1 in
        Hashtbl.remove st.decisions k;
        st.applied <- k;
        (* Release our own proposal for [k] from [inflight]: ids the
           decision left out return to the fresh pool for a later slot. *)
        (match Hashtbl.find_opt st.proposed_ids k with
        | Some ids ->
            Hashtbl.remove st.proposed_ids k;
            st.inflight <-
              List.fold_left (fun s id -> Msg_id.Set.remove id s) st.inflight ids
        | None -> ());
        (* Proposal ids are sorted (deterministic order, Algorithm 1 line
           20); skip anything already ordered by an earlier instance. *)
        List.iter
          (fun id ->
            if not (Msg_id.Table.mem st.ordered_ever id) then begin
              Msg_id.Table.add st.ordered_ever id ();
              Queue.push id st.ordered_pending;
              st.unordered <- Msg_id.Set.remove id st.unordered;
              st.unordered_elems <- None
            end)
          (Proposal.ids v);
        progressed := true;
        loop ()
  in
  loop ();
  if !progressed then begin
    try_deliver t p;
    try_propose t p
  end

let on_decide t p k v =
  Hashtbl.replace t.states.(p).decisions k v;
  apply_decisions t p

let on_broadcast_deliver t p (m : App_msg.t) =
  let st = t.states.(p) in
  if not (Msg_id.Table.mem st.received m.id) then begin
    Msg_id.Table.add st.received m.id m;
    if
      (not (Msg_id.Table.mem st.ordered_ever m.id))
      && not (Msg_id.Set.mem m.id st.unordered)
    then begin
      st.unordered <- Msg_id.Set.add m.id st.unordered;
      st.unordered_elems <- None
    end;
    (* The payload may unblock an already ordered head. *)
    try_deliver t p;
    try_propose t p
  end

let create ?(batching = no_batching) transport ~ordering ~make_broadcast
    ~make_consensus ~deliver =
  if batching.batch < 1 then invalid_arg "Abcast.create: batch < 1";
  if batching.pipeline < 1 then invalid_arg "Abcast.create: pipeline < 1";
  if batching.flush_ms < 0.0 || not (Float.is_finite batching.flush_ms) then
    invalid_arg "Abcast.create: bad flush_ms";
  let engine = Transport.engine transport in
  let n = Transport.n transport in
  let states =
    Array.init n (fun _ ->
        {
          received = Msg_id.Table.create 256;
          unordered = Msg_id.Set.empty;
          unordered_elems = None;
          inflight = Msg_id.Set.empty;
          proposed_ids = Hashtbl.create 8;
          flush_armed = false;
          ordered_pending = Queue.create ();
          ordered_ever = Msg_id.Table.create 256;
          decisions = Hashtbl.create 16;
          applied = 0;
          next_seq = 0;
          delivered_rev = [];
        })
  in
  let dummy_broadcast =
    { Broadcast_intf.name = ""; broadcast = (fun ~src:_ _ -> ()); holds = (fun _ _ -> false) }
  in
  let dummy_consensus =
    {
      Consensus_intf.name = "";
      propose = (fun _ _ _ -> ());
      has_instance = (fun _ _ -> false);
      undecided = (fun _ -> 0);
      counters = (fun () -> []);
    }
  in
  let t =
    {
      engine;
      transport;
      ordering;
      batching;
      states;
      broadcast = dummy_broadcast;
      consensus = dummy_consensus;
      deliver;
    }
  in
  t.broadcast <- make_broadcast ~deliver:(on_broadcast_deliver t);
  let rcv =
    match ordering with
    | Indirect_consensus ->
        Some (fun q ids -> List.for_all (fun id -> holds t q id) ids)
    | Consensus_on_messages | Consensus_on_ids -> None
  in
  (* Join values: unbatched, the full unordered set (Algorithm 1's
     proposal — a joiner's value only matters if the coordinator's is
     lost, and then completeness beats batch shape).  Batched/pipelined,
     the fresh set only, marked inflight like a regular proposal: with
     several instances open, re-offering ids that already ride an earlier
     open instance makes the same ids decide twice in consecutive
     instances (pure waste) and keeps the instance stream running after
     the workload is drained. *)
  let join p k =
    if batched batching then begin
      let st = t.states.(p) in
      let ids = cap_ids batching (fresh_ids st) in
      if ids <> [] then begin
        Hashtbl.replace st.proposed_ids k ids;
        st.inflight <-
          List.fold_left (fun s id -> Msg_id.Set.add id s) st.inflight ids
      end;
      proposal_of_ids t p ids
    end
    else make_proposal t p
  in
  let callbacks = { Consensus_intf.on_decide = on_decide t; join } in
  t.consensus <- make_consensus ~rcv callbacks;
  t

let abroadcast ?(blob = 0L) t ~src ~body_bytes =
  let st = t.states.(src) in
  let id = Msg_id.make ~origin:src ~seq:st.next_seq in
  st.next_seq <- st.next_seq + 1;
  let m = App_msg.make ~blob ~id ~body_bytes ~created_at:(Engine.now t.engine) () in
  if Engine.is_alive t.engine src then begin
    Engine.record t.engine src (Trace.Abroadcast id);
    t.broadcast.broadcast ~src m
  end;
  m

let delivered_sequence t p = List.rev t.states.(p).delivered_rev

let unordered_count t p = Msg_id.Set.cardinal t.states.(p).unordered

let blocked_head t p =
  let st = t.states.(p) in
  match Queue.peek_opt st.ordered_pending with
  | Some id when not (Msg_id.Table.mem st.received id) -> Some id
  | Some _ | None -> None

let batching t = t.batching
let broadcast_name t = t.broadcast.Broadcast_intf.name
let consensus_name t = t.consensus.Consensus_intf.name
let consensus_counters t = t.consensus.Consensus_intf.counters ()
let undecided_instances t p = t.consensus.Consensus_intf.undecided p
