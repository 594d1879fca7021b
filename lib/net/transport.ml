module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Resource = Ics_sim.Resource

(* Per-message work never touches a string: layer names are interned to
   dense ints once (at protocol construction), handler dispatch is an
   array index, and per-layer accounting increments flat int arrays. *)

(* Two backends behind the one surface the protocol layers program
   against.  [Sim] is the discrete-event path: CPU resources, a network
   model, all [n] processes in one address space.  [Ext] is the live
   path: this transport embodies the single process [self], remote sends
   are handed to [emit] (the socket runtime encodes and ships them), and
   frames received from peers come back through {!inject}. *)
type backend =
  | Sim of { model : Model.t; cpus : Resource.t array }
  | Ext of { self : Pid.t; emit : Message.t -> unit }

(* One process's open {!hold}: nesting depth, whether the [held] part is
   running, and the frames waiting for the step's end, by destination
   (latest first), with the destinations in the order first held. *)
type hold = {
  mutable depth : int;
  mutable holding : bool;
  mutable order : Pid.t list;  (* latest first *)
  waiting : Message.t list array;  (* by destination, latest first *)
}

type t = {
  engine : Engine.t;
  host : Host.t;
  backend : backend;
  mutable env : Env.t;
  (* Middleware chains around the raw backend.  [wire] is the outbound
     chain every remote send traverses (fault interposers, wire-level
     retransmission) and bottoms out at the backend's raw transmit;
     [inbound] is the receive-side chain and bottoms out at handler
     dispatch.  Both default to the raw endpoint, so a transport with no
     middleware behaves exactly as before the seam existed. *)
  mutable wire : Message.t -> unit;
  mutable inbound : Message.t -> unit;
  intern_tbl : (string, Layer.t) Hashtbl.t;
  mutable layer_names : string array;  (* by layer id *)
  mutable layer_count : int;
  mutable handlers : (Message.t -> unit) option array array;  (* [pid].(layer id) *)
  mutable sent_messages : int;
  mutable sent_bytes : int;
  mutable per_layer_msgs : int array;  (* by layer id *)
  mutable per_layer_bytes : int array;
  holds : hold array;  (* by process *)
}

let make engine ~host ~backend =
  {
    engine;
    host;
    backend;
    env = Env.of_engine engine;
    wire = ignore;
    inbound = ignore;
    intern_tbl = Hashtbl.create 8;
    layer_names = [||];
    layer_count = 0;
    handlers = Array.init (Engine.n engine) (fun _ -> [||]);
    sent_messages = 0;
    sent_bytes = 0;
    per_layer_msgs = [||];
    per_layer_bytes = [||];
    holds =
      Array.init (Engine.n engine) (fun _ ->
          { depth = 0; holding = false; order = []; waiting = Array.make (Engine.n engine) [] });
  }

let self t = match t.backend with Ext { self; _ } -> Some self | Sim _ -> None

let engine t = t.engine
let host t = t.host
let n t = Engine.n t.engine

let grow_int_array a len = Array.append a (Array.make (len - Array.length a) 0)

let intern t name =
  match Hashtbl.find_opt t.intern_tbl name with
  | Some layer -> layer
  | None ->
      let id = t.layer_count in
      let layer = Layer.make ~id ~name in
      Hashtbl.add t.intern_tbl name layer;
      t.layer_count <- id + 1;
      if t.layer_count > Array.length t.layer_names then begin
        let cap = Stdlib.max 8 (2 * t.layer_count) in
        let names = Array.make cap "" in
        Array.blit t.layer_names 0 names 0 id;
        t.layer_names <- names;
        t.per_layer_msgs <- grow_int_array t.per_layer_msgs cap;
        t.per_layer_bytes <- grow_int_array t.per_layer_bytes cap;
        Array.iteri
          (fun p h ->
            let bigger = Array.make cap None in
            Array.blit h 0 bigger 0 (Array.length h);
            t.handlers.(p) <- bigger)
          t.handlers
      end;
      t.layer_names.(id) <- name;
      layer

(* Dense id of [layer] in this transport.  Tokens minted here resolve by
   a bounds check plus a physically-cheap name check; foreign or
   [Layer.unregistered] tokens fall back to interning by name. *)
let resolve t layer =
  let id = Layer.id layer in
  if id >= 0 && id < t.layer_count && String.equal t.layer_names.(id) (Layer.name layer)
  then id
  else Layer.id (intern t (Layer.name layer))

let register t pid ~layer handler =
  let id = resolve t layer in
  (match t.handlers.(pid).(id) with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Transport.register: duplicate layer %s at p%d"
           (Layer.name layer) pid)
  | None -> ());
  t.handlers.(pid).(id) <- Some handler

let dispatch t (msg : Message.t) =
  if Engine.is_alive t.engine msg.dst then begin
    let id = Layer.id msg.layer in
    let handlers = t.handlers.(msg.dst) in
    if id >= 0 && id < Array.length handlers then
      match handlers.(id) with
      | Some handler -> handler msg
      | None ->
          (* A layer that was never installed at this process: drop, as a
             real stack would for an unknown protocol port. *)
          ()
  end

let deliver_leg t ~cpus (msg : Message.t) =
  (* Receiver CPU: deserialization queues on the destination's processor. *)
  let service = Host.recv_cost t.host ~wire_bytes:(Message.wire_size msg) in
  let done_at = Resource.reserve cpus.(msg.dst) ~now:(Engine.now t.engine) ~service in
  Engine.schedule t.engine ~at:done_at (fun () -> t.inbound msg)

(* The raw outbound endpoint each backend bottoms out at: the network
   model for sim, the socket runtime's encoder for live. *)
let raw_wire t (msg : Message.t) =
  match t.backend with
  | Sim { model; cpus } ->
      Model.send model t.engine msg ~arrive:(fun () -> deliver_leg t ~cpus msg)
  | Ext { emit; _ } -> emit msg

let create engine ~model ~host =
  let n = Engine.n engine in
  let cpus = Array.init n (fun i -> Resource.create (Printf.sprintf "cpu%d" i)) in
  let t = make engine ~host ~backend:(Sim { model; cpus }) in
  t.wire <- raw_wire t;
  t.inbound <- (fun msg -> dispatch t msg);
  t

let create_ext engine ?(host = Host.instant) ~self ~emit () =
  if self < 0 || self >= Engine.n engine then
    invalid_arg "Transport.create_ext: self out of range";
  let t = make engine ~host ~backend:(Ext { self; emit }) in
  t.wire <- raw_wire t;
  t.inbound <- (fun msg -> dispatch t msg);
  t

let env t = t.env
let set_env t env = t.env <- env

let interpose t mw = t.wire <- mw t.wire
let interpose_inbound t mw = t.inbound <- mw t.inbound

let account t ~id ~wire =
  t.sent_messages <- t.sent_messages + 1;
  t.sent_bytes <- t.sent_bytes + wire;
  t.per_layer_msgs.(id) <- t.per_layer_msgs.(id) + 1;
  t.per_layer_bytes.(id) <- t.per_layer_bytes.(id) + wire

(* One frame onto [src]'s CPU (sim) or into the runtime (live). *)
let transmit t (msg : Message.t) =
  let src = msg.src and dst = msg.dst in
  let id = Layer.id msg.layer in
  match t.backend with
  | Sim { model = _; cpus } ->
      let wire = Message.wire_size msg in
      account t ~id ~wire;
      if Pid.equal src dst then begin
        let done_at =
          Resource.reserve cpus.(src) ~now:(Engine.now t.engine)
            ~service:t.host.Host.local_delivery
        in
        Engine.schedule t.engine ~at:done_at (fun () -> dispatch t msg)
      end
      else begin
        let service = Host.send_cost t.host ~wire_bytes:wire in
        let cpu_done = Resource.reserve cpus.(src) ~now:(Engine.now t.engine) ~service in
        Engine.schedule t.engine ~at:cpu_done (fun () ->
            (* A crash between the send call and the end of serialization kills
               the message before it reaches the wire. *)
            if Engine.is_alive t.engine src then t.wire msg)
      end
  | Ext { self; emit = _ } ->
      (* The protocol layers instantiate state for all [n] pids, but a
         live node embodies exactly one of them: sends attempted on a
         foreign pid's behalf (e.g. its heartbeat loop) go nowhere. *)
      if Pid.equal src self then begin
        account t ~id ~wire:(Message.wire_size msg);
        if Pid.equal dst self then
          Engine.schedule t.engine ~at:(Engine.now t.engine) (fun () ->
              dispatch t msg)
        else t.wire msg
      end

let send t ~src ~dst ~layer ~body_bytes payload =
  if Engine.is_alive t.engine src then begin
    let id = resolve t layer in
    let layer = if id = Layer.id layer then layer else Layer.make ~id ~name:(Layer.name layer) in
    let msg =
      { Message.src; dst; layer; payload; body_bytes; sent_at = Engine.now t.engine }
    in
    let h = t.holds.(src) in
    if h.depth = 0 then transmit t msg
    else
      (* A held frame waits for the step's end, and so does every later
         frame to its destination: each link keeps its call order. *)
      match h.waiting.(dst) with
      | [] when not h.holding -> transmit t msg
      | [] ->
          h.order <- dst :: h.order;
          h.waiting.(dst) <- [ msg ]
      | queued -> h.waiting.(dst) <- msg :: queued
  end

let hold t p ~held f =
  let h = t.holds.(p) in
  let outer = h.holding in
  h.depth <- h.depth + 1;
  h.holding <- true;
  held ();
  h.holding <- outer;
  f ();
  h.depth <- h.depth - 1;
  if h.depth = 0 then begin
    let order = List.rev h.order in
    h.order <- [];
    List.iter
      (fun dst ->
        let frames = List.rev h.waiting.(dst) in
        h.waiting.(dst) <- [];
        if Engine.is_alive t.engine p then List.iter (transmit t) frames)
      order
  end

let multicast t ~src ~dsts ~layer ~body_bytes payload =
  List.iter (fun dst -> send t ~src ~dst ~layer ~body_bytes payload) dsts

let send_to_all t ~src ~layer ~body_bytes payload =
  multicast t ~src ~dsts:(Pid.all ~n:(n t)) ~layer ~body_bytes payload

let send_to_others t ~src ~layer ~body_bytes payload =
  multicast t ~src ~dsts:(Pid.others ~n:(n t) src) ~layer ~body_bytes payload

let inject t (msg : Message.t) =
  (* Frames decoded by the live runtime re-enter here; the layer token was
     minted by the codec, so resolve it against this transport's ids. *)
  let id = resolve t msg.layer in
  let msg =
    if id = Layer.id msg.layer then msg
    else { msg with layer = Layer.make ~id ~name:(Layer.name msg.layer) }
  in
  t.inbound msg

let charge_cpu t pid service =
  match t.backend with
  | Sim { cpus; _ } ->
      ignore (Resource.reserve cpus.(pid) ~now:(Engine.now t.engine) ~service)
  | Ext _ -> ()  (* live CPUs charge themselves *)

let cpu_resource t pid =
  match t.backend with
  | Sim { cpus; _ } -> cpus.(pid)
  | Ext _ -> invalid_arg "Transport.cpu_resource: live transport has no modeled CPUs"

let sent_messages t = t.sent_messages
let sent_bytes t = t.sent_bytes

let per_layer_stats t =
  let acc = ref [] in
  for id = 0 to t.layer_count - 1 do
    (* Layers interned but never sent on don't appear, matching the lazy
       population of the old string-keyed table. *)
    if t.per_layer_msgs.(id) > 0 then
      acc := (t.layer_names.(id), t.per_layer_msgs.(id), t.per_layer_bytes.(id)) :: !acc
  done;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !acc
