module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Resource = Ics_sim.Resource
module Rng = Ics_prelude.Rng
module Variate = Ics_prelude.Variate

type send_fn = Engine.t -> Message.t -> arrive:(unit -> unit) -> unit

(* Shared accounting for every fault source ({!scripted} here, the
   [Nemesis] middleware in ics_faults): one counter record, so a run
   exposes the same stats whatever injected the faults. *)
module Fault_stats = struct
  type t = {
    mutable drops : int;
    mutable dups : int;
    mutable delays : int;
    mutable slowdowns : int;
    mutable partition_drops : int;
    mutable crashes : int;
    drops_by_layer : (string, int ref) Hashtbl.t;
  }

  let create () =
    {
      drops = 0;
      dups = 0;
      delays = 0;
      slowdowns = 0;
      partition_drops = 0;
      crashes = 0;
      drops_by_layer = Hashtbl.create 8;
    }

  let count_layer_drop t layer =
    match Hashtbl.find_opt t.drops_by_layer layer with
    | Some r -> incr r
    | None -> Hashtbl.add t.drops_by_layer layer (ref 1)

  let total_drops t = t.drops + t.partition_drops

  let to_list t =
    let base =
      [
        ("drops", t.drops);
        ("dups", t.dups);
        ("delays", t.delays);
        ("slowdowns", t.slowdowns);
        ("partition-drops", t.partition_drops);
        ("crashes", t.crashes);
      ]
    in
    let per_layer =
      Hashtbl.fold
        (fun layer r acc -> (Printf.sprintf "drops[%s]" layer, !r) :: acc)
        t.drops_by_layer []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    List.filter (fun (_, c) -> c > 0) (base @ per_layer)

  let pp ppf t =
    Format.fprintf ppf "%s"
      (String.concat " "
         (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) (to_list t)))
end

type t = {
  name : string;
  send : send_fn;
  resources : Resource.t list;
  faults : Fault_stats.t option;
}

let name t = t.name
let send t engine msg ~arrive = t.send engine msg ~arrive
let resources t = t.resources
let fault_stats t = t.faults

type net_params = { net_fixed : Time.t; net_per_byte : Time.t }

(* 100 Mbit/s: 0.08 us/byte; fixed cost covers preamble, inter-frame gap,
   propagation and the hub/switch port. *)
let params_100mbps = { net_fixed = 0.020; net_per_byte = 0.00008 }

(* 1 Gbit/s: 0.008 us/byte; lower fixed cost on a cut-through switch. *)
let params_1gbps = { net_fixed = 0.006; net_per_byte = 0.000008 }

let frame_time p msg =
  Time.( + ) p.net_fixed (p.net_per_byte *. float_of_int (Message.wire_size msg))

let shared_bus p =
  let bus = Resource.create "bus" in
  let send engine msg ~arrive =
    let done_at = Resource.reserve bus ~now:(Engine.now engine) ~service:(frame_time p msg) in
    Engine.schedule engine ~at:done_at arrive
  in
  { name = "shared-bus"; send; resources = [ bus ]; faults = None }

let switched p ~n =
  let uplink = Array.init n (fun i -> Resource.create (Printf.sprintf "uplink%d" i)) in
  let downlink = Array.init n (fun i -> Resource.create (Printf.sprintf "downlink%d" i)) in
  let send engine msg ~arrive =
    let ft = frame_time p msg in
    (* Store-and-forward: the frame first occupies the sender's uplink, then
       the receiver's downlink. *)
    let up_done = Resource.reserve uplink.(msg.Message.src) ~now:(Engine.now engine) ~service:ft in
    Engine.schedule engine ~at:up_done (fun () ->
        let down_done =
          Resource.reserve downlink.(msg.Message.dst) ~now:(Engine.now engine) ~service:ft
        in
        Engine.schedule engine ~at:down_done arrive)
  in
  { name = "switched"; send; resources = Array.to_list uplink @ Array.to_list downlink; faults = None }

let constant ?(jitter = 0.0) ~delay ~n ~seed () =
  if delay < 0.0 || jitter < 0.0 then invalid_arg "Model.constant: negative delay";
  let rng = Rng.create seed in
  (* FIFO clamp: per-channel last arrival time, so jitter cannot reorder a
     reliable channel. *)
  let last = Array.make (n * n) Time.zero in
  let send engine msg ~arrive =
    let j = if jitter = 0.0 then 0.0 else Variate.uniform rng ~lo:0.0 ~hi:jitter in
    let at = Time.( + ) (Engine.now engine) (Time.( + ) delay j) in
    let chan = (msg.Message.src * n) + msg.Message.dst in
    let at = Time.max at last.(chan) in
    last.(chan) <- at;
    Engine.schedule engine ~at arrive
  in
  { name = "constant"; send; resources = []; faults = None }

type action = Pass | Drop | Delay_by of Time.t

let scripted ~base ~rule =
  let stats = Fault_stats.create () in
  let send engine msg ~arrive =
    match rule msg with
    | Pass -> base.send engine msg ~arrive
    | Drop ->
        stats.Fault_stats.drops <- stats.Fault_stats.drops + 1;
        Fault_stats.count_layer_drop stats (Message.layer_name msg);
        Engine.record engine msg.Message.src (Ics_sim.Trace.Net_drop msg.Message.dst)
    | Delay_by extra ->
        stats.Fault_stats.delays <- stats.Fault_stats.delays + 1;
        Engine.record engine msg.Message.src (Ics_sim.Trace.Net_delay msg.Message.dst);
        Engine.after engine ~delay:extra (fun () -> base.send engine msg ~arrive)
  in
  {
    name = "scripted(" ^ base.name ^ ")";
    send;
    resources = base.resources;
    faults = Some stats;
  }
