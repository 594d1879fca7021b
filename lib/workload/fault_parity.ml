(* Cross-backend fault parity: one fixed probe workload under one fixed
   drop+partition plan, runnable on the simulated transport and — from
   the test suite — as a forked loopback cluster.  The fault middleware
   draws from per-(src, dst) streams, so the k-th probe on a link must
   see the same fate on both backends; the fault counters (summed
   per-node for the live run) and the per-destination receipt counts are
   the invariant.  No retransmission: the raw fault decisions are the
   thing under test. *)

module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Model = Ics_net.Model
module Host = Ics_net.Host
module Nemesis = Ics_faults.Nemesis
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim
module Rng = Ics_prelude.Rng

type Message.payload += Probe of int

let register_codec () =
  Codec.register ~tag:0x50 ~name:"parity.probe"
    ~fits:(function Probe _ -> true | _ -> false)
    ~size:(fun _ -> 5)
    ~encode_into:(fun w -> function Probe k -> Prim.u32 w k | _ -> assert false)
    ~dec:(fun r -> Probe (Prim.r_u32 r))
    ~gen:(fun rng -> Probe (Rng.int rng 10_000))

let n = 3
let probes = 40
let seed = 0xFA17L
let layer_name = "parity"

(* Partition cuts 0↔1 and 0↔2 for the whole run (4 directed links × 40
   probes = 160 partition drops, deterministically); the surviving 1↔2
   links face the seeded coin flips. *)
let plan =
  [
    Nemesis.Drop
      { link = Nemesis.any_link; prob = 0.5; window = Nemesis.always };
    Nemesis.Partition
      { groups = [ [ 0 ]; [ 1; 2 ] ]; window = Nemesis.always };
  ]

let send_time ~start k = start +. (3.0 *. float_of_int k)

(* Slot [k] sends probe [k] on every directed link whose source is in
   [srcs] — the whole mesh for the simulation, a single node's outbound
   links live.  Link decisions depend only on the per-link message index,
   so the two backends may run the slots at different wall times. *)
let schedule_sends engine transport ~layer ~start ~srcs =
  for k = 0 to probes - 1 do
    List.iter
      (fun src ->
        for dst = 0 to n - 1 do
          if dst <> src then
            Engine.schedule engine ~at:(send_time ~start k) (fun () ->
                Transport.send transport ~src ~dst ~layer ~body_bytes:5
                  (Probe k))
        done)
      srcs
  done

type outcome = {
  received : int array;  (** probe receipts per destination *)
  faults : (string * int) list;
  fingerprint : string;  (** digest of the simulated trace *)
}

let sim () =
  register_codec ();
  let engine = Engine.create ~seed ~trace:`On ~n () in
  let model = Model.constant ~delay:1.0 ~n ~seed:(Int64.add seed 7919L) () in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let stats, _ = Nemesis.install transport ~seed ~plan ~retransmit:false in
  let layer = Transport.intern transport layer_name in
  let received = Array.make n 0 in
  for pid = 0 to n - 1 do
    Transport.register transport pid ~layer (fun msg ->
        match msg.Message.payload with
        | Probe _ -> received.(msg.Message.dst) <- received.(msg.Message.dst) + 1
        | _ -> ())
  done;
  schedule_sends engine transport ~layer ~start:1.0 ~srcs:[ 0; 1; 2 ];
  Engine.run_due engine ~upto:1_000.0;
  let trace = Engine.trace engine in
  {
    received;
    faults = Model.Fault_stats.to_list stats;
    fingerprint = Ics_sim.Trace.fingerprint trace;
  }
