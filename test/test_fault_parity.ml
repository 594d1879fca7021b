(* Cross-backend fault parity: one seeded drop+partition plan, run once
   on the simulated transport and once as three forked OS processes on
   loopback TCP.  Per-(src, dst) RNG streams make the fault decisions a
   function of (seed, link, message index) only, so the live cluster's
   summed fault counters and total receipts must equal the simulation's
   exactly — and the merged live trace must satisfy the checker
   (vacuously: probes are not an atomic broadcast). *)

module FP = Ics_workload.Fault_parity
module Engine = Ics_sim.Engine
module Trace = Ics_sim.Trace
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Model = Ics_net.Model
module Nemesis = Ics_faults.Nemesis
module Clock = Ics_runtime.Clock
module Socket_transport = Ics_runtime.Socket_transport
module Cluster = Ics_runtime.Cluster
module Trace_io = Ics_runtime.Trace_io
module Checker = Ics_checker.Checker

let checki = Alcotest.(check int)

let warmup_ms = 150.0
let deadline_ms = warmup_ms +. (3.0 *. float_of_int FP.probes) +. 400.0
let trace_path dir i = Filename.concat dir (Printf.sprintf "parity%d.trace" i)
let kv_path dir i = Filename.concat dir (Printf.sprintf "parity%d.kv" i)

(* One OS process of the live half: raw socket transport + interposer,
   no protocol stack, no retransmission.  Runs to the fixed deadline
   (the workload has no completion barrier) and writes its receipt count
   and fault counters for the parent to sum. *)
let live_node ~self ~listen ~peer_addrs ~epoch ~dir =
  FP.register_codec ();
  let engine =
    Engine.create ~seed:(Int64.of_int (self + 1)) ~trace:`On ~n:FP.n ()
  in
  let clock = Clock.create ~epoch in
  let st =
    Socket_transport.create ~engine ~clock ~self ~listen ~peer_addrs ()
  in
  let transport = Socket_transport.transport st in
  let stats, _ =
    Nemesis.install ~self transport ~seed:FP.seed ~plan:FP.plan
      ~retransmit:false
  in
  let layer = Transport.intern transport FP.layer_name in
  let received = ref 0 in
  Transport.register transport self ~layer (fun msg ->
      match msg.Message.payload with FP.Probe _ -> incr received | _ -> ());
  FP.schedule_sends engine transport ~layer ~start:warmup_ms ~srcs:[ self ];
  ignore
    (Socket_transport.run st ~deadline:deadline_ms
       ~stop:(fun () -> false)
       ~leave:(fun () -> true)
      : Socket_transport.exit);
  Socket_transport.close st;
  Trace_io.save (trace_path dir self) (Engine.trace engine) ~keep:(fun e ->
      e.Trace.pid = self);
  Trace_io.save_kv (kv_path dir self)
    (("received", !received) :: Model.Fault_stats.to_list stats)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d =
      Filename.concat base (Printf.sprintf "ics-parity-%d-%d" (Unix.getpid ()) k)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (EEXIST, _, _) -> go (k + 1)
  in
  go 0

let run_live dir =
  let listeners =
    Array.init FP.n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen fd 64;
        fd)
  in
  let addrs = Array.map Unix.getsockname listeners in
  let epoch = Unix.gettimeofday () in
  flush stdout;
  flush stderr;
  let children =
    Array.init FP.n (fun i ->
        match Unix.fork () with
        | 0 ->
            let code =
              try
                Array.iteri
                  (fun j fd -> if j <> i then Unix.close fd)
                  listeners;
                live_node ~self:i ~listen:listeners.(i) ~peer_addrs:addrs
                  ~epoch ~dir;
                0
              with e ->
                Printf.eprintf "[parity node %d] fatal: %s\n%!" i
                  (Printexc.to_string e);
                11
            in
            flush stdout;
            flush stderr;
            Unix._exit code
        | pid -> pid)
  in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  Array.map
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED c -> c
      | _ -> 12
      | exception Unix.Unix_error _ -> 13)
    children

let test_parity () =
  if not (Cluster.supported ()) then ()
  else begin
    let sim = FP.sim () in
    let dir = fresh_dir () in
    Fun.protect
      ~finally:(fun () ->
        for i = 0 to FP.n - 1 do
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            [ trace_path dir i; kv_path dir i ]
        done;
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        let exits = run_live dir in
        Array.iteri
          (fun i c -> checki (Printf.sprintf "node %d exit" i) 0 c)
          exits;
        let kvs =
          Array.to_list
            (Array.init FP.n (fun i ->
                 let p = kv_path dir i in
                 if Sys.file_exists p then Trace_io.load_kv p else []))
        in
        let totals = Trace_io.sum_kv kvs in
        let total k = Option.value ~default:0 (List.assoc_opt k totals) in
        checki "total receipts"
          (Array.fold_left ( + ) 0 sim.FP.received)
          (total "received");
        List.iter
          (fun (k, v) -> checki ("fault counter " ^ k) v (total k))
          sim.FP.faults;
        (* And nothing extra on the live side either. *)
        List.iter
          (fun (k, v) ->
            if k <> "received" then
              checki
                ("live-only counter " ^ k)
                (Option.value ~default:0 (List.assoc_opt k sim.FP.faults))
                v)
          totals;
        let merged =
          Trace_io.merge
            (List.init FP.n (fun i ->
                 let p = trace_path dir i in
                 if Sys.file_exists p then Trace_io.load p else []))
        in
        let verdict =
          Checker.check_all_abcast (Checker.Run.of_trace merged ~n:FP.n)
        in
        Alcotest.(check bool) "merged live trace checker-ok" true
          (Checker.ok verdict))
  end

(* The deterministic halves of the invariant, checkable without sockets:
   the partition cuts exactly 4 directed links x [probes] messages, and
   every probe is either received or accounted to a fault counter. *)
let test_sim_accounting () =
  let sim = FP.sim () in
  let total k = Option.value ~default:0 (List.assoc_opt k sim.FP.faults) in
  checki "partition drops" (4 * FP.probes) (total "partition-drops");
  checki "probe conservation"
    (FP.n * (FP.n - 1) * FP.probes)
    (Array.fold_left ( + ) 0 sim.FP.received
    + total "partition-drops" + total "drops");
  checki "p0 hears nothing through the partition" 0 sim.FP.received.(0)

let suites =
  [
    ( "fault-parity",
      [
        Alcotest.test_case "sim accounting" `Quick test_sim_accounting;
        Alcotest.test_case "sim vs live cluster" `Slow test_parity;
      ] );
  ]
