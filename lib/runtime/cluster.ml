module Trace = Ics_sim.Trace
module Msg_id = Ics_net.Msg_id
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module Checker = Ics_checker.Checker

type spawn =
  [ `Fork  (** fork this process; config passes by inheritance *)
  | `Exec of string
    (** spawn [exe node ...] children; config passes through
        [Profile.to_args] — plain workloads only (no fault plan) *) ]

type config = {
  node : Node.config;  (** [self] is ignored; each child gets its own *)
  dir : string option;  (** where per-node trace files go (default: temp) *)
  keep_dir : bool;
  spawn : spawn;
  check : [ `By_ordering | `All ];
      (** which checker battery judges the merged trace *)
}

let default =
  {
    node = Node.default_workload;
    dir = None;
    keep_dir = false;
    spawn = `Fork;
    check = `By_ordering;
  }

type outcome = {
  verdict : Checker.verdict;
  delivered_per_node : int array;
  expected_per_node : int;
  exits : int array;  (** per-node exit codes (0 = clean barrier exit) *)
  duration_ms : float;  (** first abroadcast to last adelivery, merged clock *)
  latency : Ics_prelude.Stats.summary option;
  app_latency : Ics_prelude.Stats.summary option;
      (** client-visible: App_submit to App_applied at the client's home *)
  app_hash : (int * int64) option;
      (** deepest state-hash event: (applied cursor, canonical hash) *)
  throughput_msg_s : float;  (** distinct messages ordered per second *)
  events : int;
  faults : (string * int) list;  (** per-node fault counters, summed *)
  retx : (string * int) list;
  trace_dir : string;
}

let ok outcome = Checker.ok outcome.verdict && Array.for_all (fun c -> c = 0) outcome.exits

(* Can this sandbox do loopback TCP at all?  Some build environments
   forbid socket creation; the smoke target skips gracefully there. *)
let supported () =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd -> (
      match
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen fd 1
      with
      | () ->
          Unix.close fd;
          true
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          false)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d =
      Filename.concat base
        (Printf.sprintf "ics-cluster-%d-%d" (Unix.getpid ()) k)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (EEXIST, _, _) -> go (k + 1)
  in
  go 0

let trace_path dir i = Filename.concat dir (Printf.sprintf "node%d.trace" i)
let stats_path dir i = Filename.concat dir (Printf.sprintf "node%d.stats" i)

let split_kv prefix kvs =
  List.filter_map
    (fun (k, v) ->
      let plen = String.length prefix in
      if String.length k > plen && String.sub k 0 plen = prefix then
        Some (String.sub k plen (String.length k - plen), v)
      else None)
    kvs

(* Percentile digest, None when no samples arrived: a run where nothing
   was delivered (or no command took effect) must report "no data", not a
   summary of an empty list. *)
let summarize_opt = function
  | [] -> None
  | l -> Some (Ics_prelude.Stats.summarize l)

(* Latency/throughput digest of the merged trace.  Message latency is
   Abroadcast -> Adeliver per delivery; app latency is client-visible —
   App_submit to the App_applied at the same pid (the client's home
   replica, where the closed loop unblocks). *)
let measure events =
  let bcast = Msg_id.Table.create 256 in
  let first_b = ref infinity and last_d = ref neg_infinity in
  let samples = ref [] in
  let ordered = Msg_id.Table.create 256 in
  let app_submit = Hashtbl.create 256 in
  let app_samples = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Abroadcast id ->
          if not (Msg_id.Table.mem bcast id) then Msg_id.Table.add bcast id e.Trace.time;
          if e.Trace.time < !first_b then first_b := e.Trace.time
      | Trace.Adeliver id ->
          if e.Trace.time > !last_d then last_d := e.Trace.time;
          Msg_id.Table.replace ordered id ();
          (match Msg_id.Table.find_opt bcast id with
          | Some t0 -> samples := (e.Trace.time -. t0) :: !samples
          | None -> ())
      | Trace.App_submit (c, r) ->
          if not (Hashtbl.mem app_submit (c, r)) then
            Hashtbl.add app_submit (c, r) (e.Trace.pid, e.Trace.time)
      | Trace.App_applied (c, r) -> (
          match Hashtbl.find_opt app_submit (c, r) with
          | Some (home, t0) when home = e.Trace.pid ->
              app_samples := (e.Trace.time -. t0) :: !app_samples;
              Hashtbl.remove app_submit (c, r)
          | _ -> ())
      | _ -> ())
    events;
  let duration = if !last_d > !first_b then !last_d -. !first_b else 0.0 in
  let throughput =
    if duration > 0.0 then float_of_int (Msg_id.Table.length ordered) /. duration *. 1000.0
    else 0.0
  in
  (duration, summarize_opt !samples, summarize_opt !app_samples, throughput)

let fork_children ~config ~dir ~epoch ~listeners ~addrs n =
  flush stdout;
  flush stderr;
  let children =
    Array.init n (fun i ->
        match Unix.fork () with
        | 0 ->
            (* Child: embody pid [i].  [Unix._exit] skips at_exit (the
               parent's buffered output must not be re-flushed here). *)
            let code =
              try
                Array.iteri (fun j fd -> if j <> i then Unix.close fd) listeners;
                let r =
                  Node.run ~epoch ~listen:listeners.(i) ~peer_addrs:addrs
                    { config.node with Node.self = i }
                in
                Trace_io.save (trace_path dir i) r.Node.trace ~keep:(fun e ->
                    e.Trace.pid = i);
                Trace_io.save_kv (stats_path dir i) (Node.result_kv r);
                if r.Node.clean_exit then 0 else 10
              with e ->
                Printf.eprintf "[node %d] fatal: %s\n%!" i (Printexc.to_string e);
                11
            in
            flush stdout;
            flush stderr;
            Unix._exit code
        | pid -> pid)
  in
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  children

let exec_children ~config ~dir ~epoch ~listeners ~addrs ~exe n =
  if config.node.Node.plan <> [] then
    invalid_arg "Cluster.run: `Exec spawn cannot carry a fault plan";
  let ports =
    Array.map
      (function Unix.ADDR_INET (_, port) -> port | _ -> assert false)
      addrs
  in
  (* Exec children bind their own listeners from --ports; release the
     parent's reservations first.  (A brief reuse race is possible, which
     is why `Fork — inherited pre-bound listeners — is the default.) *)
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  let ports_csv =
    String.concat "," (Array.to_list (Array.map string_of_int ports))
  in
  Array.init n (fun i ->
      let argv =
        [
          exe;
          "node";
          "--self";
          string_of_int i;
          "--ports";
          ports_csv;
          "--epoch";
          Printf.sprintf "%.6f" epoch;
          "--trace-out";
          trace_path dir i;
          "--stats-out";
          stats_path dir i;
        ]
        @ Profile.to_args config.node.Node.profile
      in
      Unix.create_process exe (Array.of_list argv) Unix.stdin Unix.stdout
        Unix.stderr)

let run config =
  if not (supported ()) then Error "loopback sockets unavailable in this environment"
  else begin
    let profile = config.node.Node.profile in
    let n = profile.Profile.n in
    if n <= 0 then invalid_arg "Cluster.run: n <= 0";
    let dir = match config.dir with Some d -> d | None -> fresh_dir () in
    (* Pre-bind every listener in the parent: children inherit them, so a
       child's dial can never hit a not-yet-bound port. *)
    let listeners =
      Array.init n (fun _ ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen fd 64;
          fd)
    in
    let addrs = Array.map Unix.getsockname listeners in
    let epoch = Unix.gettimeofday () in
    let children =
      match config.spawn with
      | `Fork -> fork_children ~config ~dir ~epoch ~listeners ~addrs n
      | `Exec exe -> exec_children ~config ~dir ~epoch ~listeners ~addrs ~exe n
    in
    (* Reap with a hard wall-clock cap: deadline + slack, then SIGKILL. *)
    let slack_ms = 3_000.0 in
    let give_up = epoch +. ((profile.Profile.deadline_ms +. slack_ms) /. 1000.0) in
    let exits = Array.make n (-1) in
    let remaining = ref n in
    while !remaining > 0 && Unix.gettimeofday () < give_up do
      Array.iteri
        (fun i pid ->
          if exits.(i) < 0 then
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _, Unix.WEXITED c ->
                exits.(i) <- c;
                decr remaining
            | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
                exits.(i) <- 12;
                decr remaining
            | exception Unix.Unix_error (ECHILD, _, _) ->
                exits.(i) <- 13;
                decr remaining)
        children;
      if !remaining > 0 then Unix.sleepf 0.02
    done;
    Array.iteri
      (fun i pid ->
        if exits.(i) < 0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          exits.(i) <- 14
        end)
      children;
    (* Merge the per-node logs and replay the checker over them — in a
       live run the checker, not determinism, is the oracle. *)
    let per_node =
      Array.to_list
        (Array.init n (fun i ->
             let path = trace_path dir i in
             if Sys.file_exists path then Trace_io.load path else []))
    in
    let merged = Trace_io.merge per_node in
    let run = Checker.Run.of_trace merged ~n in
    let verdict =
      match (config.check, profile.Profile.ordering) with
      | `All, _ | `By_ordering, Abcast.Indirect_consensus ->
          Checker.check_all_abcast run
      | `By_ordering, (Abcast.Consensus_on_messages | Abcast.Consensus_on_ids)
        ->
          Checker.check_atomic_broadcast run
    in
    (* With an app hosted, its semantic battery judges the run too. *)
    let verdict =
      match profile.Profile.app with
      | Profile.Kv -> Checker.merge [ verdict; Checker.check_app run ]
      | Profile.No_app -> verdict
    in
    let app_hash =
      List.fold_left
        (fun acc (_, c, h) ->
          match acc with Some (c0, _) when c0 >= c -> acc | _ -> Some (c, h))
        None
        (Checker.Run.app_hashes run)
    in
    let events_list = Trace.events merged in
    let duration_ms, latency, app_latency, throughput_msg_s = measure events_list in
    let delivered_per_node =
      Array.init n (fun i -> List.length (Checker.Run.adeliveries run i))
    in
    let node_stats =
      Array.to_list
        (Array.init n (fun i ->
             let path = stats_path dir i in
             if Sys.file_exists path then Trace_io.load_kv path else []))
    in
    let totals = Trace_io.sum_kv node_stats in
    let expected_per_node =
      match profile.Profile.app with
      | Profile.Kv when not config.node.Node.chaos_workload ->
          profile.Profile.clients * profile.Profile.requests
      | _ ->
          if config.node.Node.chaos_workload then profile.Profile.count
          else profile.Profile.count * n
    in
    let outcome =
      {
        verdict;
        delivered_per_node;
        expected_per_node;
        exits;
        duration_ms;
        latency;
        app_latency;
        app_hash;
        throughput_msg_s;
        events = Trace.length merged;
        faults = split_kv "fault." totals;
        retx = split_kv "retx." totals;
        trace_dir = dir;
      }
    in
    if (not config.keep_dir) && config.dir = None then begin
      Array.iter
        (fun i ->
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            [ trace_path dir i; stats_path dir i ])
        (Array.init n Fun.id);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end;
    Ok outcome
  end
