module Pid = Ics_sim.Pid
module Time = Ics_sim.Time
module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id

type violation = { property : string; culprit : Pid.t option; detail : string }

let pp_violation ppf v =
  let culprit = match v.culprit with Some p -> Pid.to_string p | None -> "-" in
  Format.fprintf ppf "[%s] %s: %s" v.property culprit v.detail

type verdict = { violations : violation list; checked : string list }

let ok v = v.violations = []

let pp_verdict ppf v =
  if ok v then Format.fprintf ppf "OK (%s)" (String.concat ", " v.checked)
  else begin
    Format.fprintf ppf "%d violation(s):@." (List.length v.violations);
    List.iter (fun viol -> Format.fprintf ppf "  %a@." pp_violation viol) v.violations
  end

let merge verdicts =
  {
    violations = List.concat_map (fun v -> v.violations) verdicts;
    checked = List.concat_map (fun v -> v.checked) verdicts;
  }

module Id_set = Msg_id.Set

module Run = struct
  type t = {
    n : int;
    crash_times : (Pid.t, Time.t) Hashtbl.t;
    exit_times : (Pid.t, Time.t) Hashtbl.t;
        (* clean barrier exits (live runtime); exited processes are still
           correct, but termination checks stop at their exit time *)
    abroadcasts : (Pid.t * Msg_id.t * Time.t) list;
    adeliveries : Msg_id.t list array;  (* delivery order per process *)
    rdeliveries : Msg_id.t list array;  (* includes urb deliveries *)
    rdelivered_sets : Id_set.t array;
    proposes : (Pid.t * int * Msg_id.t list) list;
    decisions : (Pid.t * int * Msg_id.t list) list;
    first_propose_time : (int, Time.t) Hashtbl.t;
    first_decision_time : (int, Time.t) Hashtbl.t;
    first_rdeliver_time : (Pid.t * Msg_id.t, Time.t) Hashtbl.t;
    rbroadcasts : (Pid.t * Msg_id.t) list;  (* chronological *)
    local_events : [ `Bcast of Msg_id.t | `Deliv of Msg_id.t ] list array;
        (* per process, chronological broadcast-layer events *)
    app_submits : (Pid.t * int * int) list;
        (* chronological (pid, client, req); first attempts only *)
    app_applied : (int * int) list array;  (* per process, application order *)
    first_applied_time : (int * int, Time.t) Hashtbl.t;
        (* command -> earliest application anywhere *)
    app_hashes : (Pid.t * int * int64) list;  (* (pid, cursor, state hash) *)
    app_violation_events : (Pid.t * string) list;  (* machine probe firings *)
  }

  let of_trace trace ~n =
    let crash_times = Hashtbl.create 4 in
    let exit_times = Hashtbl.create 4 in
    let abroadcasts = ref [] in
    let adeliv = Array.make n [] in
    let rdeliv = Array.make n [] in
    let proposes = ref [] in
    let decisions = ref [] in
    let first_propose_time = Hashtbl.create 32 in
    let first_decision_time = Hashtbl.create 32 in
    let first_rdeliver_time = Hashtbl.create 256 in
    let rbroadcasts = ref [] in
    let local_events = Array.make n [] in
    let app_submits = ref [] in
    let app_applied = Array.make n [] in
    let first_applied_time = Hashtbl.create 256 in
    let app_hashes = ref [] in
    let app_violation_events = ref [] in
    Trace.iter trace (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Crash ->
            if not (Hashtbl.mem crash_times e.pid) then
              Hashtbl.add crash_times e.pid e.time
        | Trace.Exit ->
            if not (Hashtbl.mem exit_times e.pid) then
              Hashtbl.add exit_times e.pid e.time
        | Trace.Abroadcast id -> abroadcasts := (e.pid, id, e.time) :: !abroadcasts
        | Trace.Adeliver id -> adeliv.(e.pid) <- id :: adeliv.(e.pid)
        | Trace.Rdeliver id | Trace.Urb_deliver id ->
            rdeliv.(e.pid) <- id :: rdeliv.(e.pid);
            local_events.(e.pid) <- `Deliv id :: local_events.(e.pid);
            if not (Hashtbl.mem first_rdeliver_time (e.pid, id)) then
              Hashtbl.add first_rdeliver_time (e.pid, id) e.time
        | Trace.Propose (k, ids) ->
            proposes := (e.pid, k, ids) :: !proposes;
            if not (Hashtbl.mem first_propose_time k) then
              Hashtbl.add first_propose_time k e.time
        | Trace.Decide (k, ids) ->
            decisions := (e.pid, k, ids) :: !decisions;
            if not (Hashtbl.mem first_decision_time k) then
              Hashtbl.add first_decision_time k e.time
        | Trace.Rbroadcast id | Trace.Urb_broadcast id ->
            rbroadcasts := (e.pid, id) :: !rbroadcasts;
            local_events.(e.pid) <- `Bcast id :: local_events.(e.pid)
        | Trace.App_submit (client, req) ->
            app_submits := (e.pid, client, req) :: !app_submits
        | Trace.App_applied (client, req) ->
            app_applied.(e.pid) <- (client, req) :: app_applied.(e.pid);
            if not (Hashtbl.mem first_applied_time (client, req)) then
              Hashtbl.add first_applied_time (client, req) e.time
        | Trace.App_hash (cursor, h) -> app_hashes := (e.pid, cursor, h) :: !app_hashes
        | Trace.App_violation msg ->
            app_violation_events := (e.pid, msg) :: !app_violation_events
        | Trace.Suspect _ | Trace.Trust _ | Trace.Note _
        (* Injected faults are environment events, not protocol steps: the
           properties are checked against what the protocol did under them. *)
        | Trace.Net_drop _ | Trace.Net_dup _ | Trace.Net_delay _
        | Trace.Partition_start _ | Trace.Partition_heal _ -> ());
    let adeliveries = Array.map List.rev adeliv in
    let rdeliveries = Array.map List.rev rdeliv in
    {
      n;
      crash_times;
      exit_times;
      abroadcasts = List.rev !abroadcasts;
      adeliveries;
      rdeliveries;
      rdelivered_sets = Array.map Id_set.of_list rdeliveries;
      proposes = List.rev !proposes;
      decisions = List.rev !decisions;
      first_propose_time;
      first_decision_time;
      first_rdeliver_time;
      rbroadcasts = List.rev !rbroadcasts;
      local_events = Array.map List.rev local_events;
      app_submits = List.rev !app_submits;
      app_applied = Array.map List.rev app_applied;
      first_applied_time;
      app_hashes = List.rev !app_hashes;
      app_violation_events = List.rev !app_violation_events;
    }

  let n t = t.n
  let crash_time t p = Hashtbl.find_opt t.crash_times p
  let exit_time t p = Hashtbl.find_opt t.exit_times p
  let is_correct t p = not (Hashtbl.mem t.crash_times p)
  let correct t = List.filter (is_correct t) (Pid.all ~n:t.n)
  let crashed t = List.filter (fun p -> not (is_correct t p)) (Pid.all ~n:t.n)
  let abroadcasts t = t.abroadcasts
  let adeliveries t p = t.adeliveries.(p)
  let rdeliveries t p = t.rdeliveries.(p)
  let decisions t = t.decisions
  let rbroadcasts t = t.rbroadcasts
  let local_events t p = t.local_events.(p)
  let app_submits t = t.app_submits
  let app_applied t p = t.app_applied.(p)
  let app_hashes t = t.app_hashes
end

let dup_check ~property ~primitive run seqs =
  List.concat_map
    (fun p ->
      let seen = Hashtbl.create 64 in
      List.filter_map
        (fun id ->
          if Hashtbl.mem seen id then
            Some
              {
                property;
                culprit = Some p;
                detail = Printf.sprintf "%s delivered %s twice" primitive (Msg_id.to_string id);
              }
          else begin
            Hashtbl.add seen id ();
            None
          end)
        (seqs p))
    (Pid.all ~n:(Run.n run))

(* Deliveries must come from broadcast messages. *)
let sourced_check ~property ~primitive run seqs broadcast_ids =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun id ->
          if Id_set.mem id broadcast_ids then None
          else
            Some
              {
                property;
                culprit = Some p;
                detail =
                  Printf.sprintf "%s delivered %s which was never broadcast" primitive
                    (Msg_id.to_string id);
              })
        (seqs p))
    (Pid.all ~n:(Run.n run))

let abroadcast_ids_of run =
  Id_set.of_list (List.map (fun (_, id, _) -> id) (Run.abroadcasts run))

(* Ids legitimately injected at the broadcast layer: either through atomic
   broadcast or directly via a broadcast primitive. *)
let broadcast_ids_of run =
  Id_set.union (abroadcast_ids_of run)
    (Id_set.of_list (List.map snd (Run.rbroadcasts run)))

let check_broadcast_generic ~uniform ~prefix run =
  let property name = prefix ^ "." ^ name in
  let seqs p = Run.rdeliveries run p in
  let broadcast_ids = broadcast_ids_of run in
  let correct = Run.correct run in
  let integrity =
    dup_check ~property:(property "uniform-integrity") ~primitive:prefix run seqs
    @ sourced_check ~property:(property "uniform-integrity") ~primitive:prefix run seqs
        broadcast_ids
  in
  let delivered_sets = Array.init (Run.n run) (fun p -> Id_set.of_list (seqs p)) in
  (* Validity: a correct broadcaster delivers its own message. *)
  let validity =
    List.filter_map
      (fun (p, id, _) ->
        if List.mem p correct && not (Id_set.mem id delivered_sets.(p)) then
          Some
            {
              property = property "validity";
              culprit = Some p;
              detail =
                Printf.sprintf "correct broadcaster never delivered its own %s"
                  (Msg_id.to_string id);
            }
        else None)
      (Run.abroadcasts run)
  in
  (* Agreement: deliveries by correct (or, if uniform, by any) process must
     reach every correct process. *)
  let witnesses =
    List.filter (fun p -> uniform || List.mem p correct) (Pid.all ~n:(Run.n run))
  in
  let witnessed =
    List.fold_left
      (fun acc w -> Id_set.union acc delivered_sets.(w))
      Id_set.empty witnesses
  in
  let agreement =
    List.concat_map
      (fun q ->
        let missing = Id_set.diff witnessed delivered_sets.(q) in
        List.map
          (fun id ->
            {
              property = property (if uniform then "uniform-agreement" else "agreement");
              culprit = Some q;
              detail =
                Printf.sprintf "%s delivered somewhere but not by correct %s"
                  (Msg_id.to_string id) (Pid.to_string q);
            })
          (Id_set.elements missing))
      correct
  in
  {
    violations = integrity @ validity @ agreement;
    checked =
      [
        property "validity";
        property "uniform-integrity";
        property (if uniform then "uniform-agreement" else "agreement");
      ];
  }

let check_reliable_broadcast run = check_broadcast_generic ~uniform:false ~prefix:"rb" run
let check_uniform_broadcast run = check_broadcast_generic ~uniform:true ~prefix:"urb" run

let group_by_instance events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (p, k, ids) ->
      let l = try Hashtbl.find tbl k with Not_found -> [] in
      Hashtbl.replace tbl k ((p, ids) :: l))
    events;
  Ics_prelude.Sorted_tbl.fold ~cmp:Int.compare
    (fun k l acc -> (k, List.rev l) :: acc)
    tbl []
  |> List.rev

let check_consensus run =
  let correct = Run.correct run in
  let decisions_by_k = group_by_instance run.Run.decisions in
  let proposes_by_k = group_by_instance run.Run.proposes in
  let violations = ref [] in
  let add property culprit detail = violations := { property; culprit; detail } :: !violations in
  (* Uniform integrity: at most one decision per (p, k). *)
  List.iter
    (fun (k, decs) ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (p, _) ->
          if Hashtbl.mem seen p then
            add "consensus.uniform-integrity" (Some p)
              (Printf.sprintf "process decided twice in instance %d" k)
          else Hashtbl.add seen p ())
        decs)
    decisions_by_k;
  (* Uniform agreement: all decisions of an instance are the same set. *)
  List.iter
    (fun (k, decs) ->
      match decs with
      | [] -> ()
      | (p0, v0) :: rest ->
          List.iter
            (fun (p, v) ->
              if not (List.equal Msg_id.equal v v0) then
                add "consensus.uniform-agreement" (Some p)
                  (Printf.sprintf "instance %d: decided {%s} but %s decided {%s}" k
                     (String.concat "," (List.map Msg_id.to_string v))
                     (Pid.to_string p0)
                     (String.concat "," (List.map Msg_id.to_string v0))))
            rest)
    decisions_by_k;
  (* Uniform validity: the decided set was proposed by some process. *)
  List.iter
    (fun (k, decs) ->
      match decs with
      | [] -> ()
      | (_, v) :: _ ->
          let proposals =
            match List.assoc_opt k proposes_by_k with Some l -> List.map snd l | None -> []
          in
          let sorted l = List.sort Msg_id.compare l in
          if not
               (List.exists
                  (fun prop -> List.equal Msg_id.equal (sorted prop) (sorted v))
                  proposals)
          then
            add "consensus.uniform-validity" None
              (Printf.sprintf "instance %d: decided {%s} matches no proposal" k
                 (String.concat "," (List.map Msg_id.to_string v))))
    decisions_by_k;
  (* Termination: a decided instance is decided by every correct process.
     A clean barrier exit (live runtime) bounds the obligation: a process
     that left the run before an instance's first decision cannot be
     expected to have decided it (trailing pipelined instances keep
     deciding while the first nodes are already past the barrier). *)
  List.iter
    (fun (k, decs) ->
      let deciders = List.map fst decs in
      let first_decided = Hashtbl.find_opt run.Run.first_decision_time k in
      List.iter
        (fun q ->
          let excused =
            match (Run.exit_time run q, first_decided) with
            | Some te, Some td -> td > te
            | _ -> false
          in
          if (not (List.mem q deciders)) && not excused then
            add "consensus.termination" (Some q)
              (Printf.sprintf "instance %d decided elsewhere but not by correct process" k))
        correct)
    decisions_by_k;
  (* Termination: an instance proposed by a correct process decides.  Once
     the first clean exit has happened the quorum is no longer guaranteed,
     so instances first proposed after that point are exempt. *)
  let shutdown_start =
    List.fold_left
      (fun acc q ->
        match Run.exit_time run q with
        | Some te -> ( match acc with None -> Some te | Some t -> Some (Float.min t te))
        | None -> acc)
      None correct
  in
  List.iter
    (fun (k, props) ->
      let proposed_by_correct = List.exists (fun (p, _) -> List.mem p correct) props in
      let decided = List.mem_assoc k decisions_by_k in
      let excused =
        match (shutdown_start, Hashtbl.find_opt run.Run.first_propose_time k) with
        | Some te, Some tp -> tp > te
        | _ -> false
      in
      if proposed_by_correct && (not decided) && not excused then
        add "consensus.termination" None
          (Printf.sprintf "instance %d proposed by a correct process but never decided" k))
    proposes_by_k;
  {
    violations = List.rev !violations;
    checked =
      [
        "consensus.uniform-integrity";
        "consensus.uniform-agreement";
        "consensus.uniform-validity";
        "consensus.termination";
      ];
  }

let check_no_loss ?(strict = false) run =
  let correct = Run.correct run in
  (* Eventual reading: some correct process holds the payload by the end
     of the run.  Strict reading (the paper's statement): some correct
     process already held it when the instance's first decision fired. *)
  let held_by_correct ~deadline id =
    List.exists
      (fun p ->
        match deadline with
        | None -> Id_set.mem id run.Run.rdelivered_sets.(p)
        | Some t -> (
            match Hashtbl.find_opt run.Run.first_rdeliver_time (p, id) with
            | Some t' -> t' <= t
            | None -> false))
      correct
  in
  let decisions_by_k = group_by_instance run.Run.decisions in
  let violations =
    List.concat_map
      (fun (k, decs) ->
        match decs with
        | [] -> []
        | (_, v) :: _ ->
            let deadline =
              if strict then Hashtbl.find_opt run.Run.first_decision_time k else None
            in
            List.filter_map
              (fun id ->
                if held_by_correct ~deadline id then None
                else
                  Some
                    {
                      property =
                        (if strict then "indirect-consensus.no-loss-strict"
                         else "indirect-consensus.no-loss");
                      culprit = None;
                      detail =
                        Printf.sprintf
                          "instance %d decided %s but no correct process held its payload%s"
                          k (Msg_id.to_string id)
                          (if strict then " at decision time" else " by the end of the run");
                    })
              v)
      decisions_by_k
  in
  {
    violations;
    checked =
      [ (if strict then "indirect-consensus.no-loss-strict" else "indirect-consensus.no-loss") ];
  }

let is_prefix a b =
  (* a is a prefix of b *)
  let rec loop a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> Msg_id.equal x y && loop a' b'
  in
  loop a b

let check_atomic_broadcast run =
  let n = Run.n run in
  let correct = Run.correct run in
  let seqs p = Run.adeliveries run p in
  let broadcast_ids = abroadcast_ids_of run in
  let violations = ref [] in
  let add property culprit detail = violations := { property; culprit; detail } :: !violations in
  (* Uniform integrity. *)
  List.iter
    (fun v -> violations := v :: !violations)
    (dup_check ~property:"abcast.uniform-integrity" ~primitive:"abcast" run seqs
    @ sourced_check ~property:"abcast.uniform-integrity" ~primitive:"abcast" run seqs
        broadcast_ids);
  let delivered_sets = Array.init n (fun p -> Id_set.of_list (seqs p)) in
  (* Validity. *)
  List.iter
    (fun (p, id, _) ->
      if List.mem p correct && not (Id_set.mem id delivered_sets.(p)) then
        add "abcast.validity" (Some p)
          (Printf.sprintf "correct broadcaster never adelivered its own %s"
             (Msg_id.to_string id)))
    (Run.abroadcasts run);
  (* Uniform agreement: anything delivered anywhere (even by a process that
     later crashed) must be delivered by every correct process. *)
  let witnessed =
    Array.fold_left (fun acc s -> Id_set.union acc s) Id_set.empty delivered_sets
  in
  List.iter
    (fun q ->
      Id_set.iter
        (fun id ->
          add "abcast.uniform-agreement" (Some q)
            (Printf.sprintf "%s adelivered somewhere but not by correct %s"
               (Msg_id.to_string id) (Pid.to_string q)))
        (Id_set.diff witnessed delivered_sets.(q)))
    correct;
  (* Uniform total order: all sequences pairwise prefix-compatible. *)
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if p < q then begin
            let sp = seqs p and sq = seqs q in
            let shorter, longer, sh, lo =
              if List.length sp <= List.length sq then (sp, sq, p, q) else (sq, sp, q, p)
            in
            if not (is_prefix shorter longer) then
              add "abcast.uniform-total-order" (Some sh)
                (Printf.sprintf "delivery sequence of %s is not a prefix of %s's"
                   (Pid.to_string sh) (Pid.to_string lo))
          end)
        (Pid.all ~n))
    (Pid.all ~n);
  {
    violations = List.rev !violations;
    checked =
      [
        "abcast.validity";
        "abcast.uniform-integrity";
        "abcast.uniform-agreement";
        "abcast.uniform-total-order";
      ];
  }

(* FIFO order: for each origin, a process's deliveries of that origin's
   messages must be a prefix of the origin's broadcast order. *)
let check_fifo_order run =
  let by_origin = Hashtbl.create 8 in
  List.iter
    (fun (origin, id) ->
      let l = try Hashtbl.find by_origin origin with Not_found -> [] in
      Hashtbl.replace by_origin origin (id :: l))
    (Run.rbroadcasts run);
  let violations = ref [] in
  (* Key-sorted so the violation report order is stable across runs. *)
  Ics_prelude.Sorted_tbl.iter ~cmp:Pid.compare
    (fun origin rev_order ->
      let order = List.rev rev_order in
      List.iter
        (fun p ->
          let delivered_from_origin =
            List.filter (fun id -> List.mem id order) (Run.rdeliveries run p)
          in
          if not (is_prefix delivered_from_origin order) then
            violations :=
              {
                property = "broadcast.fifo-order";
                culprit = Some p;
                detail =
                  Printf.sprintf "deliveries of %s's messages are out of broadcast order"
                    (Pid.to_string origin);
              }
              :: !violations)
        (Pid.all ~n:(Run.n run)))
    by_origin;
  { violations = List.rev !violations; checked = [ "broadcast.fifo-order" ] }

(* Causal order: m1 happens-before m2 when m2's origin had broadcast or
   delivered m1 before broadcasting m2; every process delivering both must
   deliver m1 first. *)
let check_causal_order run =
  (* For each broadcast message, the set of ids its origin had seen (sent
     or delivered) strictly before broadcasting it. *)
  let predecessors = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let seen = ref [] in
      List.iter
        (fun ev ->
          match ev with
          | `Bcast id ->
              Hashtbl.replace predecessors id !seen;
              seen := id :: !seen
          | `Deliv id -> if not (List.mem id !seen) then seen := id :: !seen)
        (Run.local_events run p))
    (Pid.all ~n:(Run.n run));
  let violations = ref [] in
  List.iter
    (fun p ->
      let pos = Hashtbl.create 64 in
      List.iteri (fun i id -> if not (Hashtbl.mem pos id) then Hashtbl.add pos id i)
        (Run.rdeliveries run p);
      Ics_prelude.Sorted_tbl.iter ~cmp:Msg_id.compare
        (fun m2 preds ->
          match Hashtbl.find_opt pos m2 with
          | None -> ()
          | Some i2 ->
              List.iter
                (fun m1 ->
                  match Hashtbl.find_opt pos m1 with
                  | Some i1 when i1 > i2 ->
                      violations :=
                        {
                          property = "broadcast.causal-order";
                          culprit = Some p;
                          detail =
                            Printf.sprintf "%s causally precedes %s but was delivered after"
                              (Msg_id.to_string m1) (Msg_id.to_string m2);
                        }
                        :: !violations
                  | Some _ -> ()
                  | None ->
                      violations :=
                        {
                          property = "broadcast.causal-order";
                          culprit = Some p;
                          detail =
                            Printf.sprintf "%s delivered without its causal predecessor %s"
                              (Msg_id.to_string m2) (Msg_id.to_string m1);
                        }
                        :: !violations)
                preds)
        predecessors)
    (Pid.all ~n:(Run.n run));
  { violations = List.rev !violations; checked = [ "broadcast.causal-order" ] }

let check_all_abcast run =
  merge
    [
      check_atomic_broadcast run;
      check_consensus run;
      check_no_loss run;
      check_no_loss ~strict:true run;
    ]

(* The application layer's semantic properties, checked against the app
   trace events the hosted state machine emits.  These sit above the
   abstract abcast properties: a run can order ids perfectly and still be
   wrong here (a machine that lost a command, diverged state, or applied
   a retry twice), and conversely a blackout that merely *stalls* the
   stack shows up as client commands that never take effect even though
   no ordering property is violated. *)
let check_app run =
  let violations = ref [] in
  let add property culprit detail =
    violations := { property; culprit; detail } :: !violations
  in
  (* app.probes: the machine's own invariant probes (conservation of
     funds, read-your-writes, gap, cas) must never fire. *)
  List.iter
    (fun (p, msg) -> add "app.probes" (Some p) msg)
    run.Run.app_violation_events;
  (* app.dedup / app.order: effects are exactly-once and per-client FIFO.
     An App_applied event is an executed (non-duplicate) command, so per
     process each (client, req) appears at most once, with each client's
     reqs strictly increasing. *)
  List.iter
    (fun p ->
      let last = Hashtbl.create 64 in
      List.iter
        (fun (client, req) ->
          (match Hashtbl.find_opt last client with
          | Some r when req = r ->
              add "app.dedup" (Some p)
                (Printf.sprintf "client %d req %d took effect twice" client req)
          | Some r when req < r ->
              add "app.order" (Some p)
                (Printf.sprintf "client %d req %d applied after req %d" client req r)
          | _ -> ());
          match Hashtbl.find_opt last client with
          | Some r when r > req -> ()
          | _ -> Hashtbl.replace last client req)
        (Run.app_applied run p))
    (Pid.all ~n:(Run.n run));
  (* app.hash-agreement: replicas at the same cursor hold the same state.
     Stronger than total order alone — it certifies the machines executed
     the shared order to identical effect, on either backend. *)
  let by_cursor = Hashtbl.create 32 in
  List.iter
    (fun (p, cursor, h) ->
      let l = try Hashtbl.find by_cursor cursor with Not_found -> [] in
      Hashtbl.replace by_cursor cursor ((p, h) :: l))
    run.Run.app_hashes;
  Ics_prelude.Sorted_tbl.iter ~cmp:Int.compare
    (fun cursor entries ->
      match List.rev entries with
      | [] -> ()
      | (p0, h0) :: rest ->
          List.iter
            (fun (p, h) ->
              if not (Int64.equal h h0) then
                add "app.hash-agreement" (Some p)
                  (Printf.sprintf "state hash %Lx at cursor %d, but %s hashed %Lx" h
                     cursor (Pid.to_string p0) h0))
            rest)
    by_cursor;
  (* app.progress: a command submitted by a correct process takes effect
     at every correct replica.  This is the end-to-end liveness statement
     — and the semantic blackout signal: a stalled-but-safe run fails
     here, because clients submitted and nothing ever happened.  Crashed
     submitters are excused (their command may never have left the node);
     a replica that exited before the command's first application
     anywhere is excused (it left the run before the effect existed).
     One (client, req) set per replica keeps this linear in the trace. *)
  let submit_seen = Hashtbl.create 256 in
  let correct = Run.correct run in
  let applied_at =
    Array.init (Run.n run) (fun q ->
        let set = Hashtbl.create 256 in
        List.iter (fun cr -> Hashtbl.replace set cr ()) (Run.app_applied run q);
        set)
  in
  List.iter
    (fun (src, client, req) ->
      if (not (Hashtbl.mem submit_seen (client, req))) && Run.is_correct run src
      then begin
        Hashtbl.add submit_seen (client, req) ();
        let first_applied = Hashtbl.find_opt run.Run.first_applied_time (client, req) in
        List.iter
          (fun q ->
            let applied_here = Hashtbl.mem applied_at.(q) (client, req) in
            let excused =
              match (Run.exit_time run q, first_applied) with
              | Some te, Some ta -> ta > te
              | _ -> false
            in
            if (not applied_here) && not excused then
              add "app.progress" (Some q)
                (Printf.sprintf
                   "client %d req %d submitted by correct %s but never took effect"
                   client req (Pid.to_string src)))
          correct
      end)
    run.Run.app_submits;
  {
    violations = List.rev !violations;
    checked =
      [ "app.probes"; "app.dedup"; "app.order"; "app.hash-agreement"; "app.progress" ];
  }
