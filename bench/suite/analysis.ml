(* Bench-side analyses over structural traces.  They run identically on
   a simulated trace and on a merged live trace: both are Trace.t values
   in chronological order. *)

module Trace = Ics_sim.Trace
module Msg_id = Ics_sim.Msg_id

(* ------------------------------------------------------------------ *)
(* Stage split                                                         *)
(* ------------------------------------------------------------------ *)

type stages = {
  completed : int;
  undelivered : int;
  e2e : float array;
  propose_wait : float array;
  decide : float array;
  commit_wait : float array;
  disseminate : float array;
}

type msg = {
  mutable t0 : float;  (* Abroadcast time; nan until seen *)
  mutable proposed : (int * float) list;
      (* instance -> time of the first Propose holding the id there *)
}

(* Each stage ends where the next begins, so per (message, replica) pair
   the three ordering stages sum to the end-to-end latency exactly:
     t0  Abroadcast (or the caller's due time)
     t1  first Propose(k, ids ∋ m) at any process, k the instance whose
         Decide orders m at p (the lowest instance holding m: decisions
         apply in instance order, later duplicates are skipped)
     t2  first Decide(k) at any process: consensus time belongs to the
         instance, not to the replica that hears of it
     t3  Adeliver(m) at p
   Commit wait therefore holds the decision's trip to p, the wait for
   earlier instances, and any payload wait: a payload that reaches p
   only after the decision — ring dissemination announces ids first —
   waits there.  Dissemination (Rdeliver at p − t0) runs alongside. *)
let split ?due ?(measured = fun _ -> true) ~n trace =
  let msgs = Msg_id.Table.create 4096 in
  let info id =
    match Msg_id.Table.find_opt msgs id with
    | Some m -> m
    | None ->
        let m = { t0 = Float.nan; proposed = [] } in
        Msg_id.Table.add msgs id m;
        m
  in
  let per_pid () = Array.init n (fun _ -> Msg_id.Table.create 4096) in
  let decided = per_pid () and rdelivered = per_pid () and adelivered = per_pid () in
  let first_decide = Hashtbl.create 1024 in
  let crashed = Array.make n false in
  let adelivers = ref [] in
  Trace.iter trace (fun (e : Trace.event) ->
      let p = e.Trace.pid and t = e.Trace.time in
      if p >= 0 && p < n then
        match e.Trace.kind with
        | Trace.Abroadcast id ->
            let m = info id in
            if Float.is_nan m.t0 then m.t0 <- t
        | Trace.Propose (k, ids) ->
            List.iter
              (fun id ->
                let m = info id in
                if not (List.mem_assoc k m.proposed) then
                  m.proposed <- (k, t) :: m.proposed)
              ids
        | Trace.Decide (k, ids) ->
            if not (Hashtbl.mem first_decide k) then Hashtbl.add first_decide k t;
            List.iter
              (fun id ->
                match Msg_id.Table.find_opt decided.(p) id with
                | Some k0 when k0 <= k -> ()
                | _ -> Msg_id.Table.replace decided.(p) id k)
              ids
        | Trace.Rdeliver id ->
            if not (Msg_id.Table.mem rdelivered.(p) id) then
              Msg_id.Table.add rdelivered.(p) id t
        | Trace.Adeliver id ->
            Msg_id.Table.replace adelivered.(p) id ();
            adelivers := (p, id, t) :: !adelivers
        | Trace.Crash -> crashed.(p) <- true
        | _ -> ());
  let start id m = match due with Some f -> f id | None -> m.t0 in
  let e2e = ref [] and pw = ref [] and dec = ref [] and cw = ref [] and diss = ref [] in
  let completed = ref 0 in
  List.iter
    (fun (p, id, t3) ->
      match Msg_id.Table.find_opt msgs id with
      | Some m when not (Float.is_nan m.t0) ->
          let t0 = start id m in
          if measured t0 then begin
            incr completed;
            let t2, t1 =
              match Msg_id.Table.find_opt decided.(p) id with
              | Some k ->
                  let t2 = Hashtbl.find first_decide k in
                  (t2, Option.value (List.assoc_opt k m.proposed) ~default:t2)
              | None -> (t3, t3)
            in
            e2e := (t3 -. t0) :: !e2e;
            pw := (t1 -. t0) :: !pw;
            dec := (t2 -. t1) :: !dec;
            cw := (t3 -. t2) :: !cw;
            match Msg_id.Table.find_opt rdelivered.(p) id with
            | Some td -> diss := (td -. t0) :: !diss
            | None -> ()
          end
      | _ -> ())
    !adelivers;
  (* A pair is owed when p is correct, unless m's origin crashed and no
     correct process delivered it (Validity binds correct broadcasters
     only).  An owed pair that never arrived is a failure, not a drop. *)
  let correct = List.filter (fun p -> not crashed.(p)) (List.init n Fun.id) in
  let undelivered = ref 0 in
  Msg_id.Table.iter
    (fun id m ->
      if (not (Float.is_nan m.t0)) && measured (start id m) then begin
        let missing =
          List.filter (fun p -> not (Msg_id.Table.mem adelivered.(p) id)) correct
        in
        let origin = id.Msg_id.origin in
        let owed =
          (origin >= 0 && origin < n && not crashed.(origin))
          || List.length missing < List.length correct
        in
        if owed then undelivered := !undelivered + List.length missing
      end)
    msgs;
  let arr l = Array.of_list l in
  {
    completed = !completed;
    undelivered = !undelivered;
    e2e = arr !e2e;
    propose_wait = arr !pw;
    decide = arr !dec;
    commit_wait = arr !cw;
    disseminate = arr !diss;
  }

let mean a =
  if Array.length a = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let percentile a q =
  if Array.length a = 0 then Float.nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    Ics_prelude.Stats.percentile s q
  end

(* Relative gap between the sum of the stage means and the end-to-end
   mean ([whole], by default the split's own): zero up to float rounding
   when every pair is attributed. *)
let sum_error ?whole s =
  let parts = mean s.propose_wait +. mean s.decide +. mean s.commit_wait in
  let whole = Option.value whole ~default:(mean s.e2e) in
  Float.abs (parts -. whole) /. whole

(* ------------------------------------------------------------------ *)
(* Consensus instances                                                 *)
(* ------------------------------------------------------------------ *)

type decisions = { ids_per_decision : float; per_s : float }

(* One value per instance (agreement makes every Decide of k equal), so
   only the first Decide of each instance counts.  The rate is over the
   trace's own clock, first Abroadcast to last Decide. *)
let decisions trace =
  let seen = Hashtbl.create 1024 in
  let ids = ref 0 and first = ref Float.infinity and last = ref Float.neg_infinity in
  Trace.iter trace (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Abroadcast _ -> if e.Trace.time < !first then first := e.Trace.time
      | Trace.Decide (k, l) ->
          if e.Trace.time > !last then last := e.Trace.time;
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            ids := !ids + List.length l
          end
      | _ -> ());
  let instances = Hashtbl.length seen in
  {
    ids_per_decision = float_of_int !ids /. float_of_int (max 1 instances);
    per_s =
      (if !last > !first then float_of_int instances /. ((!last -. !first) /. 1000.0)
       else Float.nan);
  }

(* ------------------------------------------------------------------ *)
(* Failover                                                            *)
(* ------------------------------------------------------------------ *)

type failover = { gap_ms : float; detect_ms : float; recover_ms : float }

(* [victim] crashes; the survivors' detector must suspect it and
   consensus must move past it.
   - gap: the longest silence between consecutive Adelivers at a
     survivor that spans time after the crash, up to the end of arrivals
     (time without service);
   - detect: crash to the first Suspect(victim) at any survivor;
   - recover: that Suspect to the same survivor's next Decide. *)
let failover ~n ~victim ~arrivals_end trace =
  let crash = ref Float.nan in
  let crashed = Array.make n false in
  let suspect = Array.make n Float.nan in
  let next_decide = Array.make n Float.nan in
  let deliveries = Array.make n [] in
  Trace.iter trace (fun (e : Trace.event) ->
      let p = e.Trace.pid and t = e.Trace.time in
      if p >= 0 && p < n then
        match e.Trace.kind with
        | Trace.Crash ->
            crashed.(p) <- true;
            if p = victim then crash := t
        | Trace.Suspect q when q = victim && Float.is_nan suspect.(p) && not (Float.is_nan !crash) ->
            suspect.(p) <- t
        | Trace.Decide _ when (not (Float.is_nan suspect.(p))) && Float.is_nan next_decide.(p) ->
            next_decide.(p) <- t
        | Trace.Adeliver _ -> deliveries.(p) <- t :: deliveries.(p)
        | _ -> ());
  let tc = !crash in
  let survivors = List.filter (fun p -> not crashed.(p)) (List.init n Fun.id) in
  let gap_at p =
    let rec scan best = function
      | later :: (earlier :: _ as rest) ->
          let best =
            if later > tc && earlier <= arrivals_end then Float.max best (later -. earlier)
            else best
          in
          scan best rest
      | [ _ ] | [] -> best
    in
    scan 0.0 deliveries.(p)
  in
  let first_suspecter =
    List.fold_left
      (fun acc p ->
        match acc with
        | Some q when not (suspect.(p) < suspect.(q)) -> acc
        | _ -> if Float.is_nan suspect.(p) then acc else Some p)
      None survivors
  in
  {
    gap_ms = List.fold_left (fun acc p -> Float.max acc (gap_at p)) 0.0 survivors;
    detect_ms =
      (match first_suspecter with Some p -> suspect.(p) -. tc | None -> Float.nan);
    recover_ms =
      (match first_suspecter with
      | Some p -> next_decide.(p) -. suspect.(p)
      | None -> Float.nan);
  }
