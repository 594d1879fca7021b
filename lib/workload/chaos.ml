module Engine = Ics_sim.Engine
module Time = Ics_sim.Time
module Pid = Ics_sim.Pid
module Rng = Ics_prelude.Rng
module Table = Ics_prelude.Table
module Model = Ics_net.Model
module Retransmit = Ics_net.Retransmit
module Host = Ics_net.Host
module Nemesis = Ics_faults.Nemesis
module Stack = Ics_core.Stack
module Abcast = Ics_core.Abcast
module Profile = Ics_core.Profile
module App_host = Ics_core.App_host
module Cmd = Ics_app.Cmd
module Checker = Ics_checker.Checker
module Node = Ics_runtime.Node
module Cluster = Ics_runtime.Cluster

type backend = [ `Sim | `Live ]

let backend_name = function `Sim -> "sim" | `Live -> "live"

type stack_kind = Ct_indirect | Mr_indirect | Ct_on_ids

let stack_name = function
  | Ct_indirect -> "ct-indirect"
  | Mr_indirect -> "mr-indirect"
  | Ct_on_ids -> "ct-on-ids"

let stack_of_string = function
  | "ct-indirect" -> Some Ct_indirect
  | "mr-indirect" -> Some Mr_indirect
  | "ct-on-ids" -> Some Ct_on_ids
  | _ -> None

let all_stacks = [ Ct_indirect; Mr_indirect; Ct_on_ids ]

(* MR's two-thirds quorums need n = 5 to tolerate one crash; CT's majority
   quorums are happy at n = 3. *)
let default_n = function Ct_indirect | Ct_on_ids -> 3 | Mr_indirect -> 5

type plan_kind = Drop | Dup | Reorder | Partition | Storm | Blackout | Mixed

let plan_name = function
  | Drop -> "drop"
  | Dup -> "dup"
  | Reorder -> "reorder"
  | Partition -> "partition"
  | Storm -> "storm"
  | Blackout -> "blackout"
  | Mixed -> "mixed"

let plan_of_string = function
  | "drop" -> Some Drop
  | "dup" -> Some Dup
  | "reorder" -> Some Reorder
  | "partition" -> Some Partition
  | "storm" -> Some Storm
  | "blackout" -> Some Blackout
  | "mixed" -> Some Mixed
  | _ -> None

let all_plans = [ Drop; Dup; Reorder; Partition; Storm; Blackout; Mixed ]

(* Plan generation is a pure function of (kind, n, seed): the chaos CLI can
   replay a failure from nothing but the printed seed. *)
let gen_plan kind ~n ~seed =
  let rng = Rng.create (Int64.logxor seed 0x6b656d657369734cL) in
  let any = Nemesis.any_link in
  let always = Nemesis.always in
  match kind with
  | Drop ->
      [ Nemesis.Drop { link = any; prob = 0.05 +. Rng.float rng 0.20; window = always } ]
  | Dup ->
      [ Nemesis.Duplicate { link = any; prob = 0.10 +. Rng.float rng 0.20; window = always } ]
  | Reorder ->
      [
        Nemesis.Delay
          {
            link = any;
            prob = 0.20 +. Rng.float rng 0.20;
            max_extra = 2.0 +. Rng.float rng 8.0;
            window = always;
          };
      ]
  | Partition ->
      let pids = Array.init n (fun i -> i) in
      Rng.shuffle rng pids;
      let k = 1 + Rng.int rng (n - 1) in
      let pids = Array.to_list pids in
      let left = List.filteri (fun i _ -> i < k) pids in
      let right = List.filteri (fun i _ -> i >= k) pids in
      let from_t = 5.0 +. Rng.float rng 15.0 in
      let until_t = from_t +. 15.0 +. Rng.float rng 25.0 in
      [
        Nemesis.Partition
          { groups = [ left; right ]; window = Nemesis.window ~from_t ~until_t };
      ]
  | Storm ->
      let victim = Rng.int rng n in
      [
        Nemesis.Crash { pid = victim; at = 10.0 +. Rng.float rng 20.0 };
        Nemesis.Drop { link = any; prob = 0.10; window = always };
      ]
  | Blackout ->
      (* §2.2 as a fault plan: the first origin's reliable-broadcast
         payloads never reach the wire (consensus traffic flows), and the
         origin crashes once consensus has had time to order the id.
         Retransmission cannot help — every retry is also dropped. *)
      [
        Nemesis.Drop
          {
            link = { l_src = Some 0; l_dst = None; l_layer = Some "rb" };
            prob = 1.0;
            window = always;
          };
        Nemesis.Crash { pid = 0; at = 10.0 };
      ]
  | Mixed ->
      let from_t = 8.0 +. Rng.float rng 10.0 in
      [
        Nemesis.Drop { link = any; prob = 0.05; window = always };
        Nemesis.Duplicate { link = any; prob = 0.05; window = always };
        Nemesis.Delay
          { link = any; prob = 0.15; max_extra = 5.0; window = always };
        Nemesis.Partition
          {
            groups = [ [ 0 ]; List.init (n - 1) (fun i -> i + 1) ];
            window = Nemesis.window ~from_t ~until_t:(from_t +. 12.0);
          };
      ]

type result = {
  backend : backend;
  stack : stack_kind;
  plan_kind : plan_kind;
  n : int;
  seed : int64;
  retransmit : bool;
  plan : Nemesis.plan;
  verdict : Checker.verdict;
  quiescent : bool;
  delivered : int;
  blocked : int;
  faults : (string * int) list;
  retx : (string * int) list;
  fingerprint : string;
}

let passed r = Checker.ok r.verdict && r.quiescent

let horizon = 5_000.0
let messages = 10

(* The (algorithm, ordering) pair a stack kind names — shared by both
   backends so a cell means the same protocol either way. *)
let stack_shape = function
  | Ct_indirect -> (Stack.Ct, Abcast.Indirect_consensus)
  | Mr_indirect -> (Stack.Mr, Abcast.Indirect_consensus)
  | Ct_on_ids -> (Stack.Ct, Abcast.Consensus_on_ids)

(* App-on-top cells host the KV machine on the exact same chaos
   broadcasts (Ride mode: slot i = one-request client i), so a cell where
   ordered commands never take effect fails *semantically* — via
   app.progress and state-hash agreement — not just via the message-level
   battery.  The app fields are cell constants and one [cell_profile]
   serves both backends, so a (stack, plan, seed) cell means the same run
   either way. *)
let app_seed = 42
let app_hash_every = 4

let cell_profile ~batching ~app stack ~n =
  let algo, ordering = stack_shape stack in
  {
    Profile.default with
    Profile.n;
    algo;
    ordering;
    batch = batching.Abcast.batch;
    pipeline = batching.Abcast.pipeline;
    flush_ms = batching.Abcast.flush_ms;
    app = (if app then Profile.Kv else Profile.No_app);
    app_seed;
    hash_every = app_hash_every;
    count = messages;
    body_bytes = 32;
  }

let run_one_sim ?(batching = Abcast.no_batching) ?(app = false) ~retransmit ?n
    stack plan_kind ~seed =
  let n = match n with Some n -> n | None -> default_n stack in
  let plan = gen_plan plan_kind ~n ~seed in
  let engine = Engine.create ~seed ~trace:`On ~n () in
  let base =
    Model.constant ~delay:1.0 ~n ~seed:(Int64.add seed 7919L) ()
  in
  let lossy, fstats =
    Nemesis.apply ~engine ~seed:(Int64.add seed 0x5DEECE66DL) ~plan ~base ()
  in
  let model, rstats =
    if retransmit then
      let m, s = Retransmit.wrap lossy in
      (m, Some s)
    else (lossy, None)
  in
  let algo, ordering = stack_shape stack in
  let config =
    {
      Stack.default_config with
      n;
      seed;
      algo;
      ordering;
      batching;
      setup =
        Stack.Custom
          { name = "chaos"; build = (fun ~n:_ -> (model, Host.instant)) };
      fd_kind = Stack.Oracle 10.0;
      trace = `On;
    }
  in
  let hosts = ref [||] in
  let on_deliver p m =
    if Array.length !hosts > 0 then App_host.on_deliver !hosts.(p) m
  in
  let stack_t = Stack.create ~engine ~on_deliver config in
  if app then begin
    let profile = cell_profile ~batching ~app stack ~n in
    hosts :=
      Array.init n (fun p ->
          App_host.install stack_t.Stack.transport ~abcast:stack_t.Stack.abcast
            ~profile ~self:p ~mode:App_host.Ride)
  end;
  (* Deterministic workload: [messages] abroadcasts, origin 0 first (the
     blackout victim must originate), then round-robin at seeded spacing.
     With the app hosted, slot [i] carries command (client = i, req = 0)
     in its blob — the broadcasts themselves are unchanged. *)
  let wrng = Rng.create (Int64.add seed 104729L) in
  let at = ref 1.0 in
  for i = 0 to messages - 1 do
    let t = !at in
    let src = i mod n in
    let blob = if app then Cmd.pack ~client:i ~req:0 else 0L in
    Engine.schedule engine ~at:t (fun () ->
        if app && Engine.is_alive engine src then
          Engine.record engine src (Ics_sim.Trace.App_submit (i, 0));
        ignore (Stack.abroadcast ~blob stack_t ~src ~body_bytes:32));
    at := t +. 2.0 +. Rng.float wrng 4.0
  done;
  Stack.run ~until:horizon stack_t;
  let quiescent = Engine.pending engine = 0 in
  let trace = Engine.trace engine in
  let run = Checker.Run.of_trace trace ~n in
  let verdict =
    if app then
      Checker.merge [ Checker.check_all_abcast run; Checker.check_app run ]
    else Checker.check_all_abcast run
  in
  let correct = Checker.Run.correct run in
  let delivered =
    List.fold_left
      (fun acc p ->
        acc + List.length (Abcast.delivered_sequence stack_t.Stack.abcast p))
      0 correct
  in
  let blocked =
    List.length
      (List.filter
         (fun p -> Abcast.blocked_head stack_t.Stack.abcast p <> None)
         correct)
  in
  let fingerprint = Ics_sim.Trace.fingerprint trace in
  {
    backend = `Sim;
    stack;
    plan_kind;
    n;
    seed;
    retransmit;
    plan;
    verdict;
    quiescent;
    delivered;
    blocked;
    faults = Model.Fault_stats.to_list fstats;
    retx =
      (match rstats with Some s -> Retransmit.stats_to_list s | None -> []);
    fingerprint;
  }

(* Live cells reuse the sim plan timeline (fault windows in the first few
   tens of ms) shifted past connection warm-up by Node.run itself; the
   deadline bounds a cell that can never reach its barrier (blackout,
   storm) to a couple of wall-clock seconds. *)
let live_warmup_ms = 400.0
let live_deadline_ms = 2_500.0

let run_one_live ?(batching = Abcast.no_batching) ?(app = false) ~retransmit ?n
    stack plan_kind ~seed =
  let n = match n with Some n -> n | None -> default_n stack in
  let plan = gen_plan plan_kind ~n ~seed in
  let node =
    {
      Node.default_workload with
      Node.profile =
        {
          (cell_profile ~batching ~app stack ~n) with
          Profile.warmup_ms = live_warmup_ms;
          deadline_ms = live_deadline_ms;
        };
      seed;
      plan;
      plan_seed = Int64.add seed 0x5DEECE66DL;
      retransmit;
      chaos_workload = true;
    }
  in
  match
    Run.live ~attempts:1
      ~latency:(fun (o : Cluster.outcome) -> o.latency)
      ~stop:Cluster.ok node
  with
  | Error reason -> failwith ("chaos live backend: " ^ reason)
  | Ok o ->
      (* The live analogue of a drained event queue: every node exited on
         its own (barrier or deadline), none died or had to be killed. *)
      let quiescent =
        Array.for_all (fun c -> c = 0 || c = 10) o.Cluster.exits
      in
      {
        backend = `Live;
        stack;
        plan_kind;
        n;
        seed;
        retransmit;
        plan;
        verdict = o.Cluster.verdict;
        quiescent;
        delivered = Array.fold_left ( + ) 0 o.Cluster.delivered_per_node;
        blocked = 0;
        faults = o.Cluster.faults;
        retx = o.Cluster.retx;
        fingerprint = "";
      }

let run_one ?(backend = `Sim) ?batching ?app ?(retransmit = true) ?n stack
    plan_kind ~seed =
  match backend with
  | `Sim -> run_one_sim ?batching ?app ~retransmit ?n stack plan_kind ~seed
  | `Live -> run_one_live ?batching ?app ~retransmit ?n stack plan_kind ~seed

let replay_hint r =
  Printf.sprintf
    "ics_cli chaos --stacks %s --plans %s --seeds 1 --seed-base %Ld%s%s%s"
    (stack_name r.stack) (plan_name r.plan_kind) r.seed
    (if r.retransmit then "" else " --no-retransmit")
    (if r.n <> default_n r.stack then Printf.sprintf " --n %d" r.n else "")
    (match r.backend with `Sim -> "" | `Live -> " --live")

type cell = {
  c_stack : stack_kind;
  c_plan : plan_kind;
  runs : int;
  failures : result list;  (** chronological; empty for a clean cell *)
}

(* Shared mutable state a sweep cell reads — the codec registry and the
   CRC table — is write-once and must be fully populated before any
   domain spawns: registration mutates, and OCaml's [Lazy.force] is not
   domain-safe.  Forcing here turns every later access into a plain
   read, which is what the DS1 audits on those sites promise. *)
let force_shared_state () =
  Ics_core.Codecs.ensure ();
  ignore (Ics_codec.Prim.crc32 "" : int)

let cells_of ~stacks ~plans =
  Array.of_list
    (List.concat_map (fun stack -> List.map (fun plan -> (stack, plan)) plans) stacks)

let clamp_jobs ~backend ~jobs =
  match backend with
  (* The live backend forks node processes; fork from a non-main domain
     is undefined enough to be off the table, so live sweeps stay
     sequential. *)
  | `Live -> 1
  | `Sim -> max 1 jobs

let sweep_results ?(backend = `Sim) ?batching ?app ?(retransmit = true) ?n
    ?(seed_base = 1L) ?(seeds = 100) ?(progress = fun _ -> ()) ?(jobs = 1)
    ~stacks ~plans () =
  let jobs = clamp_jobs ~backend ~jobs in
  let cells = cells_of ~stacks ~plans in
  (* Progress lines stream in completion order (cells race when jobs >
     1); only their interleaving varies — each line's content, and
     everything in the returned cells, is interleaving-free. *)
  let progress =
    if jobs <= 1 then progress
    else begin
      let m = Mutex.create () in
      fun s ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> progress s)
    end
  in
  let run_cell (stack, plan_kind) =
    let results = ref [] in
    for i = 0 to seeds - 1 do
      let seed = Int64.add seed_base (Int64.of_int i) in
      let r =
        run_one ~backend ?batching ?app ?n ~retransmit stack plan_kind ~seed
      in
      results := r :: !results
    done;
    let results = List.rev !results in
    let failures = List.filter (fun r -> not (passed r)) results in
    progress
      (Printf.sprintf "%s/%s: %d/%d pass" (stack_name stack)
         (plan_name plan_kind)
         (seeds - List.length failures)
         seeds);
    ({ c_stack = stack; c_plan = plan_kind; runs = seeds; failures }, results)
  in
  if jobs <= 1 then Array.to_list (Array.map run_cell cells)
  else begin
    force_shared_state ();
    Array.to_list (Domain_pool.map ~jobs run_cell cells)
  end

let sweep ?backend ?batching ?app ?retransmit ?n ?seed_base ?seeds ?progress
    ?jobs ~stacks ~plans () =
  List.map fst
    (sweep_results ?backend ?batching ?app ?retransmit ?n ?seed_base ?seeds
       ?progress ?jobs ~stacks ~plans ())

let matrix_table cells =
  let stacks =
    List.sort_uniq compare (List.map (fun c -> c.c_stack) cells)
  in
  let plans = List.sort_uniq compare (List.map (fun c -> c.c_plan) cells) in
  let table =
    Table.create ~title:"chaos sweep (pass/runs)"
      ~columns:("plan" :: List.map stack_name stacks)
  in
  List.iter
    (fun plan ->
      let row =
        List.map
          (fun stack ->
            match
              List.find_opt
                (fun c -> c.c_stack = stack && c.c_plan = plan)
                cells
            with
            | None -> "-"
            | Some c ->
                let pass = c.runs - List.length c.failures in
                if c.failures = [] then Printf.sprintf "%d/%d" pass c.runs
                else Printf.sprintf "%d/%d FAIL" pass c.runs)
          stacks
      in
      Table.add_row table (plan_name plan :: row))
    plans;
  table

let pp_failure ppf r =
  Format.fprintf ppf "%s x %s seed=%Ld%s@," (stack_name r.stack)
    (plan_name r.plan_kind) r.seed
    (if r.quiescent then "" else " (not quiescent)");
  Format.fprintf ppf "  plan: %a@," Nemesis.pp_plan r.plan;
  List.iter
    (fun v -> Format.fprintf ppf "  %a@," Checker.pp_violation v)
    r.verdict.Checker.violations;
  Format.fprintf ppf "  replay: %s@," (replay_hint r)

let report ?(verbose = false) ppf cells =
  Format.fprintf ppf "%a" Table.pp (matrix_table cells);
  let failing = List.filter (fun c -> c.failures <> []) cells in
  List.iter
    (fun c ->
      let shown = if verbose then c.failures else [ List.hd c.failures ] in
      Format.fprintf ppf "@,@[<v>%a@]" (Format.pp_print_list pp_failure) shown;
      if (not verbose) && List.length c.failures > 1 then
        Format.fprintf ppf "  (+%d more failing seeds in this cell)@,"
          (List.length c.failures - 1))
    failing;
  Format.fprintf ppf "@."

(* The sweep's exit criterion: the correct (indirect) stacks must be clean
   everywhere; the known-faulty on-ids stack is expected to fail (that
   failing is the point — §2.2 reproduced by fault injection). *)
let indirect_clean cells =
  List.for_all
    (fun c -> c.c_stack = Ct_on_ids || c.failures = [])
    cells

(* The complementary half of the exit criterion when the sweep includes
   the §2.2 cell: consensus-on-ids under a payload blackout must fail —
   on either backend.  A clean blackout cell would mean the fault plane
   (or the checker) lost its teeth. *)
let blackout_reproduced cells =
  List.for_all
    (fun c ->
      (not (c.c_stack = Ct_on_ids && c.c_plan = Blackout)) || c.failures <> [])
    cells

type mismatch = {
  m_stack : stack_kind;
  m_plan : plan_kind;
  m_seed : int64;
  m_first : string;
  m_second : string;
}

(* Two runs of the same (stack, plan, seed) in the same process: any
   fingerprint divergence is state leaking between runs or ambient
   nondeterminism, and means the replay commands the sweep prints are
   lies.  One seed per cell keeps this cheap enough for the smoke gate. *)
let replay_check ?batching ?app ?(retransmit = true) ?n ?(seed_base = 1L)
    ?(jobs = 1) ~stacks ~plans () =
  let jobs = clamp_jobs ~backend:`Sim ~jobs in
  let cells = cells_of ~stacks ~plans in
  let check (stack, plan_kind) =
    match
      Run.replay (fun () ->
          (run_one ?batching ?app ?n ~retransmit stack plan_kind ~seed:seed_base)
            .fingerprint)
    with
    | Ok _ -> None
    | Error (m_first, m_second) ->
        Some
          { m_stack = stack; m_plan = plan_kind; m_seed = seed_base; m_first; m_second }
  in
  if jobs > 1 then force_shared_state ();
  List.filter_map Fun.id
    (Array.to_list (Domain_pool.map ~jobs check cells))

let pp_mismatch ppf m =
  Format.fprintf ppf "%s x %s seed=%Ld: %s then %s" (stack_name m.m_stack)
    (plan_name m.m_plan) m.m_seed m.m_first m.m_second
