module Time = Ics_sim.Time
module Pid = Ics_sim.Pid
module Trace = Ics_sim.Trace
module Rng = Ics_prelude.Rng
module Model = Ics_net.Model
module Message = Ics_net.Message
module Env = Ics_net.Env
module Transport = Ics_net.Transport
module Retransmit = Ics_net.Retransmit

type window = { from_t : Time.t; until_t : Time.t }

let always = { from_t = Time.zero; until_t = infinity }
let window ~from_t ~until_t = { from_t; until_t }
let in_window w now = now >= w.from_t && now < w.until_t

type link = {
  l_src : Pid.t option;
  l_dst : Pid.t option;
  l_layer : string option;
}

let any_link = { l_src = None; l_dst = None; l_layer = None }

let link_matches l (msg : Message.t) =
  (match l.l_src with None -> true | Some p -> p = msg.src)
  && (match l.l_dst with None -> true | Some p -> p = msg.dst)
  && match l.l_layer with
     | None -> true
     | Some name -> String.equal name (Message.layer_name msg)

type clause =
  | Drop of { link : link; prob : float; window : window }
  | Duplicate of { link : link; prob : float; window : window }
  | Delay of { link : link; prob : float; max_extra : Time.t; window : window }
  | Slow of { link : link; extra : Time.t; window : window }
  | Partition of { groups : Pid.t list list; window : window }
  | Isolate of { pid : Pid.t; inbound : bool; outbound : bool; window : window }
  | Crash of { pid : Pid.t; at : Time.t }

type plan = clause list

let pp_window ppf w =
  if w.until_t = infinity then
    if w.from_t = Time.zero then Format.fprintf ppf "always"
    else Format.fprintf ppf "[%a,inf)" Time.pp w.from_t
  else Format.fprintf ppf "[%a,%a)" Time.pp w.from_t Time.pp w.until_t

let pp_link ppf l =
  let part name = function
    | None -> []
    | Some v -> [ Printf.sprintf "%s=%s" name v ]
  in
  let parts =
    part "src" (Option.map string_of_int l.l_src)
    @ part "dst" (Option.map string_of_int l.l_dst)
    @ part "layer" l.l_layer
  in
  match parts with
  | [] -> Format.fprintf ppf "*"
  | parts -> Format.fprintf ppf "%s" (String.concat "," parts)

let pp_clause ppf = function
  | Drop { link; prob; window } ->
      Format.fprintf ppf "drop(%a, p=%.2f, %a)" pp_link link prob pp_window
        window
  | Duplicate { link; prob; window } ->
      Format.fprintf ppf "dup(%a, p=%.2f, %a)" pp_link link prob pp_window
        window
  | Delay { link; prob; max_extra; window } ->
      Format.fprintf ppf "delay(%a, p=%.2f, max=%a, %a)" pp_link link prob
        Time.pp max_extra pp_window window
  | Slow { link; extra; window } ->
      Format.fprintf ppf "slow(%a, +%a, %a)" pp_link link Time.pp extra
        pp_window window
  | Partition { groups; window } ->
      let group g = "{" ^ String.concat " " (List.map string_of_int g) ^ "}" in
      Format.fprintf ppf "partition(%s, %a)"
        (String.concat "|" (List.map group groups))
        pp_window window
  | Isolate { pid; inbound; outbound; window } ->
      Format.fprintf ppf "isolate(p%d, in=%b, out=%b, %a)" pid inbound outbound
        pp_window window
  | Crash { pid; at } -> Format.fprintf ppf "crash(p%d at %a)" pid Time.pp at

let pp_plan ppf plan =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       pp_clause)
    plan

let plan_to_string plan = Format.asprintf "%a" pp_plan plan

let partition_name groups =
  String.concat "|"
    (List.map
       (fun g -> "{" ^ String.concat " " (List.map string_of_int g) ^ "}")
       groups)

(* A partition cuts (src, dst) iff both appear in listed groups and the
   groups differ; a pid absent from every group is unaffected. *)
let partition_cuts groups ~src ~dst =
  let find p =
    List.find_index (fun g -> List.mem p g) groups
  in
  match (find src, find dst) with
  | Some a, Some b -> a <> b
  | _ -> false

let cut_by_partition plan now (msg : Message.t) =
  List.exists
    (fun clause ->
      match clause with
      | Partition { groups; window } ->
          in_window window now
          && partition_cuts groups ~src:msg.Message.src ~dst:msg.Message.dst
      | Isolate { pid; inbound; outbound; window } ->
          in_window window now
          && ((inbound && msg.Message.dst = pid)
             || (outbound && msg.Message.src = pid))
      | _ -> false)
    plan

(* Evaluate the probabilistic clauses for one message.  Draws come from
   [rng] in fixed plan order and continue even after a drop decision, so
   the stream of draws — hence every later decision — depends only on the
   message sequence, not on earlier outcomes.  [on_delay]/[on_slow] fire
   (mid-iteration, matching the historical accounting order) only when the
   message is not already dropped. *)
let draw ~plan ~rng ~now ~on_delay ~on_slow (msg : Message.t) =
  let dropped = ref false in
  let dup = ref false in
  let extra = ref Time.zero in
  List.iter
    (fun clause ->
      match clause with
      | Drop { link; prob; window } ->
          if in_window window now && link_matches link msg then
            if Rng.float rng 1.0 < prob then dropped := true
      | Duplicate { link; prob; window } ->
          if in_window window now && link_matches link msg then
            if Rng.float rng 1.0 < prob then dup := true
      | Delay { link; prob; max_extra; window } ->
          if in_window window now && link_matches link msg then
            if Rng.float rng 1.0 < prob then begin
              extra := Time.( + ) !extra (Rng.float rng max_extra);
              if not !dropped then on_delay ()
            end
      | Slow { link; extra = e; window } ->
          if in_window window now && link_matches link msg then begin
            extra := Time.( + ) !extra e;
            if not !dropped then on_slow ()
          end
      | Partition _ | Isolate _ | Crash _ -> ())
    plan;
  (!dropped, !dup, !extra)

let shift_window w ~by =
  (* infinity + by = infinity, so open windows stay open. *)
  { from_t = Time.( + ) w.from_t by; until_t = Time.( + ) w.until_t by }

let shift plan ~by =
  if by < 0.0 then invalid_arg "Nemesis.shift: negative offset";
  List.map
    (fun clause ->
      match clause with
      | Drop ({ window; _ } as c) -> Drop { c with window = shift_window window ~by }
      | Duplicate ({ window; _ } as c) ->
          Duplicate { c with window = shift_window window ~by }
      | Delay ({ window; _ } as c) -> Delay { c with window = shift_window window ~by }
      | Slow ({ window; _ } as c) -> Slow { c with window = shift_window window ~by }
      | Partition ({ window; _ } as c) ->
          Partition { c with window = shift_window window ~by }
      | Isolate ({ window; _ } as c) ->
          Isolate { c with window = shift_window window ~by }
      | Crash { pid; at } -> Crash { pid; at = Time.( + ) at by })
    plan

(* Fault draws come from per-(src, dst) streams.  Per-link seeding is
   what makes the sim and live backends agree: the k-th message on a link
   sees the same decisions no matter how sends from different processes
   interleave, and a live node that only ever observes its own outbound
   links still draws the same stream the whole-cluster simulation does. *)
let link_rngs seed =
  let rngs : (int, Rng.t) Hashtbl.t = Hashtbl.create 16 in
  fun ~src ~dst ->
    let key = (src * 0x10000) + dst in
    match Hashtbl.find_opt rngs key with
    | Some rng -> rng
    | None ->
        let rng =
          Rng.create
            (Int64.logxor seed
               (Int64.of_int ((((src + 1) * 0x10000) + dst) + 1)))
        in
        Hashtbl.add rngs key rng;
        rng

(* The plan becomes outbound transport middleware: every remote send
   consults it, and scheduled clauses go through the transport's [Env].
   The one layering rule of the fault plane lives here: the fault
   middleware goes in first, the retransmission channel last (outermost),
   so every retry and every ack traverses the faults exactly like a first
   transmission. *)
let install ?self transport ~seed ~plan ~retransmit =
  let env = Transport.env transport in
  let stats = Model.Fault_stats.create () in
  let rng_for = link_rngs seed in
  let local pid = match self with None -> true | Some p -> p = pid in
  (* Partition markers are cluster-level events; emit them from exactly
     one place (the simulated world, or live node 0) so a merged trace
     carries each marker once. *)
  let markers = match self with None -> true | Some p -> p = 0 in
  List.iter
    (fun clause ->
      match clause with
      | Crash { pid; at } ->
          if local pid then
            env.Env.schedule ~at (fun () ->
                if env.Env.is_alive pid then begin
                  stats.Model.Fault_stats.crashes <-
                    stats.Model.Fault_stats.crashes + 1;
                  env.Env.crash pid
                end)
      | Partition { groups; window } ->
          if markers then begin
            let name = partition_name groups in
            env.Env.schedule ~at:window.from_t (fun () ->
                env.Env.record 0 (Trace.Partition_start name));
            if window.until_t < infinity then
              env.Env.schedule ~at:window.until_t (fun () ->
                  env.Env.record 0 (Trace.Partition_heal name))
          end
      | Isolate { pid; window; _ } ->
          if markers then begin
            let name = Printf.sprintf "isolate(p%d)" pid in
            env.Env.schedule ~at:window.from_t (fun () ->
                env.Env.record 0 (Trace.Partition_start name));
            if window.until_t < infinity then
              env.Env.schedule ~at:window.until_t (fun () ->
                  env.Env.record 0 (Trace.Partition_heal name))
          end
      | Drop _ | Duplicate _ | Delay _ | Slow _ -> ())
    plan;
  let middleware inner (msg : Message.t) =
    let now = env.Env.now () in
    if cut_by_partition plan now msg then begin
      stats.Model.Fault_stats.partition_drops <-
        stats.Model.Fault_stats.partition_drops + 1;
      Model.Fault_stats.count_layer_drop stats (Message.layer_name msg);
      env.Env.record msg.Message.src (Trace.Net_drop msg.Message.dst)
    end
    else begin
      let rng = rng_for ~src:msg.Message.src ~dst:msg.Message.dst in
      let dropped, dup, extra =
        draw ~plan ~rng ~now msg
          ~on_delay:(fun () ->
            stats.Model.Fault_stats.delays <-
              stats.Model.Fault_stats.delays + 1;
            env.Env.record msg.Message.src (Trace.Net_delay msg.Message.dst))
          ~on_slow:(fun () ->
            stats.Model.Fault_stats.slowdowns <-
              stats.Model.Fault_stats.slowdowns + 1)
      in
      if dropped then begin
        stats.Model.Fault_stats.drops <- stats.Model.Fault_stats.drops + 1;
        Model.Fault_stats.count_layer_drop stats (Message.layer_name msg);
        env.Env.record msg.Message.src (Trace.Net_drop msg.Message.dst)
      end
      else begin
        let forward () =
          inner msg;
          if dup then begin
            stats.Model.Fault_stats.dups <- stats.Model.Fault_stats.dups + 1;
            env.Env.record msg.Message.src (Trace.Net_dup msg.Message.dst);
            inner msg
          end
        in
        if extra > Time.zero then
          env.Env.schedule ~at:(Time.( + ) now extra) forward
        else forward ()
      end
    end
  in
  Transport.interpose transport middleware;
  let channel =
    if retransmit then Some (Retransmit.install transport) else None
  in
  (stats, channel)
