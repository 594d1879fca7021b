(* Ordered chat: why the broadcast *order* guarantee matters.

   A tiny chat room replicated at three sites.  Alice posts a question
   from site 0; Bob reads it at site 1 and posts an answer.  The answer
   causally depends on the question — yet with plain reliable broadcast a
   slow link can show Carol (site 2) the answer *before* the question.

   The same scenario is replayed over three broadcast layers:
   - plain reliable broadcast (flood): causal inversion visible;
   - causal broadcast (vector clocks): question always precedes answer,
     but two *concurrent* posts can still appear in different orders at
     different sites;
   - atomic broadcast (the paper's stack): one global order, identical
     everywhere — the strongest and costliest guarantee.

   Run with: dune exec examples/ordered_chat.exe *)

module Engine = Ics_sim.Engine
module Pid = Ics_sim.Pid
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg
module Model = Ics_net.Model
module Host = Ics_net.Host
module Transport = Ics_net.Transport
module Rb_flood = Ics_broadcast.Rb_flood
module Causal = Ics_broadcast.Causal
module Stack = Ics_core.Stack

let n = 3

(* The post registry: message id -> chat line. *)
let posts : string Msg_id.Table.t = Msg_id.Table.create 16

let post ~text m = Msg_id.Table.replace posts m.App_msg.id text

(* Slow down every copy of Alice's posts heading to site 2 (recognizable
   by their payload size), so Bob's answer can overtake them. *)
let slow_link (m : Ics_net.Message.t) =
  if Pid.equal m.dst 2 && m.body_bytes > 200 then Model.Delay_by 25.0 else Model.Pass

let show_timeline name timelines =
  Format.printf "%s:@." name;
  Array.iteri
    (fun site lines ->
      Format.printf "  site %d sees: %s@." site
        (String.concat " | " (List.rev lines)))
    timelines;
  Format.printf "@."

(* Scenario over a raw broadcast layer. *)
let run_broadcast name make_layer =
  let engine = Engine.create ~n () in
  let model = Model.scripted ~base:(Model.constant ~delay:1.0 ~n ~seed:3L ()) ~rule:slow_link in
  let transport = Transport.create engine ~model ~host:Host.instant in
  let timelines = Array.make n [] in
  let handle =
    make_layer transport ~deliver:(fun site (m : App_msg.t) ->
        timelines.(site) <- Msg_id.Table.find posts m.id :: timelines.(site))
  in
  let say ~at ~site ~seq ~big text =
    Engine.schedule engine ~at (fun () ->
        let m =
          App_msg.make ~id:(Msg_id.make ~origin:site ~seq)
            ~body_bytes:(if big then 300 else 20)
            ~created_at:at ()
        in
        post ~text m;
        handle.Ics_broadcast.Broadcast_intf.broadcast ~src:site m)
  in
  (* Alice asks (big message, slow to site 2); Bob answers after reading. *)
  say ~at:1.0 ~site:0 ~seq:0 ~big:true "alice: lunch where?";
  say ~at:5.0 ~site:1 ~seq:0 ~big:false "bob: the usual place!";
  Engine.run engine;
  show_timeline name timelines

(* Scenario over full atomic broadcast. *)
let run_abcast () =
  let timelines = Array.make n [] in
  let config =
    {
      Stack.abcast_indirect with
      Stack.setup = Stack.Ideal_lan { delay = 1.0; jitter = 0.0 };
      fd_kind = Stack.Oracle 10.0;
    }
  in
  let stack =
    Stack.create
      ~rule:slow_link
      ~on_deliver:(fun site m ->
        timelines.(site) <- Msg_id.Table.find posts m.App_msg.id :: timelines.(site))
      config
  in
  let engine = stack.Stack.engine in
  let say ~at ~site ~big text =
    Engine.schedule engine ~at (fun () ->
        let m = Stack.abroadcast stack ~src:site ~body_bytes:(if big then 300 else 20) in
        post ~text m)
  in
  say ~at:1.0 ~site:0 ~big:true "alice: lunch where?";
  say ~at:5.0 ~site:1 ~big:false "bob: the usual place!";
  (* Two concurrent posts: atomic broadcast orders even these identically. *)
  say ~at:20.0 ~site:0 ~big:false "alice: 12:30?";
  say ~at:20.1 ~site:2 ~big:false "carol: i'm in";
  Stack.run stack;
  show_timeline "atomic broadcast (indirect consensus)" timelines

let () =
  Format.printf "One causal chain, three broadcast guarantees (site 2 has a slow link)@.@.";
  run_broadcast "plain reliable broadcast — answer can precede question at site 2"
    (fun transport ~deliver ->
      let fd = Ics_fd.Failure_detector.(Control.fd (manual (Transport.engine transport))) in
      Rb_flood.create transport ~fd ~deliver);
  run_broadcast "causal broadcast — the question always comes first"
    (fun transport ~deliver -> Causal.create transport ~deliver);
  run_abcast ();
  Format.printf
    "Plain RB broke the conversation at site 2; causal order fixed the chain; atomic@.\
     broadcast additionally agreed on one interleaving of the concurrent posts —@.\
     which is what it costs consensus rounds to provide.@."
