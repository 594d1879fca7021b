(* The codec registry is populated by side effect, and OCaml only runs a
   library module's initializer if something links against it.  Central,
   explicit registration keeps the live runtime honest: anything that
   frames or parses wire traffic calls [ensure] first and gets every
   layer of the stack, not just the modules it happens to reference. *)

let ensure () =
  Ics_codec.Codec.register_builtins ();
  Ics_broadcast.Rb_flood.register_codec ();
  Ics_broadcast.Rb_fd.register_codec ();
  Ics_broadcast.Rb_ring.register_codec ();
  Ics_broadcast.Urb.register_codec ();
  Ics_consensus.Instances.register_codec ();
  Ics_consensus.Ct.register_codec ();
  Ics_consensus.Mr.register_codec ();
  Ics_consensus.Lb.register_codec ();
  Ics_fd.Failure_detector.register_codec ();
  Ics_app.Proto.register_codec ()
