(* Wire codec: registry-driven round-trip coverage, frame robustness
   against truncation/corruption, and the sim-fingerprint regression
   anchor for the body_bytes recalibration. *)

module Rng = Ics_prelude.Rng
module Bq = Ics_codec.Bq
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim
module Codecs = Ics_core.Codecs
module Chaos = Ics_workload.Chaos
module Abcast = Ics_core.Abcast

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Every codec the live wire carries: the protocol layers', plus the
   runtime's control plane (registered by the node, not by
   [Codecs.ensure]), so the registry-driven cases below cover it too. *)
let ensure_all () =
  Codecs.ensure ();
  Ics_runtime.Node.register_codec ()

(* The pre-encode-into encoders, rebuilt here from the codec's public
   names as an independent reference: the body is staged out of line, its
   length taken with String.length and its CRC computed over the extracted
   string, and the header is written byte by byte.  The in-place
   backpatching encoder is held to it, byte for byte. *)
let encode_bytes payload =
  let w = Bq.create 256 in
  Codec.encode_payload w payload;
  Bq.contents w

let encode_frame_legacy b ~src ~dst ~layer payload =
  let wire_layer =
    match Codec.layer_to_wire layer with
    | Some id -> id
    | None -> Prim.fail "encode: layer %s has no wire id" layer
  in
  let body = encode_bytes payload in
  let u8 v = Buffer.add_char b (Char.chr (v land 0xff)) in
  let u16 v = u8 (v lsr 8); u8 v in
  let u32 v = u16 ((v lsr 16) land 0xffff); u16 (v land 0xffff) in
  u8 Codec.magic;
  u8 Codec.version;
  u16 src;
  u16 dst;
  u16 wire_layer;
  u32 (String.length body);
  u32 (Prim.crc32 body);
  Buffer.add_string b body;
  String.length body

(* Every registered constructor: gen → encode → decode → re-encode must
   reproduce the bytes, and the arithmetic [size] must equal the real
   encoded length.  The registry itself is the coverage universe, so a
   layer that registers a codec is automatically under test. *)
let test_roundtrip_all () =
  ensure_all ();
  let entries = Codec.entries () in
  checkb "registry covers all protocol layers" true (List.length entries >= 20);
  let rng = Rng.create 0xC0DECL in
  List.iter
    (fun (e : Codec.entry) ->
      for _ = 1 to 50 do
        let p = e.Codec.gen rng in
        checkb (e.Codec.name ^ " gen fits") true (e.Codec.fits p);
        let bytes = encode_bytes p in
        checki (e.Codec.name ^ " size = |encode|") (String.length bytes)
          (e.Codec.size p);
        checki (e.Codec.name ^ " body_bytes agrees") (String.length bytes)
          (Codec.body_bytes p);
        let r = Prim.reader bytes in
        let p' = Codec.decode_payload r in
        checki (e.Codec.name ^ " decode consumed all") 0 (Prim.remaining r);
        checkb (e.Codec.name ^ " decoded fits same codec") true (e.Codec.fits p');
        Alcotest.(check string)
          (e.Codec.name ^ " re-encode identical") bytes (encode_bytes p')
      done)
    entries

let test_ctl_tags_registered () =
  ensure_all ();
  List.iter
    (fun (name, tag) ->
      match
        List.find_opt (fun (e : Codec.entry) -> e.Codec.name = name) (Codec.entries ())
      with
      | None -> Alcotest.failf "%s missing from the codec registry" name
      | Some e -> checki (name ^ " wire tag") tag e.Codec.tag)
    [ ("ctl.done", 0x48); ("ctl.bye", 0x49) ]

let test_unique_tags_and_names () =
  ensure_all ();
  let entries = Codec.entries () in
  let tags = List.map (fun (e : Codec.entry) -> e.Codec.tag) entries in
  let names = List.map (fun (e : Codec.entry) -> e.Codec.name) entries in
  checki "tags unique" (List.length tags) (List.length (List.sort_uniq compare tags));
  checki "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter (fun t -> checkb "tag in range" true (t >= 0 && t <= 255)) tags

let test_unregistered_payload () =
  ensure_all ();
  let module M = struct
    type Ics_net.Message.payload += Never_registered
  end in
  checkb "encode rejects unregistered" true
    (match encode_bytes M.Never_registered with
    | _ -> false
    | exception Codec.Error _ -> true)

let frame_for payload =
  ensure_all ();
  let w = Buffer.create 256 in
  let body_len = encode_frame_legacy w ~src:1 ~dst:2 ~layer:"consensus" payload in
  (Buffer.contents w, body_len)

let test_frame_roundtrip () =
  ensure_all ();
  let rng = Rng.create 0xF4A3EL in
  List.iter
    (fun (e : Codec.entry) ->
      let p = e.Codec.gen rng in
      let frame, body_len = frame_for p in
      checki
        (e.Codec.name ^ " frame length")
        (Codec.header_bytes + body_len)
        (String.length frame);
      match Codec.decode_header frame with
      | Error msg -> Alcotest.failf "%s header: %s" e.Codec.name msg
      | Ok h -> (
          checki (e.Codec.name ^ " src") 1 h.Codec.h_src;
          checki (e.Codec.name ^ " dst") 2 h.Codec.h_dst;
          Alcotest.(check string) (e.Codec.name ^ " layer") "consensus" h.Codec.h_layer;
          checki (e.Codec.name ^ " body len") body_len h.Codec.h_body_len;
          match Codec.decode_body ~pos:Codec.header_bytes frame h with
          | Error msg -> Alcotest.failf "%s body: %s" e.Codec.name msg
          | Ok p' ->
              Alcotest.(check string)
                (e.Codec.name ^ " payload survives framing")
                (encode_bytes p) (encode_bytes p')))
    (Codec.entries ())

(* Every strict prefix of a valid frame must be rejected as a clean
   [Error] — a short read can never crash the node or yield a message. *)
let test_truncated_frames () =
  let frame, _ = frame_for Ics_net.Message.Ping in
  for len = 0 to String.length frame - 1 do
    let prefix = String.sub frame 0 len in
    let verdict =
      if len < Codec.header_bytes then
        match Codec.decode_header prefix with Error _ -> true | Ok _ -> false
      else
        match Codec.decode_header prefix with
        | Error _ -> true
        | Ok h -> (
            (* Header parses; the body must fail (it is too short, and the
               caller checks length first — but decode_body must also
               reject a short buffer on its own). *)
            match Codec.decode_body ~pos:Codec.header_bytes prefix h with
            | Error _ -> true
            | Ok _ -> false)
    in
    checkb (Printf.sprintf "prefix %d rejected" len) true verdict
  done

(* Single-byte corruption anywhere in the body is caught by the CRC; a
   corrupted magic or version byte is caught by the header parse. *)
let test_corrupt_frames () =
  let rng = Rng.create 0xBADL in
  List.iter
    (fun (e : Codec.entry) ->
      let p = e.Codec.gen rng in
      let frame, _ = frame_for p in
      (* magic and version bytes *)
      for pos = 0 to 1 do
        let b = Bytes.of_string frame in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
        checkb
          (Printf.sprintf "%s header byte %d" e.Codec.name pos)
          true
          (match Codec.decode_header (Bytes.to_string b) with
          | Error _ -> true
          | Ok _ -> false)
      done;
      (* every body byte *)
      for pos = Codec.header_bytes to String.length frame - 1 do
        let b = Bytes.of_string frame in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x55));
        let s = Bytes.to_string b in
        let verdict =
          match Codec.decode_header s with
          | Error _ -> true
          | Ok h -> (
              match Codec.decode_body ~pos:Codec.header_bytes s h with
              | Error _ -> true
              | Ok _ -> false)
        in
        checkb (Printf.sprintf "%s body byte %d" e.Codec.name pos) true verdict
      done)
    (Codec.entries ())

let test_unknown_tag_rejected () =
  ensure_all ();
  let used =
    List.map (fun (e : Codec.entry) -> e.Codec.tag) (Codec.entries ())
  in
  let free = List.find (fun t -> not (List.mem t used)) [ 0xFE; 0xFD; 0xFC ] in
  (* Hand-build a body with an unregistered tag but a valid CRC by going
     through a registered frame and splicing the tag in is fragile;
     instead decode the bare payload, which shares the tag dispatch. *)
  let r = Prim.reader (String.make 1 (Char.chr free)) in
  checkb "unknown tag" true
    (match Codec.decode_payload r with
    | _ -> false
    | exception Codec.Error _ -> true)

let test_fuzz_decode_never_crashes () =
  ensure_all ();
  let rng = Rng.create 0x5EEDL in
  for _ = 1 to 2_000 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (* Must return a clean result or raise the codec error — anything
       else (Invalid_argument, Out_of_bounds, ...) fails the test. *)
    (match Codec.decode_header s with
    | Ok _ | Error _ -> ());
    match Codec.decode_payload (Prim.reader s) with
    | _ -> ()
    | exception Codec.Error _ -> ()
  done

(* A reserved span's logical offset must survive storage growth and the
   head-compaction a growth triggers: reserve over a small buffer with a
   nonzero head, append enough to force both, then backpatch — the u32
   must land exactly where the reservation was taken. *)
let test_bq_reserve_across_growth () =
  let q = Bq.create 16 in
  Bq.add_string q "abcdefgh";
  Bq.consume q 5;
  (* head = 5, three live bytes "fgh" *)
  let at = Bq.reserve q 4 in
  checki "reservation offset is logical" 3 at;
  let filler = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
  Bq.add_string q filler;
  checkb "growth actually happened" true (Bq.capacity q > 16);
  Bq.patch_u32 q ~at 0xDEADBEEF;
  let s = Bq.contents q in
  checki "length = live + span + filler" (3 + 4 + 8192) (String.length s);
  Alcotest.(check string) "live prefix intact" "fgh" (String.sub s 0 3);
  Alcotest.(check string) "backpatched u32 in place" "\xDE\xAD\xBE\xEF"
    (String.sub s 3 4);
  Alcotest.(check string) "filler intact after patch" filler (String.sub s 7 8192);
  checkb "patch beyond the queued region rejected" true
    (match Bq.patch_u32 q ~at:(Bq.length q - 3) 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* The ensure/write/advance triple — the read(2) half of the
   discipline: bytes blitted into the physical tail become queued only
   on [advance], and advancing past the ensured room is a bug. *)
let test_bq_ensure_advance () =
  let q = Bq.create 16 in
  Bq.add_string q "xy";
  Bq.ensure q 1000;
  checkb "ensure makes contiguous room" true (Bq.tail_room q >= 1000);
  let chunk = String.init 600 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Bytes.blit_string chunk 0 (Bq.unsafe_bytes q) (Bq.tail q) 600;
  checki "blit alone commits nothing" 2 (Bq.length q);
  Bq.advance q 600;
  Alcotest.(check string) "advance commits the blitted bytes" ("xy" ^ chunk)
    (Bq.contents q);
  checkb "advance beyond ensured room rejected" true
    (match Bq.advance q (Bq.tail_room q + 1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Draining a grown queue decays its storage back to the resting size. *)
  let big = Bq.create 16 in
  Bq.add_string big (String.make 200_000 'z');
  Bq.consume big 200_000;
  checki "drained queue is empty" 0 (Bq.length big);
  checki "storage decays to rest_cap" Bq.rest_cap (Bq.capacity big)

(* The frame encoder's error path: an exception mid-encode must leave
   the outbound queue exactly as it was, not with a partial frame that
   would desynchronize the TCP stream. *)
let test_encode_frame_error_truncates () =
  ensure_all ();
  let module M = struct
    type Ics_net.Message.payload += Unframeable
  end in
  let q = Bq.create 64 in
  Bq.add_string q "queued";
  checkb "encode of unregistered payload raises" true
    (match Codec.encode_frame q ~src:0 ~dst:1 ~layer:"consensus" M.Unframeable with
    | _ -> false
    | exception Codec.Error _ -> true);
  Alcotest.(check string) "queue untouched after the failed encode" "queued"
    (Bq.contents q)

(* Byte-equality fuzz: the in-place backpatching encoder against the
   stage-then-copy legacy reference, per registered tag, with the queue's
   head pushed off physical zero so logical-offset arithmetic is
   actually exercised. *)
let test_encode_into_matches_legacy () =
  ensure_all ();
  let rng = Rng.create 0xB0A7L in
  List.iter
    (fun (e : Codec.entry) ->
      for _ = 1 to 25 do
        let p = e.Codec.gen rng in
        let b = Buffer.create 256 in
        let len_legacy =
          encode_frame_legacy b ~src:3 ~dst:7 ~layer:"consensus" p
        in
        let q = Bq.create 16 in
        Bq.add_string q "padpad";
        Bq.consume q 4;
        let len = Codec.encode_frame q ~src:3 ~dst:7 ~layer:"consensus" p in
        checki (e.Codec.name ^ " body length agrees") len_legacy len;
        Alcotest.(check string)
          (e.Codec.name ^ " frame bytes identical")
          ("ad" ^ Buffer.contents b) (Bq.contents q)
      done)
    (Codec.entries ());
  (* Back-to-back frames share one queue: each backpatch must hit its
     own frame's reserved span, never a neighbour's. *)
  let rng = Rng.create 0xB0A7L in
  let q = Bq.create 32 and b = Buffer.create 1024 in
  List.iter
    (fun (e : Codec.entry) ->
      let p = e.Codec.gen rng in
      let lq = Codec.encode_frame q ~src:1 ~dst:2 ~layer:"consensus" p in
      let lb = encode_frame_legacy b ~src:1 ~dst:2 ~layer:"consensus" p in
      checki (e.Codec.name ^ " burst body length agrees") lb lq)
    (Codec.entries ());
  Alcotest.(check string) "burst of frames identical" (Buffer.contents b)
    (Bq.contents q)

(* Frames arriving split at arbitrary byte boundaries: feed a multi-frame
   stream into a queue through the transport's ensure/blit/advance read
   path, draining after every chunk exactly as the event loop does.  No
   chunk size may yield a decode error, a lost frame, or a leftover
   byte. *)
let test_partial_frame_chunked_decode () =
  ensure_all ();
  let rng = Rng.create 0xC4A2L in
  let entries = Codec.entries () in
  let payloads = List.map (fun (e : Codec.entry) -> e.Codec.gen rng) entries in
  let stream_buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      ignore
        (encode_frame_legacy stream_buf ~src:4 ~dst:5 ~layer:"consensus" p
          : int))
    payloads;
  let stream = Buffer.contents stream_buf in
  let expected = List.map encode_bytes payloads in
  let feed q pos len =
    Bq.ensure q len;
    Bytes.blit_string stream pos (Bq.unsafe_bytes q) (Bq.tail q) len;
    Bq.advance q len
  in
  (* The event loop's drain, minus the socket: parse complete frames in
     place, consume them, stop at the first partial one. *)
  let drain q acc =
    let continue = ref true in
    while !continue do
      let buf = Bytes.unsafe_to_string (Bq.unsafe_bytes q) in
      let pos = Bq.head q and limit = Bq.tail q in
      if limit - pos < Codec.header_bytes then continue := false
      else
        match Codec.decode_header ~pos buf with
        | Error e -> Alcotest.failf "mid-stream header error: %s" e
        | Ok h ->
            if limit - pos - Codec.header_bytes < h.Codec.h_body_len then
              continue := false
            else (
              (match Codec.decode_body ~pos:(pos + Codec.header_bytes) buf h with
              | Error e -> Alcotest.failf "mid-stream body error: %s" e
              | Ok p -> acc := encode_bytes p :: !acc);
              Bq.consume q (Codec.header_bytes + h.Codec.h_body_len))
    done
  in
  List.iter
    (fun chunk ->
      let q = Bq.create 16 in
      let got = ref [] in
      let pos = ref 0 in
      let n = String.length stream in
      while !pos < n do
        let len = min chunk (n - !pos) in
        feed q !pos len;
        drain q got;
        pos := !pos + len
      done;
      checki
        (Printf.sprintf "chunk %d: every frame decoded" chunk)
        (List.length expected) (List.length !got);
      checkb
        (Printf.sprintf "chunk %d: payloads identical in order" chunk)
        true
        (List.rev !got = expected);
      checki (Printf.sprintf "chunk %d: no leftover bytes" chunk) 0 (Bq.length q))
    [ 1; 2; 3; 5; 7; 13; Codec.header_bytes; Codec.header_bytes + 1; 64; 1021 ];
  (* A strict prefix of a frame must sit queued, undecoded, until the
     rest arrives. *)
  let q = Bq.create 16 in
  let got = ref [] in
  let first =
    match Codec.decode_header stream with
    | Error e -> Alcotest.failf "stream head header: %s" e
    | Ok h -> Codec.header_bytes + h.Codec.h_body_len - 1
  in
  feed q 0 first;
  drain q got;
  checki "partial frame yields nothing" 0 (List.length !got);
  checki "partial frame stays queued" first (Bq.length q);
  feed q first (String.length stream - first);
  drain q got;
  checki "completion decodes the whole stream" (List.length expected)
    (List.length !got)

(* The body_bytes recalibration anchor: these digests were captured
   before the codec existed (hand-estimated sizes) under Model.constant +
   Host.instant, where timing is size-independent — so they must survive
   the switch to real encoded sizes bit-for-bit.  If one of these moves,
   either the trace format changed (update EXPERIMENTS.md) or scheduling
   behaviour drifted (a real regression).  They were re-captured, each
   time after --replay-check and --jobs-check passed and with every
   cell's verdict and violated properties unchanged: when the simulated
   cells moved onto the transport fault middleware (per-link fault draws
   instead of one run-wide stream), when CT's rounds r > 1 began
   proposing only to the processes whose estimate they hold (the CT
   digests; MR's and the on-ids blackout's did not move), and when the
   consensus sends of one step began leaving as one frame per
   destination (every digest but the on-ids blackout's; at n = 3 and
   n = 5 the 1000-seed app sweeps kept every cell's verdict), and when
   CT's round-r coordinator began deciding a majority of estimates
   stamped r - 1 instead of proposing it again (every CT digest, the
   on-ids blackout's included), and when every CT process began deciding
   on acks sent to all, with no decision flood (every CT digest; the
   1000-seed app sweeps at n = 3 and n = 5 kept every indirect verdict,
   and the faulty on-ids stack failed storm at 16 seeds of 1000 at n = 3
   instead of 14), and when flood began holding its relays behind the
   delivery's sends and sending to suspected processes last (the on-ids
   blackout's digest; the 1000-seed app sweeps at n = 3 and n = 5 and
   the batched storm/blackout sweeps kept every verdict table). *)
let test_sim_fingerprints_pinned () =
  let cases =
    (* [run_one]'s [?batching] defaults to [Abcast.no_batching], so these
       digests also pin the batching plumbing at batch=1/pipeline=1:
       proposing-on-arrival with no cap and no timer is not a separate
       code path that happens to agree — it is what the batched
       reduction degenerates to, and these pins hold it there. *)
    [
      (Chaos.Ct_indirect, Chaos.Drop, 2L, "5db0aa10eb8b9804679f656f940d540a");
      (Chaos.Mr_indirect, Chaos.Mixed, 3L, "516e8d15cb71d0c1dff3e8d9d6c03a64");
      (Chaos.Ct_on_ids, Chaos.Blackout, 3L, "0a257646e16455193aa135aef9dbee06");
      (* Storm drives the suspicion path hardest — these pin the
         Sorted_tbl rewrite of on_suspect/on_fd_change: digests captured
         under bucket-order Hashtbl.iter must hold under key-sorted
         iteration, proving insertion order coincided with key order. *)
      (Chaos.Ct_indirect, Chaos.Storm, 2L, "57b480314f34f21020e79d9d718f406e");
      (Chaos.Mr_indirect, Chaos.Storm, 3L, "5ca6a6871465581533c4d2661e501c61");
      (* Same digest as ct-indirect above: the two orderings take
         identical steps in this run, as they do in 93 of storm seeds
         1-200. *)
      (Chaos.Ct_on_ids, Chaos.Storm, 2L, "57b480314f34f21020e79d9d718f406e");
    ]
  in
  List.iter
    (fun (stack, plan, seed, expect) ->
      let r = Chaos.run_one stack plan ~seed in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s seed %Ld" (Chaos.stack_name stack)
           (Chaos.plan_name plan) seed)
        expect r.Chaos.fingerprint)
    cases

(* The six pins above run unbatched and without the app.  These two cover
   the hosted machine in Ride mode (its submits, applies and state hashes
   ride the trace) and a batched, pipelined cell, so moving the workload
   schedule or the app wiring cannot shift either path unnoticed.  The
   batched digest was re-captured, after a replay check of its cell, when
   the announce was deferred and sent to every process, and when flood
   began holding its relays; the app digest (a CT cell) when CT began
   deciding on acks at every process. *)
let test_app_and_batched_fingerprints_pinned () =
  let app = Chaos.run_one ~app:true Chaos.Ct_indirect Chaos.Storm ~seed:2L in
  Alcotest.(check string)
    "ct-indirect/storm seed 2, app" "c09904616af6fb2ddaf0b09058740771"
    app.Chaos.fingerprint;
  let batched =
    Chaos.run_one
      ~batching:{ Abcast.batch = 4; pipeline = 2; flush_ms = 2.0 }
      Chaos.Mr_indirect Chaos.Mixed ~seed:3L
  in
  Alcotest.(check string)
    "mr-indirect/mixed seed 3, batch 4 pipeline 2"
    "a6b8389219e8b0363cf28914272f19a9" batched.Chaos.fingerprint

(* The fault-parity probe run is deterministic end to end: the interposer
   draws per-link streams, so this digest moving means the middleware's
   draw order (or the trace format) changed — which would also break the
   sim-vs-live counter parity the runtime tests assert. *)
let test_parity_fingerprint_pinned () =
  let o = Ics_workload.Fault_parity.sim () in
  Alcotest.(check string)
    "parity sim fingerprint" "f5b29822045c364f870b5660115db675"
    o.Ics_workload.Fault_parity.fingerprint

(* The gate behind every replay hint the sweep prints: rerunning a seed in
   the same process must reproduce the fingerprint exactly. *)
let test_replay_check_clean () =
  let mismatches =
    Chaos.replay_check ~seed_base:5L ~stacks:Chaos.all_stacks
      ~plans:[ Chaos.Storm; Chaos.Blackout ] ()
  in
  Alcotest.(check int) "no rerun divergence" 0 (List.length mismatches)

let suites =
  [
    ( "codec",
      [
        Alcotest.test_case "round-trip every constructor" `Quick test_roundtrip_all;
        Alcotest.test_case "tags and names unique" `Quick test_unique_tags_and_names;
        Alcotest.test_case "ctl tags registered" `Quick test_ctl_tags_registered;
        Alcotest.test_case "unregistered payload rejected" `Quick test_unregistered_payload;
        Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "truncated frames rejected" `Quick test_truncated_frames;
        Alcotest.test_case "corrupt frames rejected" `Quick test_corrupt_frames;
        Alcotest.test_case "unknown tag rejected" `Quick test_unknown_tag_rejected;
        Alcotest.test_case "fuzzed decode never crashes" `Quick test_fuzz_decode_never_crashes;
        Alcotest.test_case "bq reservation survives growth" `Quick test_bq_reserve_across_growth;
        Alcotest.test_case "bq ensure/advance discipline" `Quick test_bq_ensure_advance;
        Alcotest.test_case "failed encode leaves no partial frame" `Quick test_encode_frame_error_truncates;
        Alcotest.test_case "in-place encoder matches legacy bytes" `Quick test_encode_into_matches_legacy;
        Alcotest.test_case "chunked partial-frame decode" `Quick test_partial_frame_chunked_decode;
        Alcotest.test_case "sim fingerprints pinned" `Quick test_sim_fingerprints_pinned;
        Alcotest.test_case "app and batched fingerprints pinned" `Quick
          test_app_and_batched_fingerprints_pinned;
        Alcotest.test_case "parity fingerprint pinned" `Quick test_parity_fingerprint_pinned;
        Alcotest.test_case "replay check finds no divergence" `Quick test_replay_check_clean;
      ] );
  ]
