module Rng = Ics_prelude.Rng
module Message = Ics_net.Message
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg

exception Error = Prim.Error

(* ------------------------------------------------------------------ *)
(* Payload codec registry.                                            *)
(* ------------------------------------------------------------------ *)

type entry = {
  tag : int;
  name : string;
  fits : Message.payload -> bool;
  size : Message.payload -> int;
  encode_into : Bq.t -> Message.payload -> unit;
  dec : Prim.reader -> Message.payload;
  gen : Rng.t -> Message.payload;
}

(* lint: allow DS1 — write-once registry: tags are constants, registration is idempotent and completes during stack assembly, before any sweep cell forks a domain *)
let by_tag : entry option array = Array.make 256 None

(* lint: allow DS1 — registration-order audit trail, written only inside the same pre-fork registration window as by_tag *)
let order : int list ref = ref []  (* tags in registration order *)

let register ~tag ~name ~fits ~size ~encode_into ~dec ~gen =
  if tag < 0 || tag > 255 then invalid_arg "Codec.register: tag out of range";
  (match by_tag.(tag) with
  | Some e when not (String.equal e.name name) ->
      invalid_arg
        (Printf.sprintf "Codec.register: tag 0x%02x taken by %s (wanted %s)"
           tag e.name name)
  | Some _ -> ()  (* idempotent re-registration of the same codec *)
  | None -> order := tag :: !order);
  by_tag.(tag) <- Some { tag; name; fits; size; encode_into; dec; gen }

let entries () =
  List.rev_map (fun tag -> Option.get by_tag.(tag)) !order

let find_for payload =
  let rec scan = function
    | [] -> None
    | tag :: rest -> (
        match by_tag.(tag) with
        | Some e when e.fits payload -> Some e
        | _ -> scan rest)
  in
  scan !order

let constructor_name payload =
  Obj.Extension_constructor.name (Obj.Extension_constructor.of_val payload)

let encode_payload w payload =
  match find_for payload with
  | None ->
      Prim.fail "encode: unregistered payload constructor %s" (constructor_name payload)
  | Some e ->
      Prim.u8 w e.tag;
      e.encode_into w payload

let decode_payload r =
  let tag = Prim.r_u8 r in
  match by_tag.(tag) with
  | None -> Prim.fail "decode: unknown payload tag 0x%02x" tag
  | Some e -> e.dec r

let body_bytes payload =
  match find_for payload with
  | None ->
      Prim.fail "size: unregistered payload constructor %s" (constructor_name payload)
  | Some e -> e.size payload

let measure enc =
  let w = Bq.create 256 in
  enc w;
  Bq.length w

(* ------------------------------------------------------------------ *)
(* Shared value codecs.  The arithmetic size of each value is defined *)
(* next to its encoder; the codec test suite pins size = |encoding|.  *)
(* ------------------------------------------------------------------ *)

let enc_msg_id w (id : Msg_id.t) =
  Prim.u16 w id.Msg_id.origin;
  Prim.u32 w id.Msg_id.seq

let dec_msg_id r =
  let origin = Prim.r_u16 r in
  let seq = Prim.r_u32 r in
  Msg_id.make ~origin ~seq

(* id + declared payload length + creation stamp + payload filler: the
   declared application bytes become actual bytes on the wire, which is
   what makes [body_bytes] real instead of estimated.  When the payload is
   at least eight bytes its first eight carry the application blob (two
   big-endian u32 halves — Prim has no 64-bit primitive); a blob of zero
   encodes exactly like the pre-app all-zero filler, so content-free
   messages are byte-identical to what they always were. *)

let enc_app_msg w (m : App_msg.t) =
  enc_msg_id w m.App_msg.id;
  Prim.u32 w m.App_msg.body_bytes;
  Prim.f64 w m.App_msg.created_at;
  if m.App_msg.body_bytes >= 8 then begin
    let blob = m.App_msg.blob in
    Prim.u32 w (Int64.to_int (Int64.shift_right_logical blob 32));
    Prim.u32 w (Int64.to_int (Int64.logand blob 0xFFFF_FFFFL));
    Prim.filler w (m.App_msg.body_bytes - 8)
  end
  else Prim.filler w m.App_msg.body_bytes

let dec_app_msg r =
  let id = dec_msg_id r in
  let body_bytes = Prim.r_u32 r in
  let created_at = Prim.r_f64 r in
  let blob =
    if body_bytes >= 8 then begin
      let hi = Prim.r_u32 r in
      let lo = Prim.r_u32 r in
      Prim.r_skip r (body_bytes - 8);
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    end
    else begin
      Prim.r_skip r body_bytes;
      0L
    end
  in
  App_msg.make ~blob ~id ~body_bytes ~created_at ()

let gen_msg_id rng = Msg_id.make ~origin:(Rng.int rng 64) ~seq:(Rng.int rng 100_000)

let gen_app_msg rng =
  let body_bytes = Rng.int rng 200 in
  let blob =
    if body_bytes >= 8 && Rng.int rng 2 = 0 then
      Int64.logor
        (Int64.shift_left (Int64.of_int (Rng.int rng 0x3FFF_FFFF)) 32)
        (Int64.of_int (Rng.int rng 0x3FFF_FFFF))
    else 0L
  in
  App_msg.make ~blob ~id:(gen_msg_id rng) ~body_bytes
    ~created_at:(Rng.float rng 10_000.0)
    ()

(* ------------------------------------------------------------------ *)
(* Frame format (DESIGN.md section 8): a fixed 16-byte header and a    *)
(* checksummed body whose first byte is the payload tag.               *)
(*                                                                    *)
(*   0      magic     0xA7                                            *)
(*   1      version   1                                               *)
(*   2-3    src       u16                                             *)
(*   4-5    dst       u16                                             *)
(*   6-7    layer     u16 (static wire id, below)                     *)
(*   8-11   body_len  u32                                             *)
(*   12-15  crc32     u32 (CRC-32/IEEE of the body)                   *)
(* ------------------------------------------------------------------ *)

let magic = 0xA7
let version = 1
let header_bytes = 16

(* Static wire ids for the layer names of this stack: the header stays
   fixed-width and nodes never have to agree on dynamic interning order. *)
let layer_table =
  [
    ("rb", 1);
    ("urb", 2);
    ("consensus", 3);
    ("fd", 4);
    ("retx-ack", 5);
    ("ctl", 6);
    ("parity", 7);  (* cross-backend fault-parity harness traffic *)
    ("app", 8);  (* client plane: cross-node command submission *)
  ]

let layer_to_wire name = List.assoc_opt name layer_table

let layer_of_wire id =
  let rec scan = function
    | [] -> None
    | (name, i) :: rest -> if i = id then Some name else scan rest
  in
  scan layer_table

type header = { h_src : int; h_dst : int; h_layer : string; h_body_len : int; h_crc : int }

(* One frame, written straight into the caller's queue — on the live
   wire that is the connection's outbound buffer, so there is no
   intermediate staging copy.  The body length is not known until the
   body is encoded, so the header's body_len/crc32 words are reserved
   and backpatched (logical offsets survive any growth the body encode
   triggers — see Bq).  On any encoder failure the queue is truncated
   back to the frame start: a partial frame must never reach a byte
   stream that cannot be resynchronized. *)
let encode_frame w ~src ~dst ~layer (payload : Message.payload) =
  let wire_layer =
    match layer_to_wire layer with
    | Some id -> id
    | None -> Prim.fail "encode: layer %s has no wire id" layer
  in
  let frame_start = Bq.length w in
  match
    Prim.u8 w magic;
    Prim.u8 w version;
    Prim.u16 w src;
    Prim.u16 w dst;
    Prim.u16 w wire_layer;
    let patch_at = Bq.reserve w 8 in
    let body_start = Bq.length w in
    encode_payload w payload;
    let body_len = Bq.length w - body_start in
    Bq.patch_u32 w ~at:patch_at body_len;
    Bq.patch_u32 w ~at:(patch_at + 4)
      (Prim.crc32_bytes (Bq.unsafe_bytes w)
         ~pos:(Bq.head w + body_start)
         ~len:body_len);
    body_len
  with
  | body_len -> body_len
  | exception e ->
      Bq.truncate w ~len:frame_start;
      raise e

let decode_header ?(pos = 0) buf =
  try
    let r = Prim.reader ~pos ~len:header_bytes buf in
    if Prim.r_u8 r <> magic then Prim.fail "bad magic";
    let v = Prim.r_u8 r in
    if v <> version then Prim.fail "unsupported version %d" v;
    let h_src = Prim.r_u16 r in
    let h_dst = Prim.r_u16 r in
    let wire_layer = Prim.r_u16 r in
    let h_body_len = Prim.r_u32 r in
    let h_crc = Prim.r_u32 r in
    match layer_of_wire wire_layer with
    | None -> Stdlib.Error (Printf.sprintf "unknown wire layer id %d" wire_layer)
    | Some h_layer -> Stdlib.Ok { h_src; h_dst; h_layer; h_body_len; h_crc }
  with Prim.Error e -> Stdlib.Error e

let decode_body ?(pos = 0) buf (h : header) =
  try
    if String.length buf - pos < h.h_body_len then
      Prim.fail "truncated body: have %d of %d bytes" (String.length buf - pos)
        h.h_body_len
    else if Prim.crc32 ~pos ~len:h.h_body_len buf <> h.h_crc then
      Prim.fail "checksum mismatch"
    else begin
      let r = Prim.reader ~pos ~len:h.h_body_len buf in
      let payload = decode_payload r in
      Prim.expect_end r;
      Stdlib.Ok payload
    end
  with Prim.Error e -> Stdlib.Error e

(* ------------------------------------------------------------------ *)
(* Built-in payloads that live below the protocol libraries.           *)
(* ------------------------------------------------------------------ *)

let tag_ping = 0x01
let tag_retx_ack = 0x08
let tag_retx_seq = 0x09

let register_builtins () =
  register ~tag:tag_ping ~name:"ping"
    ~fits:(function Message.Ping -> true | _ -> false)
    ~size:(fun _ -> 1)
    ~encode_into:(fun _ _ -> ())
    ~dec:(fun _ -> Message.Ping)
    ~gen:(fun _ -> Message.Ping);
  register ~tag:tag_retx_ack ~name:"retx.ack"
    ~fits:(function Ics_net.Retransmit.Ack _ -> true | _ -> false)
    ~size:(fun _ -> 1 + 4)
    ~encode_into:(fun w p ->
      match p with
      | Ics_net.Retransmit.Ack { upto } -> Prim.u32 w upto
      | _ -> assert false)
    ~dec:(fun r -> Ics_net.Retransmit.Ack { upto = Prim.r_u32 r })
    ~gen:(fun rng -> Ics_net.Retransmit.Ack { upto = Rng.int rng 10_000 });
  (* Wire-level retransmission frame: sequence number + the nested
     payload, encoded through the registry recursively. *)
  register ~tag:tag_retx_seq ~name:"retx.seq"
    ~fits:(function Ics_net.Retransmit.Seq _ -> true | _ -> false)
    ~size:(fun p ->
      match p with
      | Ics_net.Retransmit.Seq { inner; _ } ->
          Ics_net.Retransmit.seq_overhead + body_bytes inner
      | _ -> assert false)
    ~encode_into:(fun w p ->
      match p with
      | Ics_net.Retransmit.Seq { seq; inner } ->
          Prim.u32 w seq;
          encode_payload w inner
      | _ -> assert false)
    ~dec:(fun r ->
      let seq = Prim.r_u32 r in
      Ics_net.Retransmit.Seq { seq; inner = decode_payload r })
    ~gen:(fun rng ->
      Ics_net.Retransmit.Seq { seq = Rng.int rng 10_000; inner = Message.Ping })

let () = register_builtins ()
