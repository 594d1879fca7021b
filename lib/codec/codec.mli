(** Wire codec: a per-constructor payload codec registry plus the framed
    binary format the live runtime speaks (DESIGN.md section 8).

    Each protocol layer registers an encoder/decoder (and a fuzz
    generator, and an arithmetic size function) for its
    {!Ics_net.Message.payload} constructors, next to where it registers
    its transport handlers.  The arithmetic sizes are what the protocol
    layers pass as [body_bytes] — the codec test suite pins
    [size p = |encode p|] for every registered constructor, so the
    simulated byte accounting and the live wire format cannot drift
    apart. *)

module Rng = Ics_prelude.Rng
module Message = Ics_net.Message
module Msg_id = Ics_net.Msg_id
module App_msg = Ics_net.App_msg

exception Error of string
(** Alias of {!Prim.Error}: the single decode-failure exception. *)

(** {1 Registry} *)

val register :
  tag:int ->
  name:string ->
  fits:(Message.payload -> bool) ->
  size:(Message.payload -> int) ->
  encode_into:(Bq.t -> Message.payload -> unit) ->
  dec:(Prim.reader -> Message.payload) ->
  gen:(Rng.t -> Message.payload) ->
  unit
(** Register the codec for one payload constructor under a globally
    unique wire [tag] (0..255).  [size] is the full encoded body length
    {e including} the tag byte; [encode_into]/[dec] handle only the
    fields ([tag] itself is written/consumed by the registry).
    [encode_into] appends straight into the caller's queue — on the live
    wire that is the connection's outbound {!Bq.t}, so encoding never
    stages through an intermediate [Buffer].  Re-registering the same
    [name] on the same [tag] is an idempotent no-op.
    @raise Invalid_argument on a tag collision with a different codec. *)

type entry = {
  tag : int;
  name : string;
  fits : Message.payload -> bool;
  size : Message.payload -> int;
  encode_into : Bq.t -> Message.payload -> unit;
  dec : Prim.reader -> Message.payload;
  gen : Rng.t -> Message.payload;
}

val entries : unit -> entry list
(** All registered codecs, in registration order — the coverage universe
    of the round-trip property test. *)

val encode_payload : Prim.writer -> Message.payload -> unit
(** Append tag byte + fields.  @raise Error on unregistered payloads. *)

val decode_payload : Prim.reader -> Message.payload
(** @raise Error on unknown tags or malformed fields. *)

val body_bytes : Message.payload -> int
(** The registered arithmetic size (= encoded length) of a payload. *)

val measure : (Prim.writer -> unit) -> int
(** Length of an encoding, via a scratch buffer (test/bench helper). *)

(** {1 Shared value codecs} *)

val enc_msg_id : Prim.writer -> Msg_id.t -> unit
val dec_msg_id : Prim.reader -> Msg_id.t
val gen_msg_id : Rng.t -> Msg_id.t

val enc_app_msg : Prim.writer -> App_msg.t -> unit
val dec_app_msg : Prim.reader -> App_msg.t
val gen_app_msg : Rng.t -> App_msg.t

(** {1 Framing} *)

val magic : int
val version : int

val header_bytes : int
(** 16: magic, version, src u16, dst u16, layer u16, body_len u32,
    crc32 u32. *)

val layer_to_wire : string -> int option
val layer_of_wire : int -> string option

type header = {
  h_src : int;
  h_dst : int;
  h_layer : string;
  h_body_len : int;
  h_crc : int;
}

val encode_frame :
  Prim.writer -> src:int -> dst:int -> layer:string -> Message.payload -> int
(** Append one full frame (header + body) into the caller's queue and
    return the body length.  The header's [body_len] and [crc32] fields
    are {!Bq.reserve}d before the body and backpatched after it, so the
    whole frame lands in the queue with no intermediate staging buffer.
    If the payload encoder raises, the queue is truncated back to its
    pre-frame length — a partial frame never reaches the wire.
    @raise Error on unregistered payloads or unknown layer names. *)

val decode_header : ?pos:int -> string -> (header, string) result
(** Parse the fixed header at [pos]; never raises. *)

val decode_body : ?pos:int -> string -> header -> (Message.payload, string) result
(** Checksum-verify and decode the body at [pos]; never raises. *)

val register_builtins : unit -> unit
(** Codecs for the payloads defined below the protocol libraries
    ({!Ics_net.Message.Ping}, {!Ics_net.Retransmit.Ack}).  Runs at module
    initialization; exposed for idempotent re-registration. *)
