type kind =
  | Crash
  | Exit
  | Abroadcast of Msg_id.t
  | Adeliver of Msg_id.t
  | Rbroadcast of Msg_id.t
  | Rdeliver of Msg_id.t
  | Urb_broadcast of Msg_id.t
  | Urb_deliver of Msg_id.t
  | Propose of int * Msg_id.t list
  | Decide of int * Msg_id.t list
  | Suspect of Pid.t
  | Trust of Pid.t
  | Net_drop of Pid.t
  | Net_dup of Pid.t
  | Net_delay of Pid.t
  | Partition_start of string
  | Partition_heal of string
  | App_submit of int * int
  | App_applied of int * int
  | App_hash of int * int64
  | App_violation of string
  | Note of string

type event = { time : Time.t; pid : Pid.t; kind : kind }

(* Growable array of events: one record per event, no list spine, O(1)
   amortized append.  Rendering is deferred to [pp]; recording an event
   never formats a string. *)
type t = { mutable events : event array; mutable length : int }

let dummy = { time = 0.0; pid = 0; kind = Crash }

let create () = { events = [||]; length = 0 }

let grow t =
  let cap = Stdlib.max 256 (2 * Array.length t.events) in
  let bigger = Array.make cap dummy in
  Array.blit t.events 0 bigger 0 t.length;
  t.events <- bigger

let record t ~time ~pid kind =
  if t.length = Array.length t.events then grow t;
  t.events.(t.length) <- { time; pid; kind };
  t.length <- t.length + 1

let length t = t.length

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Trace.get: out of bounds";
  t.events.(i)

let iter t f =
  for i = 0 to t.length - 1 do
    f t.events.(i)
  done

let events t = List.init t.length (fun i -> t.events.(i))

let filter t pred =
  let acc = ref [] in
  for i = t.length - 1 downto 0 do
    if pred t.events.(i) then acc := t.events.(i) :: !acc
  done;
  !acc

let find_all t ~pid pred =
  filter t (fun e -> Pid.equal e.pid pid && pred e.kind)

let pp_ids ppf ids =
  Format.fprintf ppf "{%s}" (String.concat ", " (List.map Msg_id.to_string ids))

let pp_kind ppf = function
  | Crash -> Format.fprintf ppf "crash"
  | Exit -> Format.fprintf ppf "exit"
  | Abroadcast m -> Format.fprintf ppf "abroadcast(%a)" Msg_id.pp m
  | Adeliver m -> Format.fprintf ppf "adeliver(%a)" Msg_id.pp m
  | Rbroadcast m -> Format.fprintf ppf "rbroadcast(%a)" Msg_id.pp m
  | Rdeliver m -> Format.fprintf ppf "rdeliver(%a)" Msg_id.pp m
  | Urb_broadcast m -> Format.fprintf ppf "urb-broadcast(%a)" Msg_id.pp m
  | Urb_deliver m -> Format.fprintf ppf "urb-deliver(%a)" Msg_id.pp m
  | Propose (k, ids) -> Format.fprintf ppf "propose(#%d, %a)" k pp_ids ids
  | Decide (k, ids) -> Format.fprintf ppf "decide(#%d, %a)" k pp_ids ids
  | Suspect q -> Format.fprintf ppf "suspect(%a)" Pid.pp q
  | Trust q -> Format.fprintf ppf "trust(%a)" Pid.pp q
  | Net_drop q -> Format.fprintf ppf "net-drop(->%a)" Pid.pp q
  | Net_dup q -> Format.fprintf ppf "net-dup(->%a)" Pid.pp q
  | Net_delay q -> Format.fprintf ppf "net-delay(->%a)" Pid.pp q
  | Partition_start s -> Format.fprintf ppf "partition-start(%s)" s
  | Partition_heal s -> Format.fprintf ppf "partition-heal(%s)" s
  | App_submit (c, r) -> Format.fprintf ppf "app-submit(%d#%d)" c r
  | App_applied (c, r) -> Format.fprintf ppf "app-applied(%d#%d)" c r
  | App_hash (cur, h) -> Format.fprintf ppf "app-hash(@%d %Lx)" cur h
  | App_violation s -> Format.fprintf ppf "app-violation(%s)" s
  | Note s -> Format.fprintf ppf "note(%s)" s

let pp_event ppf e =
  Format.fprintf ppf "%a %a %a" Time.pp e.time Pid.pp e.pid pp_kind e.kind

let pp ppf t = iter t (fun e -> Format.fprintf ppf "%a@." pp_event e)

let fingerprint t = Digest.to_hex (Digest.string (Format.asprintf "%a" pp t))
