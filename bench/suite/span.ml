(* Spans the bench records around every public call it times.  They stay
   in memory and are written out with the report at exit; a span's
   parent is the span open around it, so a layer's self time is its
   duration minus its children's. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let closed = ref []
let open_ = ref []
let next = ref 0

let now () = Unix.gettimeofday ()

(* Run [f] inside a span; returns its result and wall duration (s). *)
let timed name f =
  let id = !next in
  incr next;
  let parent = match !open_ with p :: _ -> p | [] -> -1 in
  open_ := id :: !open_;
  let start = now () in
  let finish () =
    let stop = now () in
    open_ := List.tl !open_;
    closed := { id; parent; name; start; stop } :: !closed;
    stop -. start
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish () : float);
      raise e

let record name f = fst (timed name f)

let all () = List.sort (fun a b -> compare a.id b.id) !closed

(* Self time per span name: duration minus the durations of direct
   children, summed over every span of that name. *)
let self_times spans =
  let dur s = s.stop -. s.start in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])
