(* Binary min-heap over (time, seq), stored as three parallel arrays.

   The struct-of-arrays layout keeps the timestamps in a flat [float array]
   (unboxed), so pushing an event allocates nothing beyond the caller's
   closure and every comparison reads an unboxed float.  Sifting uses the
   hold-the-hole technique: the moving element stays in locals while
   ancestors/descendants shift into the hole, one store per level instead
   of a three-store swap. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
}

let nop () = ()
let initial_capacity = 256

let create () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    runs = Array.make initial_capacity nop;
    size = 0;
    next_seq = 0;
  }

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let runs = Array.make cap nop in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.runs 0 runs 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.runs <- runs

let push t ~time run =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up with a hole.  The fresh seq is larger than every queued seq,
     so on equal times the new event never moves up — FIFO tie-break. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < t.times.(parent) then begin
      t.times.(!i) <- t.times.(parent);
      t.seqs.(!i) <- t.seqs.(parent);
      t.runs.(!i) <- t.runs.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.runs.(!i) <- run

let is_empty t = t.size = 0
let size t = t.size

let min_time_exn t =
  if t.size = 0 then invalid_arg "Event_queue.min_time_exn: empty queue";
  t.times.(0)

let pop_run_exn t =
  if t.size = 0 then invalid_arg "Event_queue.pop_run_exn: empty queue";
  let top = t.runs.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last = 0 then t.runs.(0) <- nop
  else begin
    (* Remove the last element and sift it down from the root hole. *)
    let lt = t.times.(last) and ls = t.seqs.(last) and lr = t.runs.(last) in
    t.runs.(last) <- nop;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && (t.times.(r) < t.times.(l)
               || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        if t.times.(c) < lt || (t.times.(c) = lt && t.seqs.(c) < ls) then begin
          t.times.(!i) <- t.times.(c);
          t.seqs.(!i) <- t.seqs.(c);
          t.runs.(!i) <- t.runs.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- lt;
    t.seqs.(!i) <- ls;
    t.runs.(!i) <- lr
  end;
  top

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    let run = pop_run_exn t in
    Some (time, run)
  end

let clear t =
  Array.fill t.runs 0 t.size nop;
  t.size <- 0
