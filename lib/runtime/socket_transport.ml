module Engine = Ics_sim.Engine
module Transport = Ics_net.Transport
module Message = Ics_net.Message
module Layer = Ics_net.Layer
module Codec = Ics_codec.Codec
module Prim = Ics_codec.Prim

(* Connection topology: node [i] dials every peer and uses the dialed
   socket for its outbound frames only; inbound frames arrive on sockets
   accepted from the peers' dials.  One-directional sockets mean a node
   never has to agree with a peer about which of two crossing connections
   to keep. *)

(* The loop's buffers are the shared byte queue from the codec plane:
   frames encode straight into a peer's outbound queue (backpatched
   header, no per-frame staging buffer) and sockets read straight into a
   connection's inbound queue, where frames decode in place.  The queue
   must never copy its whole contents per syscall — a descheduled node
   (five of them timeshare one core) accumulates megabytes of backlog,
   and an O(backlog) copy per 64 KB read turns the catch-up quadratic:
   the node falls further behind the longer it is behind, which is
   exactly the congestion collapse the saturation sweep exposes past the
   knee. *)
module Bq = Ics_codec.Bq

(* Persistent pollset over ppoll(2).  The fds/events/revents arrays live
   across loop iterations — readiness interest is flipped in place when
   a queue's occupancy changes, never rebuilt per iteration (the select
   loop this replaces re-assembled its fd lists on every pass).  Slots
   are compacted by swap-with-last; [reslot] tells the owner its new
   index so owner records can keep an O(1) handle on their slot.  The
   wait's timeout is in microseconds, so the loop wakes at the next
   engine timer instead of up to a millisecond after it. *)
module Poll = struct
  (* poll(2) event bits (Linux/BSD values; poll.h has used these
     everywhere that matters for two decades). *)
  let pollin = 0x001
  let pollout = 0x004
  let pollerr = 0x008
  let pollhup = 0x010
  let pollnval = 0x020

  (* Returns the ready count, 0 on EINTR; raises [Unix.Unix_error] on
     any other ppoll failure. *)
  external ppoll_fds :
    Unix.file_descr array -> int array -> int array -> int -> int -> int
    = "ics_ppoll_stub"

  external timer_slack_ns : unit -> int = "ics_timer_slack_ns_stub"

  (* The loop never blocks longer than this, so a [stop] that turns true
     without any I/O is noticed promptly. *)
  let max_wait_ms = 50.0

  (* Rounds up: a zero wait for a timer due in under a microsecond
     would spin until it is due. *)
  let timeout_us ms =
    if not (ms > 0.0) then 0
    else int_of_float (Float.ceil (Float.min max_wait_ms ms *. 1000.0))

  type 'a t = {
    mutable fds : Unix.file_descr array;
    mutable events : int array;
    mutable revents : int array;
    mutable owners : 'a array;
    mutable n : int;
    dummy : 'a;
    reslot : 'a -> int -> unit;
  }

  let create ~dummy ~reslot =
    {
      fds = Array.make 8 Unix.stdin;
      events = Array.make 8 0;
      revents = Array.make 8 0;
      owners = Array.make 8 dummy;
      n = 0;
      dummy;
      reslot;
    }

  let grow t =
    let cap = Array.length t.fds in
    if t.n = cap then begin
      let ncap = 2 * cap in
      let nf = Array.make ncap Unix.stdin in
      let ne = Array.make ncap 0 in
      let nr = Array.make ncap 0 in
      let no = Array.make ncap t.dummy in
      Array.blit t.fds 0 nf 0 cap;
      Array.blit t.events 0 ne 0 cap;
      Array.blit t.revents 0 nr 0 cap;
      Array.blit t.owners 0 no 0 cap;
      t.fds <- nf;
      t.events <- ne;
      t.revents <- nr;
      t.owners <- no
    end

  let add t fd ~events owner =
    grow t;
    let slot = t.n in
    t.fds.(slot) <- fd;
    t.events.(slot) <- events;
    t.revents.(slot) <- 0;
    t.owners.(slot) <- owner;
    t.n <- slot + 1;
    t.reslot owner slot;
    slot

  let remove t slot =
    if slot < 0 || slot >= t.n then invalid_arg "Poll.remove: bad slot";
    let last = t.n - 1 in
    if slot <> last then begin
      t.fds.(slot) <- t.fds.(last);
      t.events.(slot) <- t.events.(last);
      t.revents.(slot) <- t.revents.(last);
      t.owners.(slot) <- t.owners.(last);
      t.reslot t.owners.(slot) slot
    end;
    t.owners.(last) <- t.dummy;
    t.n <- last

  let set_events t slot ev =
    if slot < 0 || slot >= t.n then invalid_arg "Poll.set_events: bad slot";
    t.events.(slot) <- ev

  let wait t ~timeout_us = ppoll_fds t.fds t.events t.revents t.n timeout_us

  (* Snapshot the ready owners before dispatching any of them: dispatch
     may close a connection, and the swap-with-last removal would
     otherwise make an index walk skip (or double-visit) slots.  Owners
     invalidated mid-dispatch are skipped by the dispatcher via their
     own liveness marker. *)
  let ready t =
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      if t.revents.(i) <> 0 then acc := (t.owners.(i), t.revents.(i)) :: !acc
    done;
    !acc
end

type peer = {
  mutable out_fd : Unix.file_descr option;
  out : Bq.t;
  mutable pslot : int;  (* pollset slot; -1 when out_fd = None *)
}

type conn = {
  fd : Unix.file_descr;
  in_q : Bq.t;
  mutable cslot : int;  (* pollset slot; -1 once closed *)
  mutable from : int;  (* the dialing peer, known from its first frame; -1 before *)
}

type owner = Nobody | Listen | Conn of conn | Peer of peer

type t = {
  engine : Engine.t;
  clock : Clock.t;
  self : int;
  n : int;
  listen : Unix.file_descr;
  peers : peer array;
  pollset : owner Poll.t;
  mutable conns : conn list;
  hung_up : bool array;  (* peer's connection to us ended: EOF or reset *)
  mutable transport : Transport.t option;
  mutable frames_out : int;
  mutable bytes_out : int;
  mutable writes_out : int;
  mutable frames_in : int;
  mutable bytes_in : int;
  mutable decode_errors : int;
  mutable timer_wakeups : int;
  mutable oversleep_us_sum : int;
  mutable oversleep_us_max : int;
}

let transport t = Option.get t.transport

let close_peer t peer =
  match peer.out_fd with
  | None -> ()
  | Some fd ->
      peer.out_fd <- None;
      if peer.pslot >= 0 then Poll.remove t.pollset peer.pslot;
      peer.pslot <- -1;
      Bq.clear peer.out;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close_conn t conn =
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  if conn.cslot >= 0 then Poll.remove t.pollset conn.cslot;
  conn.cslot <- -1;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let pending peer = Bq.length peer.out

let high_water = 256 * 1024

(* Readiness-interest invariant: a peer's slot carries POLLOUT exactly
   while its outbound queue is nonempty.  [emit] raises the flag on the
   empty->nonempty edge; the drain below lowers it on nonempty->empty.
   Everything else about the pollset is static per connection lifetime,
   so the loop never rebuilds interest sets. *)
let set_pollout t peer on =
  if peer.pslot >= 0 then
    Poll.set_events t.pollset peer.pslot (if on then Poll.pollout else 0)

(* Non-blocking drain of one peer's outbound queue.  Frames accumulate
   between poll iterations ([emit] does not flush), so one write here
   carries every frame queued since the last readiness burst — straight
   from the queue's storage, no copy. *)
let flush_peer t peer =
  match peer.out_fd with
  | None -> Bq.clear peer.out
  | Some fd -> (
      let q = peer.out in
      if Bq.length q > 0 then
        match Unix.write fd (Bq.unsafe_bytes q) (Bq.head q) (Bq.length q) with
        | written ->
            t.writes_out <- t.writes_out + 1;
            Bq.consume q written;
            if Bq.length q = 0 then set_pollout t peer false
        | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
        | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
            close_peer t peer)

let emit t (msg : Message.t) =
  if msg.Message.dst >= 0 && msg.Message.dst < t.n && msg.Message.dst <> t.self then begin
    let peer = t.peers.(msg.Message.dst) in
    if peer.out_fd <> None then begin
      let before = Bq.length peer.out in
      (* Straight into the outbound queue: header reserved, body encoded,
         length+CRC backpatched — no per-frame staging buffer.  On an
         encoder exception the codec truncates the queue back, so a
         partial frame never reaches the wire. *)
      ignore
        (Codec.encode_frame peer.out ~src:msg.Message.src ~dst:msg.Message.dst
           ~layer:(Layer.name msg.Message.layer) msg.Message.payload
          : int);
      t.frames_out <- t.frames_out + 1;
      t.bytes_out <- t.bytes_out + (Bq.length peer.out - before);
      if before = 0 then set_pollout t peer true;
      (* Coalesce: leave the frame queued for the next readiness burst
         unless the queue has grown past the high-water mark (bounds
         memory if a peer stalls mid-burst). *)
      if pending peer > high_water then flush_peer t peer
    end
  end

(* Decode every complete frame queued on [conn] and re-enter it through
   the transport; a malformed frame kills the connection (a corrupted TCP
   byte stream cannot be resynchronized).  Decoding reads the queue's
   storage in place — [Bytes.unsafe_to_string] is sound here because the
   codec retains no reference into its input past the call — and only
   [limit] (the logical tail) bounds parsing, never the physical buffer,
   which holds stale bytes beyond it. *)
let drain_input t conn =
  let q = conn.in_q in
  let buf = Bytes.unsafe_to_string (Bq.unsafe_bytes q) in
  let limit = Bq.tail q in
  let pos = ref (Bq.head q) in
  let alive = ref true in
  while
    !alive
    && limit - !pos >= Codec.header_bytes
    &&
    match Codec.decode_header ~pos:!pos buf with
    | Error e ->
        t.decode_errors <- t.decode_errors + 1;
        Printf.eprintf "[node %d] frame header error: %s\n%!" t.self e;
        close_conn t conn;
        alive := false;
        false
    | Ok h when h.Codec.h_body_len > 16 * 1024 * 1024 ->
        t.decode_errors <- t.decode_errors + 1;
        Printf.eprintf "[node %d] frame body length %d exceeds cap\n%!" t.self
          h.Codec.h_body_len;
        close_conn t conn;
        alive := false;
        false
    | Ok h ->
        if limit - !pos - Codec.header_bytes < h.Codec.h_body_len then false
        else begin
          (match Codec.decode_body ~pos:(!pos + Codec.header_bytes) buf h with
          | Error e ->
              t.decode_errors <- t.decode_errors + 1;
              Printf.eprintf "[node %d] frame body error: %s\n%!" t.self e;
              close_conn t conn;
              alive := false
          | Ok payload ->
              if conn.from < 0 then conn.from <- h.Codec.h_src;
              t.frames_in <- t.frames_in + 1;
              t.bytes_in <- t.bytes_in + Codec.header_bytes + h.Codec.h_body_len;
              (* Re-pin the virtual clock per frame: a descheduled process
                 drains a multi-second backlog in one burst, and stamping
                 every resulting trace event with the loop iteration's
                 start time makes decisions appear to precede the
                 broadcasts they order (merged-trace causality breaks). *)
              Engine.advance t.engine ~upto:(Clock.now t.clock);
              let msg =
                {
                  Message.src = h.Codec.h_src;
                  dst = h.Codec.h_dst;
                  layer = Layer.unregistered h.Codec.h_layer;
                  payload;
                  body_bytes = h.Codec.h_body_len;
                  sent_at = Engine.now t.engine;
                }
              in
              Transport.inject (transport t) msg);
          !alive && (pos := !pos + Codec.header_bytes + h.Codec.h_body_len;
                     true)
        end
  do
    ()
  done;
  if !alive then Bq.consume q (!pos - Bq.head q)

let read_size = 65536

(* Read straight into the queue's tail — no intermediate chunk, no
   concatenation; whatever a burst leaves unparsed just stays queued. *)
let handle_readable t conn =
  let q = conn.in_q in
  Bq.ensure q read_size;
  let hang_up () =
    if conn.from >= 0 && conn.from < t.n then t.hung_up.(conn.from) <- true;
    close_conn t conn
  in
  match Unix.read conn.fd (Bq.unsafe_bytes q) (Bq.tail q) (Bq.tail_room q) with
  | 0 -> hang_up ()
  | nread ->
      Bq.advance q nread;
      drain_input t conn
  | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> hang_up ()

let accept_ready t =
  let rec go () =
    match Unix.accept t.listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let conn = { fd; in_q = Bq.create read_size; cslot = -1; from = -1 } in
        ignore (Poll.add t.pollset fd ~events:Poll.pollin (Conn conn) : int);
        t.conns <- conn :: t.conns;
        go ()
    | exception Unix.Unix_error ((EWOULDBLOCK | EAGAIN | EINTR), _, _) -> ()
  in
  go ()

let dial addr ~attempts ~retry_delay =
  let rec go k =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Unix.set_nonblock fd;
        Some fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if k + 1 >= attempts then (
          ignore e;
          None)
        else begin
          Unix.sleepf retry_delay;
          go (k + 1)
        end
  in
  go 0

let create ~engine ~clock ~self ~listen ~peer_addrs () =
  let n = Engine.n engine in
  if Array.length peer_addrs <> n then
    invalid_arg "Socket_transport.create: peer_addrs size mismatch";
  (* A peer that exits early (deadline, plan-scheduled crash) closes its
     sockets while we may still be writing; without this the kernel kills
     us with SIGPIPE before [flush_peer]'s EPIPE handler can run. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Unix.set_nonblock listen;
  let pollset =
    Poll.create ~dummy:Nobody ~reslot:(fun owner slot ->
        match owner with
        | Nobody | Listen -> ()  (* listen is slot 0 and never removed *)
        | Conn c -> c.cslot <- slot
        | Peer p -> p.pslot <- slot)
  in
  let t =
    {
      engine;
      clock;
      self;
      n;
      listen;
      peers = Array.init n (fun _ -> { out_fd = None; out = Bq.create 4096; pslot = -1 });
      pollset;
      conns = [];
      hung_up = Array.make n false;
      transport = None;
      frames_out = 0;
      bytes_out = 0;
      writes_out = 0;
      frames_in = 0;
      bytes_in = 0;
      decode_errors = 0;
      timer_wakeups = 0;
      oversleep_us_sum = 0;
      oversleep_us_max = 0;
    }
  in
  ignore (Poll.add pollset listen ~events:Poll.pollin Listen : int);
  let transport = Transport.create_ext engine ~self ~emit:(fun msg -> emit t msg) () in
  (* Before any middleware exists: interposers capture the transport's env
     at install time, so the wall-clock variant must already be in place. *)
  Transport.set_env transport (Clock.env clock engine);
  t.transport <- Some transport;
  for p = 0 to n - 1 do
    if p <> self then begin
      (* The cluster parent pre-binds every listener before forking, so a
         dial normally succeeds on the first try; standalone nodes may
         start in any order and get the retry loop. *)
      let peer = t.peers.(p) in
      peer.out_fd <- dial peer_addrs.(p) ~attempts:100 ~retry_delay:0.05;
      match peer.out_fd with
      | Some fd ->
          (* Registered with no interest bits: POLLOUT is raised by the
             first queued byte, and poll still reports ERR/HUP on an idle
             slot, which is how a vanished peer is noticed. *)
          ignore (Poll.add pollset fd ~events:0 (Peer peer) : int)
      | None -> ()
    end
  done;
  t

let hung_up t p = t.hung_up.(p)

let connected t =
  let up = ref 0 in
  Array.iteri (fun p peer -> if p <> t.self && peer.out_fd <> None then incr up) t.peers;
  !up

(* A wait that ended on its timeout with a timer armed: how long after
   the timer's due time the loop got the CPU back. *)
let record_wakeup t at =
  let late_us = Float.max 0.0 ((Clock.now t.clock -. at) *. 1000.0) in
  let late_us = int_of_float (Float.round late_us) in
  t.timer_wakeups <- t.timer_wakeups + 1;
  t.oversleep_us_sum <- t.oversleep_us_sum + late_us;
  if late_us > t.oversleep_us_max then t.oversleep_us_max <- late_us

(* A peer that never says Bye — it crashed after its Done, or hangs —
   must not hold a node that is otherwise finished until the run
   deadline: past the barrier the loop waits at most this long for the
   caller's [leave] to hold.  A clean run never reaches the cap; its
   nodes leave about one round trip after the last peer is done. *)
let grace_ms = 250.0

type exit = { why : [ `Left | `Grace | `Deadline ]; linger_ms : float }

let drained t = Array.for_all (fun peer -> Bq.length peer.out = 0) t.peers

(* The live event loop: execute due engine events, then block in ppoll(2)
   until the next timer, inbound traffic, or writability of a clogged
   peer.  The engine's horizon is pinned once to [deadline] so that
   self-rearming timer loops (heartbeats) retire by themselves.  Once
   [stop] has held, [leave] is polled on every pass (it may queue
   frames, e.g. a Bye), and the loop exits when it holds with every
   outbound queue flushed, or at the grace cap. *)
let run t ~deadline ~stop ~leave =
  Engine.set_horizon t.engine (Some deadline);
  let stopped_at = ref None in
  let finished now =
    if now >= deadline then Some `Deadline
    else begin
      if Option.is_none !stopped_at && stop () then stopped_at := Some now;
      match !stopped_at with
      | None -> None
      | Some t0 ->
          if leave () && drained t then Some `Left
          else if t0 +. grace_ms <= now then Some `Grace
          else None
    end
  in
  let err_bits = Poll.pollerr lor Poll.pollhup lor Poll.pollnval in
  let dispatch (o, re) =
    match o with
    | Nobody -> ()
    | Listen -> accept_ready t
    | Conn conn ->
        (* cslot < 0: closed by an earlier dispatch in this same burst. *)
        if conn.cslot >= 0 then handle_readable t conn
    | Peer peer -> (
        match peer.out_fd with
        | None -> ()
        | Some _ ->
            if Bq.length peer.out > 0 then
              (* Writable (or erroring — the write surfaces it): one
                 coalesced write per readiness burst. *)
              flush_peer t peer
            else if re land err_bits <> 0 then
              (* ERR/HUP on an idle slot (interest 0): the peer is gone. *)
              close_peer t peer)
  in
  let rec loop () =
    let now = Clock.now t.clock in
    Engine.run_due t.engine ~upto:now;
    let now = Clock.now t.clock in
    match finished now with
    | Some why ->
        let linger_ms = match !stopped_at with Some t0 -> now -. t0 | None -> 0.0 in
        { why; linger_ms }
    | None ->
        let horizon =
          match !stopped_at with
          | Some t0 -> Float.min deadline (t0 +. grace_ms)
          | None -> deadline
        in
        let until_horizon = Float.max 0.0 (horizon -. now) in
        (* [armed]: the wait ends at an engine timer's due time, not at the
           horizon or the [Poll.max_wait_ms] cap. *)
        let timeout_ms, armed =
          match Engine.next_due t.engine with
          | Some at when at -. now <= Float.min Poll.max_wait_ms until_horizon ->
              (Float.max 0.0 (at -. now), Some at)
          | _ -> (until_horizon, None)
        in
        let nready = Poll.wait t.pollset ~timeout_us:(Poll.timeout_us timeout_ms) in
        if nready > 0 then List.iter dispatch (Poll.ready t.pollset)
        else Option.iter (record_wakeup t) armed;
        loop ()
  in
  loop ()

let close t =
  Array.iter (close_peer t) t.peers;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  try Unix.close t.listen with Unix.Unix_error _ -> ()

type stats = {
  frames_out : int;
  bytes_out : int;
  writes_out : int;
  frames_in : int;
  bytes_in : int;
  decode_errors : int;
  timer_wakeups : int;
  oversleep_us_sum : int;
  oversleep_us_max : int;
}

let stats (t : t) =
  {
    frames_out = t.frames_out;
    bytes_out = t.bytes_out;
    writes_out = t.writes_out;
    frames_in = t.frames_in;
    bytes_in = t.bytes_in;
    decode_errors = t.decode_errors;
    timer_wakeups = t.timer_wakeups;
    oversleep_us_sum = t.oversleep_us_sum;
    oversleep_us_max = t.oversleep_us_max;
  }
