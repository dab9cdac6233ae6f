(* The load generator: one process, one thread, at most two connections,
   driven by one [Unix.select] loop.

   Each connection carries one stream of request lines.  A request is
   sent once it is due and its connection has fewer than [window]
   requests in flight; the daemon answers in order per connection, so the
   n-th response line on a connection answers its n-th request.

   - An open-loop stream has due times spaced by its rate.  Its latency
     is timed from when each request was due, not from when it was sent,
     so a stall in the daemon (or in the generator) is charged to every
     request that fell due during it.  How late the generator sent each
     request is recorded too: if that grows, the generator, not the
     daemon, set the pace and the run is not valid.
   - A saturating stream has every request due at once and a window, so
     it measures how fast the daemon drains a fixed batch.

   The loop runs against a [transport] so the accounting can be tested
   with a synthetic clock and server (see the test suite). *)

type transport = {
  now : unit -> float;  (** seconds, monotonic *)
  send : int -> string -> unit;  (** write one line on a connection *)
  poll : float -> (int * string) list;
      (** wait up to the given seconds for response lines; returns every
          complete line that arrived, tagged with its connection *)
}

type stream = {
  lines : string array;  (* newline-terminated requests, in send order *)
  due : float array;  (* seconds after the start; all 0 to saturate *)
  window : int;  (* max requests in flight on the connection *)
}

let open_stream ~rate lines =
  {
    lines;
    due = Array.init (Array.length lines) (fun i -> float_of_int i /. rate);
    window = max_int;
  }

let saturating ~window lines =
  { lines; due = Array.make (Array.length lines) 0.; window }

type result = {
  latency : float array;
      (* seconds from due to response; [infinity] when the request failed
         or never got an answer *)
  late : float array;  (* seconds from due to send *)
  ok : bool array;
  inflight_max : int;
  inflight : (float * int) list;
      (* (seconds since start, requests in flight) every 100 ms *)
  wall : float;  (* start to the last response *)
}

let failed r = Array.fold_left (fun n ok -> if ok then n else n + 1) 0 r.ok

(* [classify conn line] says whether a response is a success.  A
   connection that goes quiet for [timeout] seconds while requests are in
   flight fails everything still outstanding on every connection. *)
let run tr ~classify ~timeout streams =
  let nconn = Array.length streams in
  let results =
    Array.map
      (fun s ->
        let n = Array.length s.lines in
        (Array.make n infinity, Array.make n infinity, Array.make n false))
      streams
  in
  let next = Array.make nconn 0 in
  let pending = Array.init nconn (fun _ -> Queue.create ()) in
  let inflight_max = Array.make nconn 0 in
  let inflight = Array.make nconn [] in
  let t0 = tr.now () in
  let last_sample = ref neg_infinity in
  let last_answer = ref t0 in
  let wall = ref 0. in
  let sendable c =
    let s = streams.(c) in
    next.(c) < Array.length s.lines && Queue.length pending.(c) < s.window
  in
  let busy () =
    let b = ref false in
    for c = 0 to nconn - 1 do
      if next.(c) < Array.length streams.(c).lines
         || not (Queue.is_empty pending.(c))
      then b := true
    done;
    !b
  in
  let give_up () =
    for c = 0 to nconn - 1 do
      Queue.clear pending.(c);
      next.(c) <- Array.length streams.(c).lines
    done
  in
  while busy () do
    (* send everything that is due and fits the window *)
    for c = 0 to nconn - 1 do
      let s = streams.(c) in
      let _, late, _ = results.(c) in
      let continue = ref true in
      while !continue && sendable c do
        let i = next.(c) in
        let now = tr.now () in
        if t0 +. s.due.(i) > now then continue := false
        else begin
          late.(i) <- now -. (t0 +. s.due.(i));
          match tr.send c s.lines.(i) with
          | () ->
              Queue.push i pending.(c);
              next.(c) <- i + 1
          | exception (Failure _ | Unix.Unix_error _) ->
              give_up ();
              continue := false
        end
      done;
      inflight_max.(c) <- Stdlib.max inflight_max.(c) (Queue.length pending.(c))
    done;
    let now = tr.now () in
    if now -. !last_sample >= 0.1 then begin
      last_sample := now;
      for c = 0 to nconn - 1 do
        inflight.(c) <- (now -. t0, Queue.length pending.(c)) :: inflight.(c)
      done
    end;
    (* wait for responses until the next send falls due *)
    let wait = ref 0.1 in
    for c = 0 to nconn - 1 do
      if sendable c then
        wait := Float.min !wait (t0 +. streams.(c).due.(next.(c)) -. now)
    done;
    let lines =
      try tr.poll (Float.max 0. !wait)
      with Failure _ | Unix.Unix_error _ ->
        give_up ();
        []
    in
    let t = tr.now () in
    List.iter
      (fun (c, line) ->
        match Queue.take_opt pending.(c) with
        | None -> ()
        | Some i ->
            let latency, _, ok = results.(c) in
            ok.(i) <- classify c line;
            latency.(i) <-
              (if ok.(i) then t -. (t0 +. streams.(c).due.(i)) else infinity);
            last_answer := t;
            wall := t -. t0)
      lines;
    let outstanding = Array.exists (fun q -> not (Queue.is_empty q)) pending in
    if lines = [] && outstanding && t -. !last_answer > timeout then give_up ()
    else if not outstanding then last_answer := t
  done;
  Array.mapi
    (fun c (latency, late, ok) ->
      {
        latency;
        late;
        ok;
        inflight_max = inflight_max.(c);
        inflight = List.rev inflight.(c);
        wall = !wall;
      })
    results

(* A backlog that keeps growing means the daemon cannot sustain the rate
   and the latency numbers describe a queue, not the service: the median
   in-flight count over the last fifth of the run must stay within four
   times that of the first fifth, or below 64 requests. *)
let backlog_grows r =
  let samples = Array.of_list (List.map snd r.inflight) in
  let n = Array.length samples in
  if n < 10 then false
  else
    let fifth = n / 5 in
    let med lo = Pct.median (Array.map float_of_int (Array.sub samples lo fifth)) in
    let first = med 0 and last = med (n - fifth) in
    last > 64. && last > 4. *. (first +. 1.)

(* --- The real transport: Unix-domain sockets -------------------------- *)

let write_all fd line =
  let b = Bytes.unsafe_of_string line in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let socket_transport fds =
  let bufs = Array.map (fun _ -> Buffer.create 65536) fds in
  let chunk = Bytes.create 65536 in
  let index fd =
    let rec go i = if fds.(i) == fd then i else go (i + 1) in
    go 0
  in
  let split c acc =
    let s = Buffer.contents bufs.(c) in
    let acc = ref acc and pos = ref 0 in
    (try
       while true do
         let j = String.index_from s !pos '\n' in
         acc := (c, String.sub s !pos (j - !pos)) :: !acc;
         pos := j + 1
       done
     with Not_found -> ());
    Buffer.clear bufs.(c);
    Buffer.add_substring bufs.(c) s !pos (String.length s - !pos);
    !acc
  in
  let poll timeout =
    match Unix.select (Array.to_list fds) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | readable, _, _ ->
        List.rev
          (List.fold_left
             (fun acc fd ->
               let c = index fd in
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> failwith "daemon closed the connection"
               | n ->
                   Buffer.add_subbytes bufs.(c) chunk 0 n;
                   split c acc)
             [] readable)
  in
  { now = Pct.now_s; send = (fun c line -> write_all fds.(c) line); poll }
