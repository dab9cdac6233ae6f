(* The daemon's router.  It owns the listening socket and every
   connection, parses request lines, and routes each feed to the shard
   owning its org-group; control requests are broadcast to all groups
   and their per-group parts merged back into one response.  Engine
   work, WAL appends, group commit, dedupe, and overload detection all
   live in Shard — one per org-group, executed by 1..shards worker
   domains (inline on this thread when single-shard, preserving the
   pre-sharding single-threaded daemon exactly).  DESIGN.md §15. *)

type config = {
  addr : Addr.t;
  service : Config.t;
  state_dir : string option;
  queue_cap : int;
  snapshot_every : int;
  drain_batch : int;
  degrade_to : string option;
  overload : Overload.config;
  shards : int;
  commit_interval : float;
}

let make_config ?state_dir ?(queue_cap = 1024) ?(snapshot_every = 4096)
    ?(drain_batch = 256) ?degrade_to ?(overload = Overload.default)
    ?(shards = 1) ?(commit_interval = 0.0) ~addr ~service () =
  {
    addr;
    service;
    state_dir;
    queue_cap;
    snapshot_every;
    drain_batch;
    degrade_to;
    overload;
    shards;
    commit_interval;
  }

let m_shed = Obs.Metrics.counter "service.shed"

(* Per-connection responses must come back in request order even though
   different shards answer at different speeds, so every request gets a
   slot and completions park in [pending] until their turn. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  out : Buffer.t;
  mutable eof : bool;
  mutable closed : bool;
  mutable next_slot : int;  (* next slot to assign *)
  mutable next_emit : int;  (* next slot to write out *)
  pending : (int, Protocol.response) Hashtbl.t;  (* done out of order *)
}

(* One broadcast control request: a part expected from every group. *)
type gather = {
  g_conn : conn option;  (* None: SIGTERM-driven drain, nobody to answer *)
  g_slot : int;
  g_kind : [ `Status | `Psi | `Snapshot | `Drain ];
  g_parts : Shard.part option array;
  mutable g_waiting : int;
}

type tok = Feed_tok of conn * int | Gather_tok of gather

type state = {
  cfg : config;
  base : Config.t;
      (* the durable identity: what WAL headers and snapshots carry.
         A shard's engine config may differ in [algorithm] while
         degraded. *)
  part : Partition.t;
  sh : tok Shard.t array;  (* by group *)
  workers : tok Shard.worker array;
  worker_of : int array;  (* group -> index into [workers] *)
  threaded : bool;
  comp : tok Shard.completion Shard.Mailbox.t;
  cap_g : int;  (* per-group admission bound *)
  mutable conns : conn list;
  mutable router_rejected : int;  (* parse/range/shed rejects *)
  mutable shed : int;
  mutable draining : bool;
  mutable shutdown : bool;
  mutable pending_gathers : int;
  mutable lagging : bool;
      (* the inline worker's last catch-up slice left work: poll the
         sockets without sleeping and run another *)
}

let term_requested = ref false

let emit conn resp =
  if not conn.closed then
    Buffer.add_string conn.out (Protocol.response_to_line resp)

let is_feed req = Protocol.stamp req <> None

let take_slot conn =
  let s = conn.next_slot in
  conn.next_slot <- s + 1;
  s

let deliver conn slot resp =
  if not conn.closed then begin
    if slot = conn.next_emit then begin
      emit conn resp;
      conn.next_emit <- conn.next_emit + 1;
      let rec flush () =
        match Hashtbl.find_opt conn.pending conn.next_emit with
        | Some r ->
            Hashtbl.remove conn.pending conn.next_emit;
            emit conn r;
            conn.next_emit <- conn.next_emit + 1;
            flush ()
        | None -> ()
      in
      flush ()
    end
    else Hashtbl.replace conn.pending slot resp
  end

let job_wait_summary () =
  if not (Obs.Metrics.enabled ()) then None
  else
    List.find_map
      (function
        | "sim.job_wait", Obs.Metrics.Histogram s -> Some s | _ -> None)
      (Obs.Metrics.snapshot ())

(* --- Merging per-group parts --------------------------------------------
   Clocks (now/frontier) merge by max: every group advanced at least to
   its own value, and the org-group partition makes their event streams
   independent.  Counters sum; per-org arrays scatter back into global
   org indexing by the partition's block offsets. *)

let merge_status s (parts : Shard.status_part array) =
  let open Shard in
  let sum f = Array.fold_left (fun a p -> a + f p) 0 parts in
  let fmax f = Array.fold_left (fun a p -> Float.max a (f p)) 0.0 parts in
  let imax f = Array.fold_left (fun a p -> max a (f p)) 0 parts in
  let estimator =
    let e0 = parts.(0).st_estimator in
    if Array.for_all (fun p -> p.st_estimator = e0) parts then e0 else "mixed"
  in
  {
    Protocol.now = imax (fun p -> p.st_now);
    frontier = imax (fun p -> p.st_frontier);
    horizon = s.base.Config.horizon;
    orgs = Config.organizations s.base;
    machines = Config.total_machines s.base;
    accepted = sum (fun p -> p.st_accepted);
    rejected = s.router_rejected + sum (fun p -> p.st_rejected);
    queue_depth = Array.fold_left (fun a sh -> a + Shard.depth sh) 0 s.sh;
    queue_cap = s.cfg.queue_cap;
    draining = s.draining;
    waiting = Partition.scatter_int s.part (fun g -> parts.(g).st_waiting);
    stats =
      Kernel.Stats.total
        (Array.to_list (Array.map (fun p -> p.st_stats) parts));
    job_wait = job_wait_summary ();
    estimator;
    degraded = Array.exists (fun p -> p.st_degraded) parts;
    shed = s.shed;
    ack_ewma_ms = fmax (fun p -> p.st_ewma);
    groups = Partition.groups s.part;
    shards = Array.length s.workers;
    fsyncs = sum (fun p -> p.st_fsyncs);
  }

let merge_psi s (parts : Shard.psi_part array) =
  Protocol.Psi_ok
    {
      now = Array.fold_left (fun a p -> max a p.Shard.ps_now) 0 parts;
      psi_scaled =
        Partition.scatter_int s.part (fun g -> parts.(g).Shard.ps_psi);
      parts = Partition.scatter_int s.part (fun g -> parts.(g).Shard.ps_parts);
    }

let merge_snapshot s (parts : (int * string, string) result array) =
  let err =
    Array.fold_left
      (fun acc r ->
        match (acc, r) with
        | (Some _ as e), _ -> e
        | None, Error e -> Some e
        | None, Ok _ -> None)
      None parts
  in
  match err with
  | Some msg ->
      Protocol.Error { code = Protocol.Wal_error; msg; retry_after_ms = None }
  | None ->
      let seq =
        Array.fold_left
          (fun a r -> match r with Ok (sq, _) -> max a sq | Error _ -> a)
          0 parts
      in
      Protocol.Snapshot_ok
        { seq; path = Option.value ~default:"" s.cfg.state_dir }

let merge_drain s (parts : Shard.drain_part array) =
  let open Shard in
  let detail = Array.exists (fun p -> p.dr_schedule <> None) parts in
  Protocol.Drain_ok
    {
      Protocol.d_now = Array.fold_left (fun a p -> max a p.dr_now) 0 parts;
      d_psi_scaled = Partition.scatter_int s.part (fun g -> parts.(g).dr_psi);
      d_parts = Partition.scatter_int s.part (fun g -> parts.(g).dr_parts);
      d_stats =
        Kernel.Stats.total
          (Array.to_list (Array.map (fun p -> p.dr_stats) parts));
      d_schedule =
        (if detail then
           Some
             (List.concat_map
                (fun p -> Option.value ~default:[] p.dr_schedule)
                (Array.to_list parts))
         else None);
    }

let finish_gather s g =
  s.pending_gathers <- s.pending_gathers - 1;
  let all extract =
    Array.map
      (fun p -> match p with Some x -> extract x | None -> assert false)
      g.g_parts
  in
  let resp =
    match g.g_kind with
    | `Status ->
        Protocol.Status_ok
          (merge_status s
             (all (function Shard.P_status p -> p | _ -> assert false)))
    | `Psi ->
        merge_psi s (all (function Shard.P_psi p -> p | _ -> assert false))
    | `Snapshot ->
        merge_snapshot s
          (all (function Shard.P_snapshot r -> r | _ -> assert false))
    | `Drain ->
        merge_drain s (all (function Shard.P_drain p -> p | _ -> assert false))
  in
  (match g.g_conn with Some c -> deliver c g.g_slot resp | None -> ());
  if g.g_kind = `Drain then s.shutdown <- true

let start_gather s ~conn ~slot kind q =
  let groups = Partition.groups s.part in
  let g =
    {
      g_conn = conn;
      g_slot = slot;
      g_kind = kind;
      g_parts = Array.make groups None;
      g_waiting = groups;
    }
  in
  s.pending_gathers <- s.pending_gathers + 1;
  let tok = Gather_tok g in
  for grp = 0 to groups - 1 do
    Shard.post_msg s.workers.(s.worker_of.(grp)) ~group:grp
      (Shard.Query { tok; q })
  done

(* --- Routing ------------------------------------------------------------- *)

let route_feed s conn slot req ~now =
  let reject code msg retry_after_ms =
    s.router_rejected <- s.router_rejected + 1;
    deliver conn slot (Protocol.Error { code; msg; retry_after_ms })
  in
  let norgs = Config.organizations s.base in
  let machines = Config.total_machines s.base in
  (* Range checks the shards cannot do: routing needs a valid global id
     before a group can be chosen.  Error texts match the engine's. *)
  let target =
    match req with
    | Protocol.Submit { org; _ } ->
        if org < 0 || org >= norgs then
          Error (Online.error_to_string (Online.Bad_org { org; norgs }))
        else Ok (Partition.group_of_org s.part org)
    | Protocol.Fault { event; _ } ->
        let m = Faults.Event.machine event in
        if m < 0 || m >= machines then
          Error
            (Online.error_to_string
               (Online.Bad_machine { machine = m; machines }))
        else Ok (Partition.group_of_machine s.part m)
    | Protocol.Endow { event; _ } -> (
        (* Every org and machine the event names must live in one group:
           the group's engine owns them, and a cross-group transfer would
           need the shards to share ownership state.  The partition is
           org-contiguous, so a consortium whose lending crosses groups
           should be served with fewer groups. *)
        let named_orgs =
          Federation.Event.org event
          ::
          (match event with
          | Federation.Event.Lend { to_org; _ } -> [ to_org ]
          | _ -> [])
        in
        let named_machines = Federation.Event.machines event in
        match
          ( List.find_opt (fun o -> o < 0 || o >= norgs) named_orgs,
            List.find_opt (fun m -> m < 0 || m >= machines) named_machines )
        with
        | Some org, _ ->
            Error (Online.error_to_string (Online.Bad_org { org; norgs }))
        | None, Some m ->
            Error
              (Online.error_to_string
                 (Online.Bad_machine { machine = m; machines }))
        | None, None ->
            let grp = Partition.group_of_org s.part (List.hd named_orgs) in
            if
              List.for_all
                (fun o -> Partition.group_of_org s.part o = grp)
                named_orgs
              && List.for_all
                   (fun m -> Partition.group_of_machine s.part m = grp)
                   named_machines
            then Ok grp
            else
              Error
                "endowment event spans multiple org-groups (members of a \
                 lending consortium must share one group)")
    | Protocol.Status | Protocol.Psi | Protocol.Snapshot | Protocol.Drain _
    | Protocol.Metrics | Protocol.Trace _ ->
        assert false
  in
  match target with
  | Error msg -> reject Protocol.Bad_request msg None
  | Ok grp ->
      let sh = s.sh.(grp) in
      let depth = Shard.depth sh in
      let full = depth >= s.cap_g in
      (* Under sustained overload, shed before the hard cap: refusing
         cheaply at half occupancy keeps ack latency bounded for the
         feeds already admitted.  Per-group, so one hot org-group sheds
         while the others keep absorbing. *)
      let shedding =
        Shard.published_overloaded sh && depth >= max 1 (s.cap_g / 2)
      in
      if full || shedding then begin
        s.shed <- s.shed + 1;
        Obs.Metrics.incr m_shed;
        let msg =
          if full then Printf.sprintf "admission queue full (%d queued)" depth
          else Printf.sprintf "shedding load (overloaded, %d queued)" depth
        in
        reject Protocol.Backpressure msg (Some (Shard.published_retry_ms sh))
      end
      else begin
        (* The router-side leg of the request's trace: an instant on
           lane 1 carrying the client-issued trace id, paired with the
           owning shard's [shard.feed] span on its own lane. *)
        (if Obs.Trace.enabled () then
           let trace =
             match Protocol.stamp req with Some (_, _, tr) -> tr | None -> 0
           in
           let args =
             ("group", Obs.Json.Int grp)
             :: (if trace = 0 then [] else [ ("trace", Obs.Json.Int trace) ])
           in
           Obs.Trace.instant ~cat:"service" ~args "router.route");
        Shard.depth_incr sh;
        Shard.post_msg s.workers.(s.worker_of.(grp)) ~group:grp
          (Shard.Feed { tok = Feed_tok (conn, slot); req; t_enq = now })
      end

let route_request s conn req ~now =
  let slot = take_slot conn in
  if is_feed req then route_feed s conn slot req ~now
  else
    match req with
    | Protocol.Status ->
        start_gather s ~conn:(Some conn) ~slot `Status Shard.Q_status
    | Protocol.Psi -> start_gather s ~conn:(Some conn) ~slot `Psi Shard.Q_psi
    | Protocol.Snapshot ->
        if s.cfg.state_dir = None then
          deliver conn slot
            (Protocol.Error
               {
                 code = Protocol.Unsupported;
                 msg = "no state directory (daemon is ephemeral)";
                 retry_after_ms = None;
               })
        else start_gather s ~conn:(Some conn) ~slot `Snapshot Shard.Q_snapshot
    | Protocol.Drain { detail } ->
        s.draining <- true;
        start_gather s ~conn:(Some conn) ~slot `Drain
          (Shard.Q_drain { detail })
    (* Live scrapes answered on the router thread: the metrics registry
       and trace rings are process-global, so no shard round-trip is
       needed — the snapshot merges every domain's cells as-is. *)
    | Protocol.Metrics ->
        deliver conn slot (Protocol.Metrics_ok { metrics = Obs.Metrics.to_json () })
    | Protocol.Trace { limit } ->
        let events = List.length (Obs.Trace.events ()) in
        deliver conn slot
          (Protocol.Trace_ok
             {
               events = min events limit;
               dropped = Obs.Trace.dropped ();
               trace = Obs.Trace.to_json ~limit ();
             })
    | Protocol.Submit _ | Protocol.Fault _ | Protocol.Endow _ -> assert false

let enqueue_line s conn line =
  let now = Unix.gettimeofday () in
  match Protocol.request_of_line line with
  | Error msg ->
      let slot = take_slot conn in
      s.router_rejected <- s.router_rejected + 1;
      deliver conn slot
        (Protocol.Error { code = Protocol.Parse; msg; retry_after_ms = None })
  | Ok req -> route_request s conn req ~now

let handle_completions s =
  List.iter
    (function
      | Shard.Ack { tok = Feed_tok (conn, slot); resp } ->
          deliver conn slot resp
      | Shard.Ack { tok = Gather_tok _; _ } -> assert false
      | Shard.Part { tok = Gather_tok g; group; part } -> (
          match g.g_parts.(group) with
          | Some _ -> ()
          | None ->
              g.g_parts.(group) <- Some part;
              g.g_waiting <- g.g_waiting - 1;
              if g.g_waiting = 0 then finish_gather s g)
      | Shard.Part { tok = Feed_tok _; _ } -> assert false)
    (Shard.Mailbox.drain s.comp)

(* --- Socket plumbing ----------------------------------------------------- *)

let protect f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "%s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message e))

let split_lines s conn =
  let data = Buffer.contents conn.rbuf in
  let len = String.length data in
  let pos = ref 0 in
  (try
     while true do
       let i = String.index_from data !pos '\n' in
       enqueue_line s conn (String.sub data !pos (i - !pos));
       pos := i + 1
     done
   with Not_found -> ());
  Buffer.clear conn.rbuf;
  Buffer.add_substring conn.rbuf data !pos (len - !pos);
  if Buffer.length conn.rbuf > Protocol.max_line then begin
    Buffer.clear conn.rbuf;
    let slot = take_slot conn in
    s.router_rejected <- s.router_rejected + 1;
    deliver conn slot
      (Protocol.Error
         {
           code = Protocol.Parse;
           msg =
             Printf.sprintf "request line exceeds %d bytes" Protocol.max_line;
           retry_after_ms = None;
         });
    conn.eof <- true
  end

let read_conn s conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.eof <- true
  | n ->
      Buffer.add_subbytes conn.rbuf chunk 0 n;
      split_lines s conn
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      conn.closed <- true

let write_conn conn =
  let data = Buffer.contents conn.out in
  if data <> "" then
    match
      Unix.write conn.fd (Bytes.unsafe_of_string data) 0 (String.length data)
    with
    | n ->
        Buffer.clear conn.out;
        Buffer.add_substring conn.out data n (String.length data - n)
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        conn.closed <- true

let close_conn conn =
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* A connection is dead when closed, or at EOF with nothing left to
   write {e and} nothing still in flight in the shards (next_emit has
   caught up with next_slot). *)
let reap s =
  let live, dead =
    List.partition
      (fun c ->
        not
          (c.closed
          || (c.eof && Buffer.length c.out = 0 && c.next_emit = c.next_slot)))
      s.conns
  in
  List.iter close_conn dead;
  s.conns <- live

let accept_conn s listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
      Unix.set_nonblock fd;
      (match s.cfg.addr with
      | Addr.Tcp _ -> (
          try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
      | Addr.Unix_sock _ -> ());
      s.conns <-
        {
          fd;
          rbuf = Buffer.create 1024;
          out = Buffer.create 1024;
          eof = false;
          closed = false;
          next_slot = 0;
          next_emit = 0;
          pending = Hashtbl.create 8;
        }
        :: s.conns
  | exception
      Unix.Unix_error
        ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED
          | Unix.ECONNRESET ),
          _,
          _ ) ->
      (* A connection that died between accept-readiness and accept(2)
         must not take the daemon down. *)
      ()

let flush_remaining s =
  (* After shutdown: give clients a few seconds to receive what they are
     owed, then close everything. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec go () =
    reap s;
    let writers =
      List.filter_map
        (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
        s.conns
    in
    if writers <> [] && Unix.gettimeofday () < deadline then begin
      (match Unix.select [] writers [] 0.25 with
      | _, ws, _ ->
          List.iter (fun c -> if List.mem c.fd ws then write_conn c) s.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go ()
    end
  in
  go ();
  List.iter close_conn s.conns;
  s.conns <- []

let rec serve_loop s listen_fd =
  if !term_requested && not s.draining then begin
    s.draining <- true;
    start_gather s ~conn:None ~slot:0 `Drain (Shard.Q_drain { detail = false })
  end;
  if s.shutdown && s.pending_gathers = 0 then ()
  else begin
    reap s;
    let readers =
      listen_fd
      :: Shard.Mailbox.wait_fd s.comp
      :: List.filter_map
           (fun c -> if c.eof || c.closed then None else Some c.fd)
           s.conns
    in
    let writers =
      List.filter_map
        (fun c ->
          if (not c.closed) && Buffer.length c.out > 0 then Some c.fd else None)
        s.conns
    in
    let timeout =
      if not (Shard.Mailbox.is_empty s.comp) then 0.0
      else if s.threaded then 1.0
      else if s.lagging then 0.0
      else Shard.wait_timeout s.workers.(0)
    in
    let flush () =
      handle_completions s;
      List.iter (fun c -> if not c.closed then write_conn c) s.conns
    in
    (* The inline worker's round is split around the router's writes:
       query replies and rejects go out before the group commit's fsync,
       held acks right after it.  An idle tick still runs the round:
       overload recovery is observed calm, not absence of traffic.  Once
       the acks are written, one catch-up slice runs; while it leaves work
       the next select only polls, so the sockets are re-checked between
       slices. *)
    let round () =
      if not s.threaded then begin
        Shard.process s.workers.(0);
        flush ();
        Shard.settle s.workers.(0)
      end;
      flush ();
      if not s.threaded then s.lagging <- Shard.catch_up s.workers.(0)
    in
    (match Unix.select readers writers [] timeout with
    | rs, _, _ ->
        if List.mem listen_fd rs then accept_conn s listen_fd;
        List.iter
          (fun c -> if (not c.closed) && List.mem c.fd rs then read_conn s c)
          s.conns;
        round ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> round ());
    serve_loop s listen_fd
  end

(* --- Startup ------------------------------------------------------------- *)

let ensure_dir dir =
  protect (fun () ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then
        raise (Unix.Unix_error (Unix.ENOTDIR, "state dir", dir)))

(* Resolve the durable identity.  A state dir holds one segment
   subdirectory wal-<g>/ per org-group — wal-0/ alone for a single-group
   daemon.  When the dir holds a previous life, the recovered config wins
   over the command line: the durable identity must match the log being
   replayed.  A top-level wal.ndjson or snapshot.json is the flat layout
   older builds wrote for one group; boot refuses it and names the move
   that upgrades it, because starting fresh beside it would drop acked
   work. *)
let resolve_base cfg =
  let ( let* ) = Result.bind in
  match cfg.state_dir with
  | None -> Ok cfg.service
  | Some dir -> (
      let* () = ensure_dir dir in
      let flat =
        List.filter Sys.file_exists [ Wal.wal_path ~dir; Wal.snapshot_path ~dir ]
      in
      let seg0 = Wal.segment_dir ~dir ~group:0 in
      match Wal.segments ~dir with
      | _ when flat <> [] ->
          Error
            (Printf.sprintf
               "state dir %s holds the flat single-group layout (%s), which \
                this daemon no longer reads; move it into segment wal-0/ \
                first: mkdir %s && mv %s %s/"
               dir
               (String.concat ", " (List.map Filename.basename flat))
               seg0 (String.concat " " flat) seg0)
      | [] -> Ok cfg.service
      | segs -> (
          let n = List.length segs in
          if segs <> List.init n Fun.id then
            Error
              (Printf.sprintf
                 "state dir %s: segment directories are not contiguous \
                  (found %s)"
                 dir
                 (String.concat ", "
                    (List.map (fun g -> Printf.sprintf "wal-%d" g) segs)))
          else
            let* r0 =
              Result.map_error Wal.boot_error_to_string (Wal.recover ~dir:seg0)
            in
            match r0.Wal.r_config with
            | None ->
                (* no header yet: the first boot died before acking
                   anything, so there is nothing to resume *)
                Ok cfg.service
            | Some c ->
                if c.Config.groups <> n then
                  Error
                    (Printf.sprintf
                       "state dir %s: config declares %d org-groups but %d \
                        segments exist"
                       dir c.Config.groups n)
                else begin
                  if not (Config.equal c cfg.service) then
                    Obs.Log.warn ~component:"server"
                      ~fields:[ ("state_dir", Obs.Json.String dir) ]
                      "state dir holds a different configuration; resuming \
                       it (the command-line config is ignored)";
                  Ok c
                end))

let run ?(ready = fun () -> ()) cfg =
  let ( let* ) = Result.bind in
  term_requested := false;
  Obs.Trace.set_pid ~name:"router" 1;
  let* base = resolve_base cfg in
  let part = Partition.make base in
  let groups = Partition.groups part in
  let seg_dir grp =
    match cfg.state_dir with
    | None -> Ok None
    | Some dir ->
        let d = Wal.segment_dir ~dir ~group:grp in
        let* () = ensure_dir d in
        Ok (Some d)
  in
  let* sh =
    let rec go acc grp =
      if grp = groups then Ok (Array.of_list (List.rev acc))
      else
        let* sd = seg_dir grp in
        let* shard =
          Shard.create ~partition:part ~group:grp ~state_dir:sd
            ~overload:cfg.overload ~degrade_to:cfg.degrade_to
            ~snapshot_every:cfg.snapshot_every
            ~commit_interval:cfg.commit_interval ~commit_max:cfg.drain_batch ()
        in
        go (shard :: acc) (grp + 1)
    in
    go [] 0
  in
  let w_count = max 1 (min cfg.shards groups) in
  let threaded = w_count > 1 in
  let comp = Shard.Mailbox.create () in
  let cap_g = max 1 (cfg.queue_cap / groups) in
  let worker_of = Array.init groups (fun g -> g mod w_count) in
  let workers =
    Array.init w_count (fun w ->
        let shards =
          List.filter_map
            (fun g -> if worker_of.(g) = w then Some (g, sh.(g)) else None)
            (List.init groups Fun.id)
        in
        Shard.make_worker ~id:w ~shards ~drain_batch:cfg.drain_batch ~cap:cap_g
          ~post:(fun c -> Shard.Mailbox.push comp c))
  in
  Addr.cleanup cfg.addr;
  let* listen_fd =
    protect (fun () ->
        let fd = Unix.socket (Addr.domain cfg.addr) Unix.SOCK_STREAM 0 in
        (match cfg.addr with
        | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
        | Addr.Unix_sock _ -> ());
        (try
           Unix.bind fd (Addr.to_sockaddr cfg.addr);
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd)
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> term_requested := true));
  let s =
    {
      cfg;
      base;
      part;
      sh;
      workers;
      worker_of;
      threaded;
      comp;
      cap_g;
      conns = [];
      router_rejected = 0;
      shed = 0;
      draining = false;
      shutdown = false;
      lagging = false;
      pending_gathers = 0;
    }
  in
  if threaded then Array.iter Shard.start_worker workers;
  ready ();
  serve_loop s listen_fd;
  flush_remaining s;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Addr.cleanup cfg.addr;
  Array.iter Shard.stop_worker workers;
  Shard.Mailbox.close comp;
  Ok ()
