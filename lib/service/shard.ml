(* One org-group's scheduling domain: its engine, WAL segment, dedupe
   table, overload detector, and group-commit buffer — everything the
   old single-threaded server owned, minus the sockets.  The router
   (Server) feeds it messages through a mailbox and receives
   completions; in single-shard mode the same code runs inline on the
   router thread.  See DESIGN.md §15. *)

(* Per-service counters aggregated across shards; no-ops unless the
   process enables Obs.Metrics.  [service.shed] lives in Server — the
   router sheds before a feed ever reaches a shard. *)
(* Live consortium membership (federated daemons): [fed.orgs_active] is
   the global k(t) summed over every group's contribution — groups
   publish from their own worker domains, so contributions live in a
   mutex-protected table and each publish re-sums it. *)
let g_fed_orgs_active = Obs.Metrics.gauge "fed.orgs_active"
let fed_active_lock = Mutex.create ()
let fed_active : (int, int) Hashtbl.t = Hashtbl.create 8

let m_dup_acks = Obs.Metrics.counter "service.dup_acks"
let m_degrade = Obs.Metrics.counter "service.degrade_switches"
let m_recover = Obs.Metrics.counter "service.recover_switches"
let m_wal_sync_failures = Obs.Metrics.counter "service.wal_sync_failures"
let m_fsync = Obs.Metrics.counter "service.fsync_total"
let m_acks = Obs.Metrics.counter "service.acks_total"
let g_queue_depth = Obs.Metrics.gauge "service.queue_depth"
let g_ack_ewma = Obs.Metrics.gauge "service.ack_ewma_ms"

(* Durability latency instruments (DESIGN.md §16): how long one WAL
   fsync takes, and how long an accepted feed's ack was held before the
   commit covering it released it. *)
let h_fsync_us = Obs.Metrics.histogram "service.fsync_us"
let h_commit_hold_us = Obs.Metrics.histogram "service.commit_hold_us"

(* --- Mailbox -------------------------------------------------------------
   A mutex-protected queue with a pipe for readiness: the producer writes
   one wake byte on the empty->non-empty transition, the consumer selects
   on the read end (a timed wait — OCaml's Condition has no timeout, and
   the idle tick needs one).  Single producer (the router), single
   consumer (one worker domain), but safe for any number. *)
module Mailbox = struct
  type 'a t = {
    q : 'a Queue.t;
    m : Mutex.t;
    rd : Unix.file_descr;
    wr : Unix.file_descr;
  }

  let create () =
    let rd, wr = Unix.pipe () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    { q = Queue.create (); m = Mutex.create (); rd; wr }

  let push t x =
    let was_empty =
      Mutex.protect t.m (fun () ->
          let e = Queue.is_empty t.q in
          Queue.push x t.q;
          e)
    in
    if was_empty then
      try ignore (Unix.write t.wr (Bytes.make 1 'x') 0 1)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        (* pipe full = consumer already has pending wakeups *)
        ()

  let drain t =
    let buf = Bytes.create 64 in
    (try
       while Unix.read t.rd buf 0 64 > 0 do
         ()
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ());
    Mutex.protect t.m (fun () ->
        let xs = List.of_seq (Queue.to_seq t.q) in
        Queue.clear t.q;
        xs)

  let is_empty t = Mutex.protect t.m (fun () -> Queue.is_empty t.q)
  let wait_fd t = t.rd

  let close t =
    (try Unix.close t.rd with Unix.Unix_error _ -> ());
    try Unix.close t.wr with Unix.Unix_error _ -> ()
end

(* --- Messages ------------------------------------------------------------ *)

type query = Q_status | Q_psi | Q_snapshot | Q_drain of { detail : bool }

type 'tok msg =
  | Feed of { tok : 'tok; req : Protocol.request; t_enq : float }
  | Query of { tok : 'tok; q : query }
  | Tick  (* wake only: stop checks *)

(* Per-shard slices of the aggregated control responses.  Arrays are
   local to the group's org block; the router scatters them into global
   vectors by the partition's offsets. *)
type status_part = {
  st_now : int;
  st_frontier : int;
  st_accepted : int;
  st_rejected : int;
  st_waiting : int array;
  st_stats : Kernel.Stats.t;
  st_estimator : string;
  st_degraded : bool;
  st_ewma : float;
  st_fsyncs : int;
}

type psi_part = { ps_now : int; ps_psi : int array; ps_parts : int array }

type drain_part = {
  dr_now : int;
  dr_psi : int array;
  dr_parts : int array;
  dr_stats : Kernel.Stats.t;
  dr_schedule : (int * int * int * int * int) list option;
      (* rows already translated to global org/machine ids *)
}

type part =
  | P_status of status_part
  | P_psi of psi_part
  | P_snapshot of (int * string, string) result
  | P_drain of drain_part

type 'tok completion =
  | Ack of { tok : 'tok; resp : Protocol.response }
  | Part of { tok : 'tok; group : int; part : part }

(* --- Shard state --------------------------------------------------------- *)

type 'tok t = {
  group : int;
  part : Partition.t;
  base : Config.t;  (* the global durable identity (WAL headers) *)
  sub : Config.t;  (* this group's induced config (drives the engine) *)
  state_dir : string option;  (* this segment's directory *)
  site_prefix : string;
  snapshot_every : int;
  degrade_to : string option;
  commit_interval : float;  (* seconds: upper bound on an ack's hold *)
  commit_max : int;  (* held-ack count that forces an early commit *)
  mutable online : Online.t;
  mutable estimator : string;
  mutable writer : Wal.writer option;
  mutable seq : int;
  mutable records_rev : Wal.record list;
  mutable since_snapshot : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable draining : bool;
  dedupe : (int, int * Protocol.response) Hashtbl.t;
  detector : Overload.t;
  (* group-commit: acks awaiting the fsync that covers their records,
     oldest first, each with its enqueue time *)
  held : ('tok * Protocol.response * float) Queue.t;
  mutable fsyncs : int;
  (* published for the router's routing/shedding decisions *)
  pub_overloaded : bool Atomic.t;
  pub_retry_ms : int Atomic.t;
  depth : int Atomic.t;  (* mailbox+backlog feeds: router ++, worker -- *)
  (* fairness SLO instruments (DESIGN.md §16): per-org ψ/p gauges under
     global org ids, the group's max |ψ−p| drift, and the estimator's
     Thm 5.6 sample budget — refreshed by the pump, throttled *)
  slo_psi : Obs.Metrics.gauge array;
  slo_p : Obs.Metrics.gauge array;
  slo_drift : Obs.Metrics.gauge;
  slo_budget : Obs.Metrics.gauge;
  (* consortium membership gauge (federated daemons): machines homed in
     this group currently lent to another owner *)
  fed_lent : Obs.Metrics.gauge;
  mutable slo_last : float;
}

let group t = t.group
let sub_config t = t.sub
let fsyncs t = t.fsyncs
let accepted t = t.accepted
let depth t = Atomic.get t.depth
let depth_incr t = Atomic.incr t.depth
let published_overloaded t = Atomic.get t.pub_overloaded
let published_retry_ms t = Atomic.get t.pub_retry_ms

(* --- The one admission path ------------------------------------------------
   A feed is admitted as the WAL record it is logged under, and the live
   path and recovery run the same functions over that value: [check]
   validates it against the engine without mutating anything, [apply]
   feeds it and returns the ack its client gets.  Records carry global
   org/machine ids; the partition translates them to the group's local
   ones (the router guarantees every id a record names lives in this
   group).  Kernel determinism makes a replayed [apply] return exactly
   the ack the live one did, so the dedupe cache rebuilds from the log. *)

let check ~part online = function
  | Wal.Submit { org; size; release; _ } ->
      Online.check_submit online ~org:(Partition.local_org part org) ~size
        ~release
  | Wal.Fault { time; event; _ } ->
      Online.check_fault online ~time (Partition.local_fault part event)
  | Wal.Endow { time; event; _ } ->
      Online.check_endow online ~time (Partition.local_endow part event)
  | Wal.Mode _ -> Ok ()

let apply ~part online record =
  let now () = Online.now online in
  match record with
  | Wal.Submit { seq; org; user; release; size; _ } ->
      Online.submit online ~org:(Partition.local_org part org) ~user ~size
        ~release ()
      |> Result.map (fun index ->
             Protocol.Submit_ok { seq; org; index; now = now () })
  | Wal.Fault { seq; time; event; _ } ->
      Online.fault online ~time (Partition.local_fault part event)
      |> Result.map (fun () -> Protocol.Fault_ok { seq; now = now () })
  | Wal.Endow { seq; time; event; _ } ->
      Online.endow online ~time (Partition.local_endow part event)
      |> Result.map (fun () -> Protocol.Endow_ok { seq; now = now () })
  | Wal.Mode _ -> invalid_arg "Shard.apply: a Mode record feeds no engine"

let remember dedupe record resp =
  let cid, cseq = Wal.client_of record in
  if cid <> 0 && cseq > 0 then Hashtbl.replace dedupe cid (cseq, resp)

(* Recovery and estimator switches: feed every record to a fresh engine.
   [Mode] records are skipped (they describe estimator switches, not
   engine input); [dedupe], when given, is rebuilt alongside. *)
let replay ?dedupe ~part online records =
  let rec go = function
    | [] -> Ok ()
    | r :: rest when not (Wal.is_feed r) -> go rest
    | r :: rest -> (
        match apply ~part online r with
        | Ok resp ->
            Option.iter (fun tbl -> remember tbl r resp) dedupe;
            go rest
        | Error e ->
            Error
              (Printf.sprintf "replay: record %d rejected: %s" (Wal.seq_of r)
                 (Online.error_to_string e)))
  in
  go records

(* The estimator a record list leaves the shard in: the last Mode record
   wins, the base algorithm otherwise. *)
let final_estimator ~base records =
  List.fold_left
    (fun acc r ->
      match r with Wal.Mode { estimator; _ } -> estimator | _ -> acc)
    base.Config.algorithm records

(* The Thm 5.6 sample budget of the live estimator spec: how many joining
   orders one contribution evaluation draws (0 for exact REF).  Published
   as a gauge so [rand.orders_sampled] can be read against it — the
   ε-budget consumption SLO. *)
let estimator_budget ~spec ~players =
  match Algorithms.Estimator.of_string spec with
  | Ok est ->
      float_of_int
        (Option.value ~default:0
           (Algorithms.Estimator.sample_count est ~players))
  | Error _ -> 0.

(* --- Creation / recovery ------------------------------------------------- *)

let create ~partition ~group ~state_dir ~overload ~degrade_to ~snapshot_every
    ~commit_interval ~commit_max () =
  let ( let* ) = Result.bind in
  let base = Partition.config partition in
  let sub = Partition.sub_config partition group in
  let site_prefix =
    if Partition.groups partition = 1 then ""
    else Wal.segment_site_prefix ~group
  in
  let* records, last_seq =
    match state_dir with
    | None -> Ok ([], 0)
    | Some dir ->
        let* r = Result.map_error Wal.boot_error_to_string (Wal.recover ~dir) in
        let* () =
          match r.Wal.r_config with
          | Some c when not (Config.equal c base) ->
              Error
                (Printf.sprintf
                   "segment %d: stored config disagrees with the service \
                    config"
                   group)
          | Some _ | None -> Ok ()
        in
        Ok (r.Wal.r_records, r.Wal.r_last_seq)
  in
  (* Recovery shortcut for Mode records: build the engine once under the
     final estimator and feed it everything — equivalent by induction,
     each switch was itself defined as "fresh engine + full history". *)
  let estimator = final_estimator ~base records in
  let online =
    Online.create
      (if estimator = sub.Config.algorithm then sub
       else { sub with Config.algorithm = estimator })
  in
  let dedupe = Hashtbl.create 64 in
  let* () = replay ~dedupe ~part:partition online records in
  Obs.Log.info ~component:"wal"
    ~fields:
      [
        ("group", Obs.Json.Int group);
        ("records", Obs.Json.Int (List.length records));
        ("last_seq", Obs.Json.Int last_seq);
        ("estimator", Obs.Json.String estimator);
      ]
    "segment recovered";
  (* Compact on boot: one snapshot covering everything recovered, then a
     fresh WAL.  A crash right here is safe — the snapshot is atomic and
     the old WAL only duplicates records the sequence filter drops. *)
  let* writer =
    match state_dir with
    | None -> Ok None
    | Some dir ->
        let* () =
          if records = [] then Ok ()
          else
            Result.map
              (fun (_ : string) -> ())
              (Wal.write_snapshot ~site_prefix ~dir
                 { Wal.config = base; last_seq; records })
        in
        Result.map Option.some (Wal.create ~site_prefix ~dir ~config:base ())
  in
  let org_lo, org_hi = Partition.org_range partition group in
  let slo_psi =
    Array.init (org_hi - org_lo) (fun i ->
        Obs.Metrics.gauge (Printf.sprintf "fair.psi_org%d" (org_lo + i)))
  in
  let slo_p =
    Array.init (org_hi - org_lo) (fun i ->
        Obs.Metrics.gauge (Printf.sprintf "fair.p_org%d" (org_lo + i)))
  in
  let slo_drift =
    Obs.Metrics.gauge (Printf.sprintf "fair.drift_max_g%d" group)
  in
  let slo_budget =
    Obs.Metrics.gauge (Printf.sprintf "fair.estimator_budget_g%d" group)
  in
  let fed_lent =
    Obs.Metrics.gauge (Printf.sprintf "fed.machines_lent_g%d" group)
  in
  Obs.Metrics.set slo_budget
    (estimator_budget ~spec:estimator ~players:(org_hi - org_lo));
  if base.Config.federated then
    Mutex.protect fed_active_lock (fun () ->
        Hashtbl.replace fed_active group
          (Federation.Event.Ownership.orgs_active (Online.ownership online)));
  Ok
    {
      group;
      part = partition;
      base;
      sub;
      state_dir;
      site_prefix;
      snapshot_every;
      degrade_to;
      commit_interval;
      commit_max;
      online;
      estimator;
      writer;
      seq = last_seq;
      records_rev = List.rev records;
      since_snapshot = 0;
      accepted = List.length (List.filter Wal.is_feed records);
      rejected = 0;
      draining = false;
      dedupe;
      detector =
        Overload.create ~config:overload
          ~now_ms:(fun () -> Obs.Clock.now_s () *. 1000.0)
          ();
      held = Queue.create ();
      fsyncs = 0;
      pub_overloaded = Atomic.make false;
      pub_retry_ms = Atomic.make 25;
      depth = Atomic.make 0;
      slo_psi;
      slo_p;
      slo_drift;
      slo_budget;
      fed_lent;
      slo_last = 0.;
    }

let close t =
  Mutex.protect fed_active_lock (fun () -> Hashtbl.remove fed_active t.group);
  Option.iter Wal.close t.writer;
  t.writer <- None

(* --- Snapshot / compaction ----------------------------------------------- *)

let do_snapshot t =
  match t.state_dir with
  | None -> Error "no state directory (daemon is ephemeral)"
  | Some dir -> (
      let snapshot =
        { Wal.config = t.base; last_seq = t.seq; records = List.rev t.records_rev }
      in
      match Wal.write_snapshot ~site_prefix:t.site_prefix ~dir snapshot with
      | Error _ as e -> e
      | Ok path -> (
          (* Compact: every record is covered by the snapshot now. *)
          Option.iter Wal.close t.writer;
          t.writer <- None;
          Chaos.Fs.point (t.site_prefix ^ "before-wal-reset");
          match Wal.create ~site_prefix:t.site_prefix ~dir ~config:t.base () with
          | Error _ as e -> e
          | Ok w ->
              t.writer <- Some w;
              t.since_snapshot <- 0;
              Chaos.Fs.point (t.site_prefix ^ "after-wal-reset");
              Ok path))

(* --- Group commit --------------------------------------------------------
   Acks of accepted feeds are held until one fsync covers the whole
   batch.  The worker commits at the end of each pump when its backlog
   is empty (no more input is waiting, so holding buys nothing), when
   [commit_max] acks are held, or when the oldest held ack has waited
   [commit_interval] — an upper bound on the hold, not a fixed wait;
   [commit_interval = 0] syncs every pump that appended.  A sync failure
   answers the held batch with wal-error and keeps the records buffered —
   the next successful commit repairs and lands them. *)

let hold t tok resp t_enq = Queue.push (tok, resp, t_enq) t.held

(* The interval bound runs from the oldest held ack's enqueue time, so it
   bounds the total added latency, not just the server-side part. *)
let commit_due t ~now ~force =
  let n = Queue.length t.held in
  (n > 0 || match t.writer with Some w -> Wal.pending w | None -> false)
  && (force || t.commit_interval <= 0. || n >= t.commit_max
     ||
     match Queue.peek_opt t.held with
     | Some (_, _, t_enq) -> now -. t_enq >= t.commit_interval
     | None -> false)

(* Posts the acks this commit releases, in request order. *)
let commit t ~post ~now ~force =
  if commit_due t ~now ~force then begin
    let sync_result =
      match t.writer with
      | Some w when Wal.pending w ->
          let r =
            Obs.Trace.span ~cat:"service"
              ~args:
                [
                  ("group", Obs.Json.Int t.group);
                  ("acks", Obs.Json.Int (Queue.length t.held));
                ]
              "wal.commit"
              (fun () ->
                let t0 = Obs.Clock.now_ns () in
                let r = Wal.sync w in
                Obs.Metrics.observe h_fsync_us (Obs.Clock.elapsed t0 *. 1e6);
                r)
          in
          (match r with
          | Error _ -> Obs.Metrics.incr m_wal_sync_failures
          | Ok () ->
              t.fsyncs <- t.fsyncs + 1;
              Obs.Metrics.incr m_fsync);
          r
      | Some _ | None -> Ok ()
    in
    Queue.iter
      (fun (tok, resp, t_enq) ->
        Overload.observe_ack t.detector ~latency_ms:((now -. t_enq) *. 1000.);
        Obs.Metrics.incr m_acks;
        Obs.Metrics.observe h_commit_hold_us (Float.max 0. (now -. t_enq) *. 1e6);
        let resp =
          match sync_result with
          | Ok () -> resp
          | Error msg ->
              Protocol.Error
                { code = Protocol.Wal_error; msg; retry_after_ms = None }
        in
        post (Ack { tok; resp }))
      t.held;
    Queue.clear t.held
  end

(* --- Feed processing ----------------------------------------------------- *)

let code_of_online_error = function
  | Online.Drained -> Protocol.Draining
  | _ -> Protocol.Bad_request

let observe_and_post t ~post ~now ~t_enq tok resp =
  Overload.observe_ack t.detector ~latency_ms:((now -. t_enq) *. 1000.);
  Obs.Metrics.incr m_acks;
  post (Ack { tok; resp })

let reject t ~post ~now ~t_enq ?retry_after_ms tok code msg =
  t.rejected <- t.rejected + 1;
  observe_and_post t ~post ~now ~t_enq tok
    (Protocol.Error { code; msg; retry_after_ms })

(* At-most-once retransmission.  A feed carrying the (cid, cseq) of an
   already-applied one is answered from the cache — held like a fresh
   ack, so a cached OK is still gated on the commit that covers the
   original record (a sync failure keeps the record's bytes pending; the
   cached ack must not outrun them to the client). *)
let dedupe_hit t ~cid ~cseq =
  if cid = 0 then None
  else
    match Hashtbl.find_opt t.dedupe cid with
    | Some (last, resp) when cseq = last ->
        Obs.Metrics.incr m_dup_acks;
        Some (`Cached resp)
    | Some (last, _) when cseq < last && cseq > 0 -> Some (`Stale last)
    | Some _ | None -> None

(* Sequence and buffer one record; the next commit makes it durable. *)
let log t record =
  t.seq <- Wal.seq_of record;
  Option.iter (fun w -> Wal.append w record) t.writer;
  t.records_rev <- record :: t.records_rev;
  t.since_snapshot <- t.since_snapshot + 1

let feed_inner t ~post ~now tok req ~t_enq =
  (* control requests travel as [Query], never as [Feed] *)
  let record = Option.get (Wal.of_request ~seq:(t.seq + 1) req) in
  let cid, cseq = Wal.client_of record in
  match dedupe_hit t ~cid ~cseq with
  | Some (`Cached resp) -> hold t tok resp t_enq
  | Some (`Stale last) ->
      reject t ~post ~now ~t_enq tok Protocol.Bad_request
        (Printf.sprintf "stale cseq %d (last applied %d)" cseq last)
  | None when t.draining ->
      reject t ~post ~now ~t_enq tok Protocol.Draining "daemon is draining"
  | None -> (
      match check ~part:t.part t.online record with
      | Error e ->
          reject t ~post ~now ~t_enq tok (code_of_online_error e)
            (Online.error_to_string e)
      | Ok () -> (
          log t record;
          t.accepted <- t.accepted + 1;
          match apply ~part:t.part t.online record with
          | Ok resp ->
              remember t.dedupe record resp;
              hold t tok resp t_enq
          | Error e ->
              (* unreachable after check; fail loudly *)
              observe_and_post t ~post ~now ~t_enq tok
                (Protocol.Error
                   {
                     code = Protocol.Bad_request;
                     msg = Online.error_to_string e;
                     retry_after_ms = None;
                   })))

(* The shard-side leg of a request's trace: the feed runs inside a span
   on the worker domain carrying the client-issued trace id, so the
   merged dump correlates the router's admission instant with the engine
   work it caused, across the domain boundary. *)
let feed t ~post ~now tok (req : Protocol.request) ~t_enq =
  if not (Obs.Trace.enabled ()) then feed_inner t ~post ~now tok req ~t_enq
  else begin
    let trace_id =
      match Protocol.stamp req with Some (_, _, trace) -> trace | None -> 0
    in
    let args =
      ("group", Obs.Json.Int t.group)
      :: (if trace_id = 0 then [] else [ ("trace", Obs.Json.Int trace_id) ])
    in
    Obs.Trace.span ~cat:"service" ~args "shard.feed" (fun () ->
        feed_inner t ~post ~now tok req ~t_enq)
  end

(* --- Control queries ------------------------------------------------------ *)

let status_part t =
  {
    st_now = Online.now t.online;
    st_frontier = Online.frontier t.online;
    st_accepted = t.accepted;
    st_rejected = t.rejected;
    st_waiting = Online.queue_depths t.online;
    st_stats = Kernel.Stats.copy (Online.stats t.online);
    st_estimator = t.estimator;
    st_degraded = t.estimator <> t.base.Config.algorithm;
    st_ewma = Overload.ack_ewma_ms t.detector;
    st_fsyncs = t.fsyncs;
  }

let schedule_rows t =
  Core.Schedule.placements (Online.schedule t.online)
  |> List.map (fun (p : Core.Schedule.placement) ->
         ( Partition.global_org t.part ~group:t.group
             p.Core.Schedule.job.Core.Job.org,
           p.Core.Schedule.job.Core.Job.index,
           p.Core.Schedule.start,
           Partition.global_machine t.part ~group:t.group
             p.Core.Schedule.machine,
           p.Core.Schedule.duration ))

let drain_part t ~detail =
  {
    dr_now = Online.now t.online;
    dr_psi = Online.psi_scaled t.online;
    dr_parts = Online.parts t.online;
    dr_stats = Kernel.Stats.copy (Online.stats t.online);
    dr_schedule = (if detail then Some (schedule_rows t) else None);
  }

let query t ~post ~now tok q =
  let part p = post (Part { tok; group = t.group; part = p }) in
  match q with
  | Q_status -> part (P_status (status_part t))
  | Q_psi ->
      part
        (P_psi
           {
             ps_now = Online.now t.online;
             ps_psi = Online.psi_scaled t.online;
             ps_parts = Online.parts t.online;
           })
  | Q_snapshot ->
      (* the snapshot persists any still-buffered records, so the held
         acks it covers are released right after *)
      let r =
        Result.map (fun path -> (t.seq, path)) (do_snapshot t)
      in
      commit t ~post ~now ~force:true;
      part (P_snapshot r)
  | Q_drain { detail } ->
      if not t.draining then begin
        t.draining <- true;
        Online.drain t.online;
        (if t.state_dir <> None then
           match do_snapshot t with
           | Ok _ -> ()
           | Error msg ->
               Obs.Log.error ~component:"shard"
                 ~fields:[ ("group", Obs.Json.Int t.group) ]
                 "final snapshot failed: %s" msg);
        commit t ~post ~now ~force:true
      end;
      part (P_drain (drain_part t ~detail))

(* --- Degraded mode -------------------------------------------------------
   Switch the live estimator by rebuild-and-replay: log a Mode record,
   construct a fresh engine under the new algorithm, and feed it every
   accepted record.  Kernel determinism makes this exactly "a fresh
   session with the new estimator given the same history" — which is
   also precisely what crash recovery reproduces from the log, so a
   crash at any point around the switch stays bit-identical. *)

let switch_estimator t spec =
  log t (Wal.Mode { seq = t.seq + 1; estimator = spec });
  let online = Online.create { t.sub with Config.algorithm = spec } in
  match replay ~part:t.part online (List.rev t.records_rev) with
  | Ok () ->
      t.online <- online;
      t.estimator <- spec;
      true
  | Error msg ->
      (* Accepted records cannot be rejected on replay (determinism);
         reaching here is an invariant violation.  Keep the old engine
         rather than serve from a half-fed one. *)
      Obs.Log.error ~component:"shard"
        ~fields:
          [
            ("group", Obs.Json.Int t.group);
            ("estimator", Obs.Json.String spec);
          ]
        "estimator switch failed: %s" msg;
      false

let maybe_switch t =
  let base = t.base.Config.algorithm in
  let target =
    match (t.degrade_to, Overload.level t.detector) with
    | _ when t.draining -> None
    | Some spec, Overload.Overloaded when t.estimator <> spec ->
        Some (spec, m_degrade, "degrade", "overload: degrading estimator to ")
    | Some _, Overload.Normal when t.estimator <> base ->
        Some (base, m_recover, "recover", "recovered: estimator back to ")
    | _ -> None
  in
  match target with
  | Some (spec, counter, event, msg) when switch_estimator t spec ->
      Obs.Metrics.incr counter;
      Obs.Metrics.set t.slo_budget
        (estimator_budget ~spec ~players:(Config.organizations t.sub));
      Obs.Log.warn ~component:"shard"
        ~fields:
          [
            ("group", Obs.Json.Int t.group);
            ("event", Obs.Json.String event);
            ("estimator", Obs.Json.String spec);
          ]
        "%s%s" msg spec
  | Some _ | None -> ()

(* --- Worker: one domain (or the router thread) executing >= 1 shards ----- *)

type 'tok worker = {
  w_id : int;
  w_shards : (int * 'tok t) list;  (* group id -> shard, ascending *)
  w_mb : (int * 'tok msg) Mailbox.t;  (* messages tagged with group *)
  w_backlog : (int * 'tok msg) Queue.t;
  w_drain_batch : int;
  w_cap : int;  (* per-group admission bound, for occupancy observation *)
  w_stop : bool Atomic.t;
  w_post : 'tok completion -> unit;
  mutable w_domain : unit Domain.t option;
}

let make_worker ~id ~shards ~drain_batch ~cap ~post =
  {
    w_id = id;
    w_shards = shards;
    w_mb = Mailbox.create ();
    w_backlog = Queue.create ();
    w_drain_batch = drain_batch;
    w_cap = cap;
    w_stop = Atomic.make false;
    w_post = post;
    w_domain = None;
  }

let worker_shard w g = List.assoc g w.w_shards
let post_msg w ~group msg = Mailbox.push w.w_mb (group, msg)

(* Fairness SLO publication (DESIGN.md §16): copy the engine's live
   ψ/p vectors into the per-org gauges and refresh the group's max
   drift.  Scaled ints halve to utilities (Online keeps 2·value to stay
   integral); throttled so a busy pump doesn't pay the gauge stores on
   every round. *)
let publish_slo t ~now =
  if Obs.Metrics.enabled () && now -. t.slo_last >= 0.25 then begin
    t.slo_last <- now;
    let psi = Online.psi_scaled t.online in
    let parts = Online.parts t.online in
    let drift = ref 0. in
    Array.iteri
      (fun i s ->
        let p = parts.(i) in
        Obs.Metrics.set t.slo_psi.(i) (float_of_int s /. 2.);
        Obs.Metrics.set t.slo_p.(i) (float_of_int p /. 2.);
        drift := Float.max !drift (float_of_int (abs (s - p)) /. 2.))
      psi;
    Obs.Metrics.set t.slo_drift !drift;
    if t.base.Config.federated then begin
      let ownership = Online.ownership t.online in
      let lent = ref 0 in
      for u = 0 to Federation.Event.Ownership.orgs ownership - 1 do
        lent := !lent + Federation.Event.Ownership.lent_out ownership u
      done;
      Obs.Metrics.set t.fed_lent (float_of_int !lent);
      let active = Federation.Event.Ownership.orgs_active ownership in
      Mutex.protect fed_active_lock (fun () ->
          Hashtbl.replace fed_active t.group active;
          let total = Hashtbl.fold (fun _ v acc -> acc + v) fed_active 0 in
          Obs.Metrics.set g_fed_orgs_active (float_of_int total))
    end
  end

(* One processing round, split in two so that a single-shard router can
   write [process]'s replies before [settle]'s fsync.  Control queries
   don't consume the [drain_batch] budget, matching the pre-sharding
   server. *)
let process w =
  List.iter (fun m -> Queue.push m w.w_backlog) (Mailbox.drain w.w_mb);
  let now = Unix.gettimeofday () in
  let feeds = ref 0 in
  while !feeds < w.w_drain_batch && not (Queue.is_empty w.w_backlog) do
    let g, msg = Queue.pop w.w_backlog in
    match msg with
    | Feed { tok; req; t_enq } ->
        let sh = worker_shard w g in
        Atomic.decr sh.depth;
        feed sh ~post:w.w_post ~now tok req ~t_enq;
        incr feeds
    | Query { tok; q } -> query (worker_shard w g) ~post:w.w_post ~now tok q
    | Tick -> ()
  done

let settle w =
  let now = Unix.gettimeofday () in
  let idle = Queue.is_empty w.w_backlog in
  List.iter
    (fun (_, sh) ->
      commit sh ~post:w.w_post ~now ~force:idle;
      (* automatic compaction once enough records accumulated — but not
         while acks are held: the WAL reset below a held batch would
         drop its buffered bytes before snapshot covers them *)
      if
        sh.state_dir <> None && sh.snapshot_every > 0
        && sh.since_snapshot >= sh.snapshot_every
        && Queue.is_empty sh.held
      then (
        match do_snapshot sh with
        | Ok _ -> ()
        | Error msg ->
            Obs.Log.error ~component:"shard"
              ~fields:[ ("group", Obs.Json.Int sh.group) ]
              "auto-snapshot: %s" msg);
      maybe_switch sh;
      publish_slo sh ~now;
      let depth = Atomic.get sh.depth in
      Overload.observe_queue sh.detector ~depth ~cap:w.w_cap;
      Atomic.set sh.pub_overloaded
        (Overload.level sh.detector = Overload.Overloaded);
      Atomic.set sh.pub_retry_ms (Overload.retry_after_ms sh.detector);
      Obs.Metrics.set g_queue_depth (float_of_int depth);
      Obs.Metrics.set g_ack_ewma (Overload.ack_ewma_ms sh.detector))
    w.w_shards

(* Seconds the worker may sleep before something needs it: 0 when work
   is queued, else a 1 s idle tick (the overload detector recovers by
   observing calm).  No ack waits on a deadline: [settle] commits every
   held batch once the backlog is empty. *)
let wait_timeout w = if Queue.is_empty w.w_backlog then 1.0 else 0.

let catch_up w =
  List.fold_left
    (fun lagging (_, sh) -> Online.catch_up sh.online || lagging)
    false w.w_shards

(* After a round's acks are out: one catch-up slice, then, while the
   backlog is empty, more slices until nothing lags or the mailbox has
   work.  A saturated worker thus still runs one slice per round, which
   bounds how far the policy's deferred work falls behind. *)
let idle_catch_up w =
  let rec go () =
    if catch_up w && Queue.is_empty w.w_backlog && Mailbox.is_empty w.w_mb
    then go ()
  in
  go ()

let worker_loop w =
  (* own Chrome trace lane per worker domain; lane 1 is the router *)
  Obs.Trace.set_pid ~name:(Printf.sprintf "shard-worker-%d" w.w_id) (2 + w.w_id);
  try
    while not (Atomic.get w.w_stop) do
      let timeout = wait_timeout w in
      (if timeout > 0. then
         match Unix.select [ Mailbox.wait_fd w.w_mb ] [] [] timeout with
         | _ -> ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      process w;
      settle w;
      idle_catch_up w
    done
  with e ->
    (* a dead shard would hang its org-groups' clients silently; take the
       daemon down loudly instead *)
    Obs.Log.error ~component:"shard"
      ~fields:[ ("worker", Obs.Json.Int w.w_id) ]
      "shard worker %d died: %s" w.w_id (Printexc.to_string e);
    Unix._exit 2

let start_worker w = w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w))

let stop_worker w =
  Atomic.set w.w_stop true;
  Mailbox.push w.w_mb (0, Tick);
  (match w.w_domain with Some d -> Domain.join d | None -> ());
  w.w_domain <- None;
  Mailbox.close w.w_mb;
  List.iter (fun (_, sh) -> close sh) w.w_shards
