(* The five workloads, their timed runs and their traced runs.

   A timed run measures the end-to-end metrics with no instrumentation
   beyond a monotonic clock read around each policy decision.  A traced
   run repeats the timed run, then drives the same inputs through every
   layer from outside — the service path in process (Replay) and the
   batch simulator with a wrapped policy maker (Wrap) — and derives the
   per-layer metrics from those calls.  Both check their outputs. *)

(* --- Declared metrics -------------------------------------------------- *)

(* Every workload reports every metric of its mode, so each is defined
   for the service workloads and for the batch ones; README.md gives the
   definition per workload.  The p90 and p99 latencies are printed with
   their sample counts but not declared: from seed to seed they vary by
   more than any bound the benchmark may set (README.md). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.bytes_per_submit", "B");
    ("online.check_us", "us");
    ("online.submit_us", "us");
    ("online.submit_p99_us", "us");
    ("online.drain_ms", "ms");
    ("wal.append_us", "us");
    ("wal.sync_ms", "ms");
    ("wal.sync_p99_ms", "ms");
    ("wal.bytes_per_record", "B");
    ("wal.snapshots", "count");
    ("wal.snapshot_ms_max", "ms");
    ("gc.alloc_bytes_per_submit", "B");
    ("policy.make_ms", "ms");
    ("policy.select_us", "us");
    ("policy.select_p99_us", "us");
    ("policy.select_calls", "count");
    ("policy.select_s", "s");
    ("policy.hooks_s", "s");
    ("kernel.self_s", "s");
    ("kernel.instants", "count");
    ("kernel.rounds", "count");
    ("kernel.starts", "count");
    ("kernel.heap_pops", "count");
    ("ref.vcache_hit_ratio", "ratio");
    ("rand.vcache_hit_ratio", "ratio");
    ("pool.batches", "count");
    ("pool.chunks", "count");
    ("gc.alloc_mb", "MB");
    ("gc.major_collections", "count");
    ("batch.sims", "count");
  ]

(* --- Workloads --------------------------------------------------------- *)

type serve = {
  algorithm : string;
  orgs : int;
  machines : int;
  groups : int;
  horizon : int;
  rate : float;  (* steady submissions per second, connection 1 *)
  read_rate : float;  (* steady psi reads per second, connection 2 *)
  steady_share : float;  (* share of --seconds spent in the steady phase *)
  window : int;  (* saturate-phase requests in flight *)
}

type batch = {
  b_algorithm : string;
  b_orgs : int;
  b_machines : int;
  instances : int;
  jobs : int;  (* jobs per instance: a prefix of the submission stream *)
  tail : int;  (* horizon = last release + tail *)
}

type kind = Serve of serve | Batch of batch | Table1 of { t_instances : int }
type t = { name : string; kind : kind }

let full =
  [
    {
      name = "serve-fairshare";
      kind =
        Serve
          {
            algorithm = "fairshare";
            orgs = 8;
            machines = 16;
            groups = 4;
            horizon = 20_000_000;
            rate = 5000.;
            read_rate = 200.;
            steady_share = 0.45;
            window = 64;
          };
    };
    {
      name = "serve-rand24";
      kind =
        Serve
          {
            algorithm = "rand-15";
            orgs = 24;
            machines = 48;
            groups = 1;
            horizon = 20_000_000;
            rate = 150.;
            read_rate = 0.;
            steady_share = 0.6;
            window = 32;
          };
    };
    {
      name = "batch-ref8";
      kind =
        Batch
          {
            b_algorithm = "ref";
            b_orgs = 8;
            b_machines = 16;
            instances = 8;
            jobs = 300;
            tail = 20_000;
          };
    };
    {
      name = "batch-rand50";
      kind =
        Batch
          {
            b_algorithm = "rand-15";
            b_orgs = 50;
            b_machines = 100;
            instances = 6;
            jobs = 100;
            tail = 5_000;
          };
    };
    { name = "table1"; kind = Table1 { t_instances = 100 } };
  ]

(* About a second each, for the smoke alias: output checks only. *)
let smoke =
  List.map
    (fun w ->
      match w.kind with
      | Serve s ->
          { w with kind = Serve { s with rate = s.rate /. 5.; steady_share = 0.5 } }
      | Batch b -> { w with kind = Batch { b with instances = 1; jobs = 40 } }
      | Table1 _ -> { w with kind = Table1 { t_instances = 2 } })
    full

let names = List.map (fun w -> w.name) full

(* --- Run context and outcome ------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  serve_exe : string;
  work : string;  (* working directory of this run, removed at the end *)
  out : string;  (* where the trace file goes *)
}

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable metrics : (string * float) list;  (* in emission order, reversed *)
}

let log fmt = Printf.ksprintf prerr_endline fmt

let check o ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        o.errors <- msg :: o.errors;
        log "!! check failed: %s" msg
      end)
    fmt

let metric o name v = o.metrics <- (name, v) :: o.metrics
let ms s = s *. 1e3
let us s = s *. 1e6

let digest_psi psis =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun a -> String.concat "," (List.map string_of_int (Array.to_list a)))
             psis)))

let check_pin o ctx name digest =
  log "%s: output digest %s" name digest;
  match Pins.find ~workload:name ~seed:ctx.seed ~seconds:ctx.seconds with
  | None -> ()
  | Some pinned ->
      check o (digest = pinned) "%s: digest %s differs from the pinned %s" name
        digest pinned

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* --- Per-layer metrics of the traced legs ----------------------------- *)

let replay_metrics o (tm : Replay.times) =
  let med s = Pct.median (Pct.Samples.to_array s) in
  let p99 s = Pct.percentile (Pct.Samples.to_array s) 99. in
  let per_record v = v /. float_of_int tm.Replay.records in
  metric o "protocol.decode_us" (us (med tm.Replay.decode));
  metric o "protocol.encode_us" (us (med tm.Replay.encode));
  metric o "protocol.bytes_per_submit" (per_record (float_of_int tm.Replay.request_bytes));
  metric o "online.check_us" (us (med tm.Replay.check));
  metric o "online.submit_us" (us (med tm.Replay.submit));
  metric o "online.submit_p99_us" (us (p99 tm.Replay.submit));
  metric o "online.drain_ms" (ms tm.Replay.drain_s);
  metric o "wal.append_us" (us (med tm.Replay.append));
  metric o "wal.sync_ms" (ms (med tm.Replay.sync));
  metric o "wal.sync_p99_ms" (ms (p99 tm.Replay.sync));
  metric o "wal.bytes_per_record" (per_record (float_of_int tm.Replay.wal_bytes));
  metric o "wal.snapshots" (float_of_int (Pct.Samples.length tm.Replay.snapshot));
  metric o "wal.snapshot_ms_max"
    (ms (Array.fold_left Float.max 0. (Pct.Samples.to_array tm.Replay.snapshot)));
  metric o "gc.alloc_bytes_per_submit" (per_record tm.Replay.alloc_bytes)

(* Run [f] with Obs.Metrics on and report the batch leg's metrics:
   [f] returns the wall seconds and kernel counters of every simulation
   it ran. *)
let batch_leg_metrics o wrap f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let g0 = Gc.quick_stat () in
  let runs = f () in
  let g1 = Gc.quick_stat () in
  let counters = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled false;
  let counter name =
    match List.assoc_opt name counters with
    | Some (Obs.Metrics.Counter n) -> float_of_int n
    | _ -> 0.
  in
  let ratio prefix =
    let hits = counter (prefix ^ ".vcache_hits") in
    let total = hits +. counter (prefix ^ ".vcache_misses") in
    if total = 0. then 0. else hits /. total
  in
  let select_s = Wrap.seconds wrap.Wrap.select_ns in
  let hooks_s = Wrap.seconds wrap.Wrap.hooks_ns in
  let sims_s = List.fold_left (fun acc (w, _) -> acc +. w) 0. runs in
  let stats = Kernel.Stats.total (List.map snd runs) in
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  metric o "policy.make_ms" (Hist.percentile wrap.Wrap.make 50. *. 1e-6);
  metric o "policy.select_us" (Hist.percentile wrap.Wrap.select 50. *. 1e-3);
  metric o "policy.select_p99_us" (Hist.percentile wrap.Wrap.select 99. *. 1e-3);
  metric o "policy.select_calls" (float_of_int (Hist.count wrap.Wrap.select));
  metric o "policy.select_s" select_s;
  metric o "policy.hooks_s" hooks_s;
  metric o "kernel.self_s"
    (sims_s -. select_s -. hooks_s -. Wrap.seconds wrap.Wrap.make_ns);
  metric o "kernel.instants" (float_of_int stats.Kernel.Stats.instants);
  metric o "kernel.rounds" (float_of_int stats.Kernel.Stats.rounds);
  metric o "kernel.starts" (float_of_int stats.Kernel.Stats.starts);
  metric o "kernel.heap_pops" (float_of_int stats.Kernel.Stats.heap_pops);
  metric o "ref.vcache_hit_ratio" (ratio "ref");
  metric o "rand.vcache_hit_ratio" (ratio "rand");
  metric o "pool.batches" (counter "pool.batches");
  metric o "pool.chunks" (counter "pool.chunks");
  metric o "gc.alloc_mb" ((words g1 -. words g0) *. 8. /. 1048576.);
  metric o "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  metric o "batch.sims" (float_of_int (List.length runs));
  sims_s

let timed_run ?spans ?(args = []) f =
  let t0 = Pct.now_ns () in
  let r = f () in
  let t1 = Pct.now_ns () in
  Option.iter (fun s -> Spans.add s ~force:true ~args "run" ~t0 ~t1) spans;
  (Pct.ns_to_s (Int64.sub t1 t0), r)

let print_self_times spans =
  log "self time by span (first spans kept; %d dropped):" (Spans.dropped spans);
  List.iter
    (fun (name, n, s) -> log "  %-22s %8d spans %10.4f s" name n s)
    (Spans.self_times spans)

let write_trace ctx o name spans =
  let path = Filename.concat ctx.out (name ^ ".trace.json") in
  match Spans.write spans path with
  | Ok v -> log "%s: wrote %s (%d events, valid)" name path v.Obs.Trace.total_events
  | Error e -> check o false "%s: trace %s does not validate: %s" name path e

(* --- Service workloads ------------------------------------------------- *)

let serve_spec s =
  Workload.Scenario.default ~norgs:s.orgs ~machines:s.machines
    ~horizon:s.horizon Workload.Traces.lpc_egee

let serve_config s ~seed =
  let machines = fst (Workload.Scenario.split_and_map (serve_spec s) ~seed) in
  ok_or "config"
    (Service.Config.make ~groups:s.groups ~machines ~horizon:s.horizon
       ~algorithm:s.algorithm ~seed ())

let snapshot_every = 4096

(* The fixed flush policy: every org-group on the router's domain, an
   fsync per group commit with acks held up to 2 ms, the default snapshot
   cadence. *)
let serve_args s ~seed =
  [
    "--orgs"; string_of_int s.orgs;
    "--machines"; string_of_int s.machines;
    "--horizon"; string_of_int s.horizon;
    "--seed"; string_of_int seed;
    "--algorithm"; s.algorithm;
    "--groups"; string_of_int s.groups;
    "--shards"; "1";
    "--commit-interval"; "2";
    "--snapshot-every"; string_of_int snapshot_every;
  ]

let is_submit_ok line =
  match Service.Protocol.response_of_line line with
  | Ok (Service.Protocol.Submit_ok _) -> true
  | Ok _ | Error _ -> false

let is_psi_ok line =
  match Service.Protocol.response_of_line line with
  | Ok (Service.Protocol.Psi_ok _) -> true
  | Ok _ | Error _ -> false

let with_conns (d : Daemon.t) n f =
  let fds =
    Array.init n (fun _ ->
        let fd = Unix.socket (Service.Addr.domain d.Daemon.addr) Unix.SOCK_STREAM 0 in
        Unix.connect fd (Service.Addr.to_sockaddr d.Daemon.addr);
        fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () -> f (Openloop.socket_transport fds))

let live : Daemon.t list ref = ref []

let kill_live () =
  List.iter Daemon.kill !live;
  live := []

let serve ctx o name s =
  let seed = ctx.seed in
  let steady_s = s.steady_share *. ctx.seconds in
  let jobs =
    Workload.Scenario.submission_stream (serve_spec s) ~seed
    |> Seq.take_while (fun (j : Core.Job.t) -> j.Core.Job.release < s.horizon)
    |> Seq.take (Stdlib.max 1 (int_of_float (s.rate *. steady_s)))
    |> Array.of_seq
  in
  let count = Array.length jobs in
  let cid = 1 + (seed land 0xFFFFF) in
  let lines = Array.mapi (Replay.submit_line ~cid) jobs in
  let config = serve_config s ~seed in
  let part = Service.Partition.make config in
  let spawned = ref 0 and setups = ref [] in
  let spawn ?(measured = true) () =
    incr spawned;
    let dir = Filename.concat ctx.work (Printf.sprintf "daemon-%d" !spawned) in
    let d =
      ok_or "spawn" (Daemon.spawn ~exe:ctx.serve_exe ~dir (serve_args s ~seed))
    in
    live := d :: !live;
    if measured then setups := d.Daemon.setup_s :: !setups;
    d
  in
  let finish d =
    let st = ok_or "status" (Daemon.status d) in
    let rss = Daemon.vm_hwm_mb d.Daemon.pid in
    let t0 = Pct.now_s () in
    let dr = ok_or "drain" (Daemon.drain d) in
    live := List.filter (fun x -> x != d) !live;
    (st, rss, dr, Pct.now_s () -. t0)
  in
  (* set-up: two warm-up boots of an empty daemon, then 27 measured ones
     besides the loaded ones below; a boot's few fsyncs make single
     samples jump by a millisecond *)
  for i = 1 to 29 do
    ignore (finish (spawn ~measured:(i > 2) ()))
  done;
  (* steady: open loop of submissions, plus reads on a second connection *)
  let d1 = spawn () in
  let reads = int_of_float (s.read_rate *. steady_s) in
  let streams =
    Array.append
      [| Openloop.open_stream ~rate:s.rate lines |]
      (if reads = 0 then [||]
       else
         [|
           Openloop.open_stream ~rate:s.read_rate
             (Array.make reads (Service.Protocol.request_to_line Service.Protocol.Psi));
         |])
  in
  let steady =
    with_conns d1 (Array.length streams) (fun tr ->
        Openloop.run tr ~timeout:10. streams ~classify:(fun c line ->
            if c = 0 then is_submit_ok line else is_psi_ok line))
  in
  let st1, rss1, dr1, drain1_s = finish d1 in
  (* saturate, three times over: the same jobs on a fresh daemon, one
     connection keeping [window] requests in flight *)
  let saturated =
    List.init 3 (fun _ ->
        let d = spawn () in
        let r =
          with_conns d 1 (fun tr ->
              Openloop.run tr ~timeout:10. ~classify:(fun _ -> is_submit_ok)
                [| Openloop.saturating ~window:s.window lines |])
        in
        let st, rss, dr, _ = finish d in
        (r.(0), st, rss, dr))
  in
  (* outputs *)
  let expect = Replay.run ~config ~cid jobs in
  let psi_of (d : Service.Protocol.drain_report) = d.Service.Protocol.d_psi_scaled in
  check o (psi_of dr1 = expect) "%s: steady daemon ψsp differs from the replay" name;
  List.iter
    (fun (_, _, _, dr) ->
      check o (psi_of dr = expect) "%s: saturated daemon ψsp differs from the replay"
        name)
    saturated;
  check_pin o ctx name (digest_psi [ expect ]);
  o.attempted <- o.attempted + count + reads + (List.length saturated * count);
  o.failed <-
    List.fold_left
      (fun n (r, _, _, _) -> n + Openloop.failed r)
      (Array.fold_left (fun n r -> n + Openloop.failed r) o.failed steady)
      saturated;
  List.iter
    (fun (phase, (st : Service.Protocol.status)) ->
      check o (st.Service.Protocol.accepted = count)
        "%s: %s daemon accepted %d of %d" name phase st.Service.Protocol.accepted count;
      check o (st.Service.Protocol.shed = 0) "%s: %s daemon shed %d requests" name
        phase st.Service.Protocol.shed)
    (("steady", st1) :: List.map (fun (_, st, _, _) -> ("saturated", st)) saturated);
  let sub = steady.(0) in
  check o (not (Openloop.backlog_grows sub))
    "%s: the steady backlog kept growing; %.0f/s is past what the daemon sustains"
    name s.rate;
  (* end-to-end *)
  let lat = Pct.sorted sub.Openloop.latency in
  let walls =
    Array.of_list (List.map (fun (r, _, _, _) -> r.Openloop.wall) saturated)
  in
  let wall = Pct.median walls in
  let st2 = match saturated with (_, st, _, _) :: _ -> st | [] -> st1 in
  metric o "setup_s" (Pct.median (Array.of_list !setups));
  metric o "wall_s" wall;
  metric o "latency_p50_ms" (ms (Pct.of_sorted lat 50.));
  metric o "peak_rss_mb"
    (Pct.median (Array.of_list (rss1 :: List.map (fun (_, _, rss, _) -> rss) saturated)));
  let late = Pct.sorted sub.Openloop.late in
  log "%s: %d jobs; steady %.0f/s for %.1fs, ack latency from due (n=%d) p50 %.3f \
       p90 %.3f p99 %.3f ms; generator late p99 %.3f ms, in flight max %d"
    name count s.rate steady_s count (ms (Pct.of_sorted lat 50.))
    (ms (Pct.of_sorted lat 90.)) (ms (Pct.of_sorted lat 99.))
    (ms (Pct.of_sorted late 99.)) sub.Openloop.inflight_max;
  if reads > 0 then begin
    let rl = Pct.sorted steady.(1).Openloop.latency in
    log "%s: psi reads %.0f/s (n=%d) p50 %.3f p90 %.3f ms" name s.read_rate reads
      (ms (Pct.of_sorted rl 50.)) (ms (Pct.of_sorted rl 90.))
  end;
  log "%s: saturated, window %d: %.0f acks/s (median of %s s); %d fsyncs for %d \
       acks; steady drain %.3fs; set-ups %s s"
    name s.window (float_of_int count /. wall)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") walls)))
    st2.Service.Protocol.fsyncs st2.Service.Protocol.accepted drain1_s
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups));
  if ctx.trace then begin
    (* per-layer: the same jobs through the service path in process *)
    let acks_per_sync =
      Stdlib.max 1
        (int_of_float
           (Float.round
              (float_of_int st1.Service.Protocol.accepted
              /. float_of_int (Stdlib.max 1 st1.Service.Protocol.fsyncs))))
    in
    let epoch = Pct.now_ns () in
    let srv = Spans.create ~epoch ~cap:50_000 in
    let pol = Spans.create ~epoch ~cap:50_000 in
    let tm = Replay.times () in
    let replay_s, psi =
      timed_run (fun () ->
          Replay.run ~config ~cid jobs
            ~instrument:
              {
                Replay.dir = Filename.concat ctx.work "replay";
                sync_every = acks_per_sync;
                snapshot_every;
                spans = Some srv;
                times = tm;
              })
    in
    check o (psi = expect) "%s: instrumented replay ψsp differs" name;
    replay_metrics o tm;
    (* the batch equivalent of each group, with a wrapped policy *)
    let wrap = Wrap.create ~spans:pol ~hooks:true () in
    let maker = Wrap.maker wrap (Algorithms.Registry.find_exn s.algorithm) in
    let psis = Array.make (Service.Partition.groups part) [||] in
    let sims_s =
      batch_leg_metrics o wrap (fun () ->
          List.init (Array.length psis) (fun g ->
              let sub = Service.Partition.sub_config part g in
              let lo, hi = Service.Partition.org_range part g in
              let jobs =
                Array.to_list jobs
                |> List.filter (fun (j : Core.Job.t) ->
                       j.Core.Job.org >= lo && j.Core.Job.org < hi)
                |> List.map (fun (j : Core.Job.t) ->
                       { j with Core.Job.org = j.Core.Job.org - lo })
              in
              let instance =
                Core.Instance.make ~machines:sub.Service.Config.machines ~jobs
                  ~horizon:s.horizon
              in
              let w, r =
                timed_run ~spans:pol ~args:[ ("group", Obs.Json.Int g) ] (fun () ->
                    Sim.Driver.run ~record:false ~instance
                      ~rng:(Fstats.Rng.create ~seed:sub.Service.Config.seed)
                      maker)
              in
              psis.(g) <- r.Sim.Driver.utilities_scaled;
              (w, r.Sim.Driver.stats)))
    in
    check o
      (Service.Partition.scatter_int part (Array.get psis) = expect)
      "%s: batch ψsp differs from the daemon's" name;
    let stage_p50 s = Pct.median (Pct.Samples.to_array s) in
    let stages =
      [
        ("protocol.decode", stage_p50 tm.Replay.decode);
        ("online.check", stage_p50 tm.Replay.check);
        ("wal.append", stage_p50 tm.Replay.append);
        ("online.submit", stage_p50 tm.Replay.submit);
        ("protocol.encode", stage_p50 tm.Replay.encode);
        ("wal.sync", stage_p50 tm.Replay.sync);
      ]
    in
    let p50 = Pct.of_sorted lat 50. in
    let residual = p50 -. List.fold_left (fun a (_, v) -> a +. v) 0. stages in
    log "%s: ack p50 %.1f us = %s + server.residual %.1f us (socket, select, \
         mailbox, commit hold)"
      name (us p50)
      (String.concat " + "
         (List.map (fun (n, v) -> Printf.sprintf "%s %.1f" n (us v)) stages))
      (us residual);
    log "%s: shard.fsyncs_per_ack %.4f (steady), %.4f (saturated); replay syncs \
         every %d records"
      name
      (float_of_int st1.Service.Protocol.fsyncs /. float_of_int (Stdlib.max 1 count))
      (float_of_int st2.Service.Protocol.fsyncs /. float_of_int (Stdlib.max 1 count))
      acks_per_sync;
    log "%s: traced replay %.3fs, batch equivalent %.3fs" name replay_s sims_s;
    print_self_times [ srv; pol ];
    write_trace ctx o name [ srv; pol ]
  end

(* --- Batch workloads --------------------------------------------------- *)

(* Instance [i] of a run: the first [jobs] jobs of the LPC-EGEE
   submission stream drawn from its own seed, so every instance carries
   the same amount of work whatever the seed. *)
let batch_instance b ~seed i =
  let seed = seed + (7919 * i) in
  let spec =
    Workload.Scenario.default ~norgs:b.b_orgs ~machines:b.b_machines
      Workload.Traces.lpc_egee
  in
  let jobs =
    Workload.Scenario.submission_stream spec ~seed
    |> Seq.take b.jobs |> List.of_seq
  in
  let last =
    List.fold_left (fun m (j : Core.Job.t) -> Stdlib.max m j.Core.Job.release) 0 jobs
  in
  let machines = fst (Workload.Scenario.split_and_map spec ~seed) in
  (Core.Instance.make ~machines ~jobs ~horizon:(last + b.tail), seed)

(* Repeat [pass] until [seconds] have gone by, at least once, and report
   the medians over passes of its wall time ([wall] reads it from the
   pass's result), its decision latencies and the process's peak
   resident set during it.  Each pass starts with fresh decision samples
   and a reset peak, so neither carries over from earlier passes. *)
let passes o name ~seconds ~wall wrap pass =
  let t0 = Pct.now_s () in
  let rec go acc =
    Wrap.reset wrap;
    Daemon.reset_hwm ();
    let r = pass () in
    let decision p = Hist.percentile wrap.Wrap.select p *. 1e-6 in
    let acc =
      (r, [| decision 50.; decision 90.; decision 99. |], Daemon.vm_hwm_mb 0) :: acc
    in
    if Pct.now_s () -. t0 < seconds then go acc else List.rev acc
  in
  let runs = go [] in
  let each f = Array.of_list (List.map f runs) in
  let decision k = each (fun (_, d, _) -> d.(k)) in
  let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4g") a)) in
  let walls = each (fun (r, _, _) -> wall r) and peaks = each (fun (_, _, m) -> m) in
  metric o "wall_s" (Pct.median walls);
  metric o "latency_p50_ms" (Pct.median (decision 0));
  metric o "peak_rss_mb" (Pct.median peaks);
  log "%s: %d passes; wall %s s; %d decisions per pass, p90 %s ms, p99 %s ms; \
       peak RSS %s MB"
    name (List.length runs) (show walls) (Hist.count wrap.Wrap.select)
    (show (decision 1)) (show (decision 2)) (show peaks);
  List.map (fun (r, _, _) -> r) runs

(* The traced service leg of a batch workload: the first instance's jobs
   fed through the service path, checked against the batch result. *)
let replay_instance ctx o name ~algorithm (instance, seed) ~expect =
  let config =
    ok_or "config"
      (Service.Config.make ~machines:instance.Core.Instance.machines
         ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ())
  in
  let tm = Replay.times () in
  let spans = Spans.create ~epoch:(Pct.now_ns ()) ~cap:50_000 in
  let psi =
    Replay.run ~config ~cid:1 instance.Core.Instance.jobs
      ~instrument:
        {
          Replay.dir = Filename.concat ctx.work "replay";
          sync_every = 32;
          snapshot_every;
          spans = Some spans;
          times = tm;
        }
  in
  check o (psi = expect) "%s: service replay ψsp differs from the batch run" name;
  replay_metrics o tm;
  spans

let batch ctx o name b =
  let maker = Algorithms.Registry.find_exn b.b_algorithm in
  (* set-up: generating each instance and constructing its policy; one
     warm-up round, then six measured ones *)
  let setup i =
    let t0 = Pct.now_s () in
    let instance, seed = batch_instance b ~seed:ctx.seed i in
    ignore (maker instance ~rng:(Fstats.Rng.create ~seed));
    (Pct.now_s () -. t0, (instance, seed))
  in
  let rounds = List.init 7 (fun _ -> Array.init b.instances setup) in
  let instances = Array.map snd (List.hd rounds) in
  let setups = Array.concat (List.map (Array.map fst) (List.tl rounds)) in
  let wrap = Wrap.create ~hooks:false () in
  let run_all ?spans wrap =
    Array.to_list instances
    |> List.mapi (fun i (instance, seed) ->
           timed_run ?spans ~args:[ ("instance", Obs.Json.Int i) ] (fun () ->
               Sim.Driver.run ~record:false ~instance
                 ~rng:(Fstats.Rng.create ~seed) (Wrap.maker wrap maker)))
  in
  let pass_wall pass = List.fold_left (fun a (w, _) -> a +. w) 0. pass in
  metric o "setup_s" (Pct.median setups);
  let runs =
    passes o name ~seconds:ctx.seconds ~wall:pass_wall wrap (fun () -> run_all wrap)
  in
  let psis pass = List.map (fun (_, r) -> r.Sim.Driver.utilities_scaled) pass in
  let first = psis (List.hd runs) in
  let diverged = List.length (List.filter (fun pass -> psis pass <> first) runs) in
  check o (diverged = 0) "%s: %d passes diverged from the first" name diverged;
  o.attempted <- o.attempted + (List.length runs * b.instances);
  o.failed <- o.failed + (diverged * b.instances);
  check_pin o ctx name (digest_psi first);
  let wall = List.assoc "wall_s" o.metrics in
  if ctx.trace then begin
    let srv =
      replay_instance ctx o name ~algorithm:b.b_algorithm instances.(0)
        ~expect:(List.hd first)
    in
    let pol = Spans.create ~epoch:srv.Spans.epoch ~cap:50_000 in
    let traced = Wrap.create ~spans:pol ~hooks:true () in
    let pass = ref [] in
    let sims_s =
      batch_leg_metrics o traced (fun () ->
          pass := run_all ~spans:pol traced;
          List.map (fun (w, r) -> (w, r.Sim.Driver.stats)) !pass)
    in
    check o (psis !pass = first) "%s: traced ψsp differs from the timed run" name;
    log "%s: traced pass %.3fs, untraced %.3fs (tracing overhead %.1f%%)" name
      sims_s wall
      ((sims_s /. wall -. 1.) *. 100.);
    print_self_times [ srv; pol ];
    write_trace ctx o name [ srv; pol ]
  end

(* --- Table 1 ----------------------------------------------------------- *)

let table_config ~instances ~seed algorithms =
  { (Experiments.Tables.table1_config ~instances ()) with
    Experiments.Tables.seed; algorithms }

let table_digest t = Digest.to_hex (Digest.string (Experiments.Tables.to_csv t))

(* The scenario [Tables.run] draws one model's instances from. *)
let table_spec (config : Experiments.Tables.config) model =
  Workload.Scenario.default ~norgs:config.norgs ~machines:config.machines
    ~horizon:config.horizon ~endowment:config.endowment model

(* The traced Table 1: the same instances, reference and candidates as
   [Tables.run], driven call by call so that every simulation — REF
   included — runs with a wrapped maker and reports its kernel
   counters; aggregated in the same order, so its digest must match. *)
let traced_table ~workers ~spans wrap config =
  let module T = Experiments.Tables in
  let reference = Wrap.maker wrap Algorithms.Reference.reference in
  let makers = List.map (fun (_, m) -> Wrap.maker wrap m) config.T.algorithms in
  let per_model =
    List.map
      (fun model ->
        ( model,
          Core.Domain_pool.map ~workers
            (fun i ->
              let seed = config.T.seed + (7919 * i) in
              let instance =
                Workload.Scenario.instance (table_spec config model) ~seed
              in
              let seed = seed lxor 0xbeef in
              let w, ref_result =
                timed_run ~spans (fun () ->
                    Sim.Driver.run ~record:false ~instance
                      ~rng:(Fstats.Rng.create ~seed:(seed lxor 0x5ca1ab1e))
                      reference)
              in
              let w', evals =
                timed_run ~spans (fun () ->
                    Sim.Fairness.evaluate_against ~reference:ref_result ~instance
                      ~seed makers)
              in
              ( w +. w',
                ref_result.Sim.Driver.stats
                :: List.map (fun e -> e.Sim.Fairness.result.Sim.Driver.stats) evals,
                List.map (fun e -> e.Sim.Fairness.ratio) evals ))
            (List.init config.T.instances (fun i -> i + 1)) ))
      config.T.models
  in
  let rows =
    List.mapi
      (fun a (name, _) ->
        ( name,
          List.map
            (fun (model, results) ->
              let s = Fstats.Summary.create () in
              List.iter (fun (_, _, ratios) -> Fstats.Summary.add s (List.nth ratios a)) results;
              ( model.Workload.Traces.name,
                {
                  T.mean = Fstats.Summary.mean s;
                  stddev = Fstats.Summary.stddev s;
                  n = Fstats.Summary.count s;
                } ))
            per_model ))
      config.T.algorithms
  in
  let runs =
    List.concat_map
      (fun (_, results) ->
        List.concat_map
          (fun (w, stats, _) ->
            (* one wall for the instance's sims, counters per sim *)
            List.mapi (fun k st -> ((if k = 0 then w else 0.), st)) stats)
          results)
      per_model
  in
  ({ T.config; rows }, runs)

let table1 ctx o name ~instances =
  let workers = Domain.recommended_domain_count () in
  let lineup = (Experiments.Tables.table1_config ()).Experiments.Tables.algorithms in
  let wrap = Wrap.create ~hooks:false () in
  let config =
    table_config ~instances ~seed:ctx.seed
      (List.map (fun (n, m) -> (n, Wrap.maker wrap m)) lineup)
  in
  (* set-up: generating an instance of the table and constructing every
     policy on it; eight warm-up rounds, then 64 measured ones *)
  let first_model = List.hd config.Experiments.Tables.models in
  let setups =
    Array.init 72 (fun k ->
        let t0 = Pct.now_s () in
        let instance =
          Workload.Scenario.instance (table_spec config first_model)
            ~seed:(ctx.seed + (7919 * (1 + (k mod 8))))
        in
        List.iter
          (fun m -> ignore (m instance ~rng:(Fstats.Rng.create ~seed:k)))
          (Algorithms.Reference.reference :: List.map snd lineup);
        Pct.now_s () -. t0)
  in
  metric o "setup_s" (Pct.median (Array.sub setups 8 64));
  log "%s: %d instances x %d models on %d domains" name instances
    (List.length config.Experiments.Tables.models) workers;
  let runs =
    passes o name ~seconds:ctx.seconds ~wall:fst wrap (fun () ->
        timed_run (fun () -> Experiments.Tables.run ~workers config))
  in
  let digest = table_digest (snd (List.hd runs)) in
  let diverged =
    List.length (List.filter (fun (_, t) -> table_digest t <> digest) runs)
  in
  check o (diverged = 0) "%s: %d passes diverged from the first" name diverged;
  o.attempted <- o.attempted + List.length runs;
  o.failed <- o.failed + diverged;
  check_pin o ctx name digest;
  let wall = List.assoc "wall_s" o.metrics in
  if ctx.trace then begin
    let instance =
      Workload.Scenario.instance (table_spec config first_model)
        ~seed:(ctx.seed + 7919)
    in
    let expect =
      (Sim.Driver.run ~record:false ~instance ~rng:(Fstats.Rng.create ~seed:ctx.seed)
         Algorithms.Reference.reference)
        .Sim.Driver.utilities_scaled
    in
    let srv =
      replay_instance ctx o name ~algorithm:"ref" (instance, ctx.seed) ~expect
    in
    let pol = Spans.create ~epoch:srv.Spans.epoch ~cap:50_000 in
    let traced = Wrap.create ~spans:pol ~hooks:true () in
    let table = ref None in
    let t0 = Pct.now_s () in
    let sims_s =
      batch_leg_metrics o traced (fun () ->
          let t, runs =
            traced_table ~workers ~spans:pol traced
              { config with Experiments.Tables.algorithms = lineup }
          in
          table := Some t;
          runs)
    in
    let traced_wall = Pct.now_s () -. t0 in
    check o
      (Option.map table_digest !table = Some digest)
      "%s: traced table differs from the timed run" name;
    log "%s: traced table %.3fs (%.3f s of simulation on %d domains), untraced %.3fs"
      name traced_wall sims_s workers wall;
    print_self_times [ srv; pol ];
    write_trace ctx o name [ srv; pol ]
  end

(* --- Entry ------------------------------------------------------------- *)

let run ctx w =
  let o = { attempted = 0; failed = 0; errors = []; metrics = [] } in
  Fun.protect ~finally:kill_live (fun () ->
      match w.kind with
      | Serve s -> serve ctx o w.name s
      | Batch b -> batch ctx o w.name b
      | Table1 { t_instances } -> table1 ctx o w.name ~instances:t_instances);
  o
