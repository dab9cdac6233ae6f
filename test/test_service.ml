(* Tests for the online scheduler daemon (lib/service): config and wire
   round-trips, WAL durability semantics, the batch/served equivalence
   contract, backpressure, and crash recovery with a real kill -9. *)

let ( let@ ) f x = f x

(* --- Config ----------------------------------------------------------------- *)

let mk_config ?speeds ?max_restarts ?workers ?groups
    ?(machines = [| 2; 1; 1 |]) ?(horizon = 60) ?(algorithm = "fifo")
    ?(seed = 7) () =
  match
    Service.Config.make ?speeds ?max_restarts ?workers ?groups ~machines
      ~horizon ~algorithm ~seed ()
  with
  | Ok c -> c
  | Error msg -> Alcotest.failf "config rejected: %s" msg

let test_config_roundtrip () =
  let check c =
    match Service.Config.of_json (Service.Config.to_json c) with
    | Ok c' ->
        Alcotest.(check bool) "round-trips" true (Service.Config.equal c c')
    | Error msg -> Alcotest.failf "of_json: %s" msg
  in
  check (mk_config ());
  check (mk_config ~algorithm:"ref" ~max_restarts:3 ~workers:2 ());
  check (mk_config ~machines:[| 1; 1 |] ~speeds:[| 2.0; 0.5 |] ())

let test_config_validation () =
  let reject ?speeds ?max_restarts ?(machines = [| 1 |]) ?(horizon = 10)
      ?(algorithm = "fifo") label =
    match
      Service.Config.make ?speeds ?max_restarts ~machines ~horizon ~algorithm
        ~seed:0 ()
    with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  reject "empty" ~machines:[||];
  reject "negative" ~machines:[| 2; -1 |];
  reject "all zero" ~machines:[| 0; 0 |];
  reject "bad horizon" ~horizon:0;
  reject "unknown algorithm" ~algorithm:"nosuchalgo";
  reject "bad restarts" ~max_restarts:(-1);
  reject "speeds length" ~speeds:[| 1.0; 1.0 |];
  reject "zero speed" ~speeds:[| 0.0 |]

(* --- Addr ------------------------------------------------------------------- *)

let test_addr () =
  let ok s expect =
    match Service.Addr.of_string s with
    | Ok a -> Alcotest.(check string) s expect (Service.Addr.to_string a)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:127.0.0.1:9000" "tcp:127.0.0.1:9000";
  ok "tcp:localhost:80" "tcp:localhost:80";
  let bad s =
    match Service.Addr.of_string s with
    | Ok _ -> Alcotest.failf "%s accepted" s
    | Error _ -> ()
  in
  bad "";
  bad "unix:";
  bad "tcp:host";
  bad "tcp:host:0";
  bad "tcp:host:99999";
  bad "tcp::123";
  bad "nonsense"

(* --- Protocol --------------------------------------------------------------- *)

let test_protocol_requests () =
  let roundtrip r =
    let line = Service.Protocol.request_to_line r in
    match Service.Protocol.request_of_line (String.trim line) with
    | Ok r' -> Alcotest.(check bool) line true (r = r')
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  roundtrip
    (Service.Protocol.Submit
       { org = 1; user = 3; release = 5; size = 2; cid = 0; cseq = 0; trace = 0 });
  roundtrip
    (Service.Protocol.Submit
       { org = 1; user = 3; release = 5; size = 2; cid = 71; cseq = 4; trace = 9 });
  roundtrip
    (Service.Protocol.Fault
       { time = 9; event = Faults.Event.Fail 2; cid = 0; cseq = 0; trace = 0 });
  roundtrip
    (Service.Protocol.Fault
       { time = 12; event = Faults.Event.Recover 2; cid = 3; cseq = 9; trace = 5 });
  roundtrip Service.Protocol.Status;
  roundtrip Service.Protocol.Psi;
  roundtrip Service.Protocol.Snapshot;
  roundtrip (Service.Protocol.Drain { detail = true });
  List.iter
    (fun event ->
      roundtrip
        (Service.Protocol.Endow { time = 4; event; cid = 0; cseq = 0; trace = 0 });
      roundtrip
        (Service.Protocol.Endow { time = 4; event; cid = 0; cseq = 6; trace = 2 }))
    [
      Federation.Event.Join { org = 1; machines = [] };
      Federation.Event.Join { org = 1; machines = [ 2; 3 ] };
      Federation.Event.Leave { org = 0 };
      Federation.Event.Lend { org = 0; to_org = 2; machines = [ 1 ] };
      Federation.Event.Reclaim { org = 0; machines = [ 1 ] };
    ];
  roundtrip Service.Protocol.Metrics;
  roundtrip (Service.Protocol.Trace { limit = Service.Protocol.default_trace_limit });
  roundtrip (Service.Protocol.Trace { limit = 1 });
  (match Service.Protocol.request_of_line "{\"op\":\"nosuch\"}" with
  | Ok _ -> Alcotest.fail "unknown op accepted"
  | Error _ -> ());
  match Service.Protocol.request_of_line "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_protocol_responses () =
  let roundtrip r =
    let line = Service.Protocol.response_to_line r in
    match Service.Protocol.response_of_line (String.trim line) with
    | Ok r' -> Alcotest.(check bool) line true (r = r')
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  roundtrip (Service.Protocol.Submit_ok { seq = 4; org = 1; index = 0; now = 3 });
  roundtrip (Service.Protocol.Fault_ok { seq = 5; now = 9 });
  roundtrip (Service.Protocol.Endow_ok { seq = 6; now = 11 });
  roundtrip
    (Service.Protocol.Metrics_ok
       {
         metrics =
           Obs.Json.Obj
             [ ("server.accepted", Obs.Json.Int 3); ("server.ack_ewma_ms", Obs.Json.Float 0.25) ];
       });
  roundtrip
    (Service.Protocol.Trace_ok
       {
         events = 0;
         dropped = 4;
         trace = Obs.Json.Obj [ ("traceEvents", Obs.Json.List []) ];
       });
  roundtrip
    (Service.Protocol.Psi_ok
       { now = 7; psi_scaled = [| 4; 0; 9 |]; parts = [| 2; 0; 3 |] });
  roundtrip (Service.Protocol.Snapshot_ok { seq = 11; path = "/tmp/snap" });
  roundtrip
    (Service.Protocol.Error
       {
         code = Service.Protocol.Backpressure;
         msg = "queue full";
         retry_after_ms = None;
       });
  roundtrip
    (Service.Protocol.Error
       {
         code = Service.Protocol.Backpressure;
         msg = "shedding load";
         retry_after_ms = Some 120;
       });
  let stats = Kernel.Stats.create () in
  stats.Kernel.Stats.instants <- 42;
  stats.Kernel.Stats.starts <- 7;
  roundtrip
    (Service.Protocol.Status_ok
       {
         Service.Protocol.now = 10;
         frontier = 12;
         horizon = 100;
         orgs = 3;
         machines = 4;
         accepted = 20;
         rejected = 2;
         queue_depth = 1;
         queue_cap = 1024;
         draining = false;
         waiting = [| 1; 0; 2 |];
         stats;
         job_wait =
           Some { Obs.Metrics.count = 5; p50 = 1.; p90 = 2.; p99 = 4.; max = 4. };
         estimator = "rand:0.1,0.9";
         degraded = true;
         shed = 17;
         ack_ewma_ms = 3.5;
         groups = 2;
         shards = 2;
         fsyncs = 9;
       });
  roundtrip
    (Service.Protocol.Drain_ok
       {
         Service.Protocol.d_now = 99;
         d_psi_scaled = [| 10; 20 |];
         d_parts = [| 5; 6 |];
         d_stats = stats;
         d_schedule = Some [ (0, 0, 1, 2, 3); (1, 0, 4, 0, 2) ];
       })

(* --- WAL -------------------------------------------------------------------- *)

let sample_records =
  [
    Service.Wal.Submit
      { seq = 1; org = 0; user = 2; release = 0; size = 3; cid = 0; cseq = 0 };
    Service.Wal.Fault
      { seq = 2; time = 1; event = Faults.Event.Fail 0; cid = 12; cseq = 1 };
    Service.Wal.Submit
      { seq = 3; org = 1; user = 0; release = 2; size = 1; cid = 12; cseq = 2 };
    Service.Wal.Fault
      { seq = 4; time = 3; event = Faults.Event.Recover 0; cid = 0; cseq = 0 };
  ]

let test_wal_roundtrip () =
  let@ dir = Harness.with_tmpdir in
  let config = mk_config () in
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sync: %s" msg);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "config recovered" true
        (match r.Service.Wal.r_config with
        | Some c -> Service.Config.equal c config
        | None -> false);
      Alcotest.(check bool)
        "records recovered" true
        (r.Service.Wal.r_records = sample_records);
      Alcotest.(check int) "last seq" 4 r.Service.Wal.r_last_seq

let test_wal_torn_tail () =
  let@ dir = Harness.with_tmpdir in
  let config = mk_config () in
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  ignore (Service.Wal.sync w);
  Service.Wal.close w;
  (* Simulate a crash mid-append: a half-written record on the last line. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Service.Wal.wal_path ~dir)
  in
  output_string oc "{\"rec\":\"submit\",\"seq\":5,\"or";
  close_out oc;
  (match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "torn tail should recover: %s"
        (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check int) "torn line dropped" 4 r.Service.Wal.r_last_seq);
  (* A corrupt line in the MIDDLE means damage, not a torn append. *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Service.Wal.wal_path ~dir)
  in
  output_string oc "nsense\n";
  output_string oc
    "{\"rec\":\"submit\",\"seq\":6,\"org\":0,\"user\":0,\"release\":9,\"size\":1}\n";
  close_out oc;
  match Service.Wal.recover ~dir with
  | Ok _ -> Alcotest.fail "corrupt middle line accepted"
  | Error _ -> ()

let test_wal_snapshot_dedupe () =
  let@ dir = Harness.with_tmpdir in
  let config = mk_config () in
  (* Snapshot covering seqs 1-2; WAL holding 1-4 (as after a crash between
     snapshot rename and WAL truncation): recovery must not replay 1-2
     twice. *)
  let snap_records = [ List.nth sample_records 0; List.nth sample_records 1 ] in
  (match
     Service.Wal.write_snapshot ~dir
       { Service.Wal.config; last_seq = 2; records = snap_records }
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "write_snapshot: %s" msg);
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  List.iter (Service.Wal.append w) sample_records;
  ignore (Service.Wal.sync w);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "seq-deduped" true
        (r.Service.Wal.r_records = sample_records);
      Alcotest.(check int) "last seq" 4 r.Service.Wal.r_last_seq

(* A failed sync (ENOSPC here, via the chaos shim) must leave the batch
   pending and the file repairable: the retried sync lands every record
   exactly once, with no interleaved half-records. *)
let test_wal_sync_repair () =
  let@ dir = Harness.with_tmpdir in
  let config = mk_config () in
  Fun.protect ~finally:Chaos.Fs.disarm @@ fun () ->
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> Alcotest.failf "create: %s" msg
  in
  Service.Wal.append w (List.nth sample_records 0);
  Service.Wal.append w (List.nth sample_records 1);
  Chaos.Fs.arm
    [
      {
        Chaos.Fs.target = "wal-fsync";
        nth = 1;
        sticky = false;
        action = Chaos.Fs.Fail Unix.ENOSPC;
      };
    ];
  (match Service.Wal.sync w with
  | Ok () -> Alcotest.fail "sync must surface ENOSPC"
  | Error _ -> ());
  Alcotest.(check bool) "batch still pending" true (Service.Wal.pending w);
  Chaos.Fs.disarm ();
  (* Space comes back; a later append joins the retried batch in order. *)
  Service.Wal.append w (List.nth sample_records 2);
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "retried sync: %s" msg);
  Alcotest.(check bool) "nothing pending" false (Service.Wal.pending w);
  Service.Wal.close w;
  match Service.Wal.recover ~dir with
  | Error e ->
      Alcotest.failf "recover: %s" (Service.Wal.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool)
        "each record exactly once, in order" true
        (r.Service.Wal.r_records
        = [
            List.nth sample_records 0;
            List.nth sample_records 1;
            List.nth sample_records 2;
          ])

(* --- Retry policy ------------------------------------------------------------ *)

let test_retry_backoff () =
  let rng = Fstats.Rng.create ~seed:1 in
  let p =
    Service.Retry.policy ~max_attempts:5 ~base_delay_ms:10. ~max_delay_ms:40.
      ~multiplier:2. ~jitter:0. ~budget_ms:0. ()
  in
  let delay ?retry_after_ms attempt =
    match
      Service.Retry.next p ~rng ~attempt ~elapsed_ms:0. ~retry_after_ms
    with
    | Service.Retry.Sleep d -> d
    | Service.Retry.Give_up -> Alcotest.failf "gave up at attempt %d" attempt
  in
  Alcotest.(check (float 0.001)) "attempt 1" 10. (delay 1);
  Alcotest.(check (float 0.001)) "attempt 2 doubles" 20. (delay 2);
  Alcotest.(check (float 0.001)) "attempt 3 doubles" 40. (delay 3);
  Alcotest.(check (float 0.001)) "attempt 4 capped" 40. (delay 4);
  (match
     Service.Retry.next p ~rng ~attempt:5 ~elapsed_ms:0. ~retry_after_ms:None
   with
  | Service.Retry.Give_up -> ()
  | Service.Retry.Sleep _ -> Alcotest.fail "attempt = max_attempts must give up");
  (* The server's hint is a floor, never a cap. *)
  Alcotest.(check (float 0.001))
    "hint raises the delay" 500.
    (delay ~retry_after_ms:500 1);
  Alcotest.(check (float 0.001))
    "hint below backoff is ignored" 20.
    (delay ~retry_after_ms:5 2)

let test_retry_budget_and_jitter () =
  let rng = Fstats.Rng.create ~seed:2 in
  let p =
    Service.Retry.policy ~max_attempts:100 ~base_delay_ms:100. ~jitter:0.
      ~budget_ms:250. ()
  in
  (* Better to fail now than to sleep into certain failure. *)
  (match
     Service.Retry.next p ~rng ~attempt:1 ~elapsed_ms:200. ~retry_after_ms:None
   with
  | Service.Retry.Sleep _ -> Alcotest.fail "slept past the budget"
  | Service.Retry.Give_up -> ());
  (match
     Service.Retry.next p ~rng ~attempt:1 ~elapsed_ms:100. ~retry_after_ms:None
   with
  | Service.Retry.Sleep d ->
      Alcotest.(check (float 0.001)) "within budget" 100. d
  | Service.Retry.Give_up -> Alcotest.fail "budget not yet exhausted");
  let pj =
    Service.Retry.policy ~max_attempts:10 ~base_delay_ms:100. ~max_delay_ms:100.
      ~jitter:0.25 ~budget_ms:0. ()
  in
  for _ = 1 to 200 do
    match
      Service.Retry.next pj ~rng ~attempt:1 ~elapsed_ms:0. ~retry_after_ms:None
    with
    | Service.Retry.Sleep d ->
        if d < 74.999 || d > 125.001 then
          Alcotest.failf "jittered delay %g outside [75, 125]" d
    | Service.Retry.Give_up -> Alcotest.fail "gave up under no budget"
  done

(* --- Overload detector ------------------------------------------------------- *)

let overload_cfg =
  {
    Service.Overload.default with
    queue_high = 0.8;
    queue_low = 0.3;
    ack_high_ms = 1e9;
    (* occupancy alone drives these tests *)
    ack_low_ms = 1e9;
    trip_ms = 100.;
    recover_ms = 200.;
  }

let test_overload_dwell () =
  let now = ref 0.0 in
  let d =
    Service.Overload.create ~config:overload_cfg ~now_ms:(fun () -> !now) ()
  in
  let obs ~t ~depth =
    now := t;
    Service.Overload.observe_queue d ~depth ~cap:10
  in
  let expect label lvl =
    Alcotest.(check bool) label true (Service.Overload.level d = lvl)
  in
  obs ~t:0. ~depth:9;
  expect "high, dwell just started" Service.Overload.Normal;
  obs ~t:50. ~depth:9;
  expect "still within trip dwell" Service.Overload.Normal;
  obs ~t:100. ~depth:9;
  expect "tripped after sustained pressure" Service.Overload.Overloaded;
  (* Calm must also dwell before recovery. *)
  obs ~t:200. ~depth:0;
  obs ~t:350. ~depth:0;
  expect "calm dwell not elapsed" Service.Overload.Overloaded;
  obs ~t:400. ~depth:0;
  expect "recovered after sustained calm" Service.Overload.Normal

let test_overload_no_flap () =
  let now = ref 0.0 in
  let d =
    Service.Overload.create ~config:overload_cfg ~now_ms:(fun () -> !now) ()
  in
  let obs ~t ~depth =
    now := t;
    Service.Overload.observe_queue d ~depth ~cap:10
  in
  (* A burst interrupted by an in-between observation resets the dwell
     clock: pressure must be continuous to trip. *)
  obs ~t:0. ~depth:9;
  obs ~t:90. ~depth:5;
  obs ~t:95. ~depth:9;
  obs ~t:180. ~depth:9;
  Alcotest.(check bool)
    "interrupted pressure does not trip" true
    (Service.Overload.level d = Service.Overload.Normal);
  obs ~t:400. ~depth:9;
  Alcotest.(check bool)
    "re-sustained pressure trips" true
    (Service.Overload.level d = Service.Overload.Overloaded)

let test_overload_ack_signal () =
  let now = ref 0.0 in
  let cfg =
    {
      overload_cfg with
      ack_high_ms = 50.;
      ack_low_ms = 10.;
      alpha = 1.0 (* EWMA = last observation: exact assertions *);
    }
  in
  let d = Service.Overload.create ~config:cfg ~now_ms:(fun () -> !now) () in
  Alcotest.(check int)
    "hint floor before any ack" 25
    (Service.Overload.retry_after_ms d);
  Service.Overload.observe_ack d ~latency_ms:100.;
  now := 150.;
  Service.Overload.observe_ack d ~latency_ms:100.;
  Alcotest.(check bool)
    "ack latency alone trips" true
    (Service.Overload.level d = Service.Overload.Overloaded);
  Alcotest.(check (float 0.001))
    "ewma tracks" 100.
    (Service.Overload.ack_ewma_ms d);
  Alcotest.(check int)
    "hint scales with ewma" 400
    (Service.Overload.retry_after_ms d)

(* --- Online: batch/fed equivalence ------------------------------------------ *)

let spec =
  Workload.Scenario.default ~norgs:3 ~machines:6 ~horizon:5_000 ~users:12
    Workload.Traces.lpc_egee

let batch_result ~algorithm ~seed ?faults instance =
  Sim.Driver.run ?faults ~instance ~rng:(Fstats.Rng.create ~seed)
    (Algorithms.Registry.find_exn algorithm)

let stats_string st = Kernel.Stats.to_json st

let placements_repr schedule =
  Core.Schedule.placements schedule
  |> List.map (fun (p : Core.Schedule.placement) ->
         Printf.sprintf "%d.%d@%d m%d d%d" p.Core.Schedule.job.Core.Job.org
           p.Core.Schedule.job.Core.Job.index p.Core.Schedule.start
           p.Core.Schedule.machine p.Core.Schedule.duration)
  |> String.concat ";"

(* Feed a batch instance's jobs (and optionally a fault trace) one by one
   into an Online.t and check every observable against the closed-loop
   Driver.run on the same instance: schedule, ψsp, parts, kernel stats. *)
let check_equivalence ~algorithm ?(faults = []) instance =
  let seed = 5 in
  let config =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let batch =
    batch_result ~algorithm ~seed
      ?faults:(if faults = [] then None else Some faults)
      instance
  in
  let online = Service.Online.create config in
  (* Merge jobs and faults in time order; ties resolved either way (the
     kernel phase order is per-instant, not per-push). *)
  let jobs = Array.to_list instance.Core.Instance.jobs in
  let rec feed jobs faults =
    match (jobs, faults) with
    | [], [] -> ()
    | j :: js, f :: _ when j.Core.Job.release <= f.Faults.Event.time ->
        submit j;
        feed js faults
    | j :: js, [] ->
        submit j;
        feed js faults
    | _, f :: fs ->
        (match Service.Online.fault online ~time:f.Faults.Event.time
                 f.Faults.Event.event
         with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "fault rejected: %s"
              (Service.Online.error_to_string e));
        feed jobs fs
  and submit (j : Core.Job.t) =
    match
      Service.Online.submit online ~org:j.Core.Job.org ~user:j.Core.Job.user
        ~size:j.Core.Job.size ~release:j.Core.Job.release ()
    with
    | Ok index ->
        Alcotest.(check int) "arrival rank matches batch index"
          j.Core.Job.index index
    | Error e ->
        Alcotest.failf "submit rejected: %s" (Service.Online.error_to_string e)
  in
  feed jobs faults;
  Service.Online.drain online;
  Alcotest.(check (array int))
    (algorithm ^ ": psi identical") batch.Sim.Driver.utilities_scaled
    (Service.Online.psi_scaled online);
  Alcotest.(check (array int))
    (algorithm ^ ": parts identical") batch.Sim.Driver.parts
    (Service.Online.parts online);
  Alcotest.(check string)
    (algorithm ^ ": schedule identical")
    (placements_repr batch.Sim.Driver.schedule)
    (placements_repr (Service.Online.schedule online));
  Alcotest.(check string)
    (algorithm ^ ": kernel stats identical")
    (stats_string batch.Sim.Driver.stats)
    (stats_string (Service.Online.stats online))

let test_equivalence_fifo () =
  check_equivalence ~algorithm:"fifo" (Workload.Scenario.instance spec ~seed:11)

let test_equivalence_random () =
  check_equivalence ~algorithm:"random"
    (Workload.Scenario.instance spec ~seed:12)

let test_equivalence_ref () =
  (* REF is exponential in organizations: keep the instance small. *)
  let small =
    Workload.Scenario.default ~norgs:3 ~machines:4 ~horizon:10_000 ~users:6
      Workload.Traces.lpc_egee
  in
  check_equivalence ~algorithm:"ref" (Workload.Scenario.instance small ~seed:3)

let test_equivalence_faults () =
  let instance = Workload.Scenario.instance spec ~seed:13 in
  let faults =
    [
      { Faults.Event.time = 20; event = Faults.Event.Fail 0 };
      { Faults.Event.time = 45; event = Faults.Event.Recover 0 };
      { Faults.Event.time = 50; event = Faults.Event.Fail 2 };
      { Faults.Event.time = 80; event = Faults.Event.Recover 2 };
    ]
  in
  check_equivalence ~algorithm:"fairshare" ~faults instance

(* RAND's idle-time catch-up: a rand-15 engine fed one job, fault or
   endowment at a time, as Online feeds them, with catch-up slices run
   never, after every feed until none reports lag, or a random number of
   times after random feeds.  The drained ψsp, parts and schedule must
   equal Sim.Driver.run's bit for bit, and whenever a slice reports no lag
   every sampled sim must have processed every event up to the latest
   decision instant.  Half the cases add a lend/reclaim trace, whose
   broadcasts queue into sims that may lag. *)
let rand_catch_up_qcheck =
  let arb =
    QCheck.make
      ~print:(fun (seed, mode, churn) ->
        Printf.sprintf "seed %d, slices %s%s" seed
          (match mode with
          | `Never -> "never"
          | `Every -> "after every feed"
          | `Random -> "at random")
          (if churn then ", lend/reclaim" else ""))
      QCheck.Gen.(
        triple (int_range 0 100_000)
          (oneofl [ `Never; `Every; `Random ])
          bool)
  in
  QCheck.Test.make ~name:"rand-15 catch-up slices keep psi = batch" ~count:30
    arb (fun (seed, mode, churn) ->
      let rng = Fstats.Rng.create ~seed in
      let norgs = Fstats.Rng.int_in rng ~lo:3 ~hi:6 in
      let machines =
        Array.init norgs (fun _ -> Fstats.Rng.int_in rng ~lo:1 ~hi:2)
      in
      let horizon = 200 in
      let jobs =
        List.init
          (Fstats.Rng.int_in rng ~lo:20 ~hi:60)
          (fun index ->
            Core.Job.make ~org:(Fstats.Rng.int rng norgs) ~index
              ~release:(Fstats.Rng.int rng 120)
              ~size:(Fstats.Rng.int_in rng ~lo:1 ~hi:9)
              ())
      in
      let instance = Core.Instance.make ~machines ~jobs ~horizon in
      let faults =
        Faults.Model.random ~rng
          ~machines:(Core.Instance.total_machines instance)
          ~horizon:120
          ~mtbf:(Faults.Model.Exponential { mean = 30. })
          ~mttr:(Faults.Model.Exponential { mean = 5. })
          ()
      in
      let federation =
        if not churn then []
        else
          Federation.Model.random ~rng ~machines_per_org:machines ~horizon:120
            ~spec:
              {
                Federation.Model.period = 12;
                lend = 1;
                correlation = 0.;
                jitter = 0.3;
              }
            ()
      in
      let batch =
        Sim.Driver.run ~faults ~federation ~instance
          ~rng:(Fstats.Rng.create ~seed:5) Algorithms.Rand.rand15
      in
      let internals = ref None in
      let maker instance ~rng =
        let policy, st =
          Algorithms.Rand.make_with_internals ~n:15 instance ~rng
        in
        internals := Some st;
        policy
      in
      let session =
        Sim.Session.create ~record:true ~federated:churn
          ~instance:(Core.Instance.make ~machines ~jobs:[] ~horizon)
          ~rng:(Fstats.Rng.create ~seed:5) maker
      in
      let st = Option.get !internals in
      let slices_rng = Fstats.Rng.create ~seed:(seed + 1) in
      let lagged = ref false in
      let slices n =
        let rec go i =
          if i < n then
            if Sim.Session.catch_up session then go (i + 1)
            else if Algorithms.Rand.lagging st > 0 then
              QCheck.Test.fail_reportf "no lag reported, %d sims behind"
                (Algorithms.Rand.lagging st)
        in
        go 0
      in
      (* Every input in time order (a stable sort keeps each org's jobs in
         rank order), each fed after advancing below its time, as Online
         admits it. *)
      let inputs =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.map
             (fun (j : Core.Job.t) -> (j.Core.Job.release, `Job j))
             (Array.to_list instance.Core.Instance.jobs)
          @ List.map
              (fun (f : Faults.Event.timed) -> (f.Faults.Event.time, `Fault f))
              faults
          @ List.map
              (fun (e : Federation.Event.timed) ->
                (e.Federation.Event.time, `Endow e))
              federation)
      in
      List.iter
        (fun (time, input) ->
          Sim.Session.advance_below session ~time;
          (match input with
          | `Job j -> Sim.Session.feed_job session j
          | `Fault f -> Sim.Session.feed_fault session f
          | `Endow e -> Sim.Session.feed_endow session e);
          if Algorithms.Rand.lagging st > 0 then lagged := true;
          match mode with
          | `Never -> ()
          | `Every -> slices max_int
          | `Random ->
              if Fstats.Rng.int slices_rng 2 = 0 then
                slices (1 + Fstats.Rng.int slices_rng 3))
        inputs;
      Sim.Session.run_to_horizon session ();
      if
        batch.Sim.Driver.utilities_scaled
        <> Sim.Session.psi_scaled session ~at:horizon
      then QCheck.Test.fail_report "psi diverged";
      if batch.Sim.Driver.parts <> Sim.Session.parts_at session ~at:horizon then
        QCheck.Test.fail_report "parts diverged";
      if
        placements_repr batch.Sim.Driver.schedule
        <> placements_repr (Sim.Session.schedule session)
      then QCheck.Test.fail_report "schedule diverged";
      (* Some sim must have fallen behind, or the slices proved nothing. *)
      QCheck.assume !lagged;
      true)

let test_online_admission () =
  let config = mk_config ~machines:[| 1; 1 |] ~horizon:50 () in
  let online = Service.Online.create config in
  let expect_err label r =
    match r with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  expect_err "bad org"
    (Service.Online.submit online ~org:2 ~size:1 ~release:0 ());
  expect_err "bad size"
    (Service.Online.submit online ~org:0 ~size:0 ~release:0 ());
  expect_err "past horizon"
    (Service.Online.submit online ~org:0 ~size:1 ~release:50 ());
  (match Service.Online.submit online ~org:0 ~size:2 ~release:10 () with
  | Ok 0 -> ()
  | Ok i -> Alcotest.failf "first rank %d" i
  | Error e -> Alcotest.failf "rejected: %s" (Service.Online.error_to_string e));
  expect_err "release regression"
    (Service.Online.submit online ~org:0 ~size:1 ~release:5 ());
  expect_err "bad machine"
    (Service.Online.fault online ~time:10 (Faults.Event.Fail 7));
  expect_err "fault time regression"
    (Service.Online.fault online ~time:3 (Faults.Event.Fail 0));
  Service.Online.drain online;
  expect_err "drained"
    (Service.Online.submit online ~org:0 ~size:1 ~release:20 ());
  Alcotest.(check bool) "drain idempotent" true
    (Service.Online.drained online);
  Service.Online.drain online

(* --- Socket-level tests ------------------------------------------------------ *)

(* Fork a daemon, wait for readiness via the ready-pipe trick, run [f],
   then terminate the child.  [f] gets the server's pid so crash tests
   can SIGKILL it. *)
let with_server ?state_dir ?(queue_cap = 1024) ?(drain_batch = 256) ?shards
    ?commit_interval ?chaos ~service addr f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (match chaos with
      | None -> ()
      | Some spec -> (
          match Chaos.Fs.of_string spec with
          | Ok rules -> Chaos.Fs.arm rules
          | Error msg ->
              Printf.eprintf "chaos: %s\n%!" msg;
              Stdlib.exit 1));
      let cfg =
        Service.Server.make_config ?state_dir ~queue_cap ~drain_batch ?shards
          ?commit_interval ~addr ~service ()
      in
      let ready () =
        ignore (Unix.write w (Bytes.of_string "R") 0 1);
        Unix.close w
      in
      let code =
        match Service.Server.run ~ready cfg with
        | Ok () -> 0
        | Error msg ->
            Printf.eprintf "server: %s\n%!" msg;
            1
      in
      Stdlib.exit code
  | pid ->
      Unix.close w;
      let buf = Bytes.create 1 in
      let got = try Unix.read r buf 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close r;
      if got = 0 then begin
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "server died before becoming ready"
      end;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () -> f pid)

(* Satellite (c): the golden instance fed through the socket one submission
   at a time must match Sim.Driver.run bit for bit. *)
let test_served_equivalence () =
  let@ dir = Harness.with_tmpdir in
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:21 in
  let batch = batch_result ~algorithm ~seed instance in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  let client = Harness.connect_retry addr in
  Array.iter (Harness.submit_job client) instance.Core.Instance.jobs;
  (match Harness.request client (Service.Protocol.Drain { detail = true }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check (array int)) "psi identical"
        batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled;
      Alcotest.(check (array int)) "parts identical" batch.Sim.Driver.parts
        r.Service.Protocol.d_parts;
      Alcotest.(check string) "stats identical"
        (stats_string batch.Sim.Driver.stats)
        (stats_string r.Service.Protocol.d_stats);
      let batch_rows =
        Core.Schedule.placements batch.Sim.Driver.schedule
        |> List.map (fun (p : Core.Schedule.placement) ->
               ( p.Core.Schedule.job.Core.Job.org,
                 p.Core.Schedule.job.Core.Job.index,
                 p.Core.Schedule.start,
                 p.Core.Schedule.machine,
                 p.Core.Schedule.duration ))
      in
      Alcotest.(check bool) "schedule identical" true
        (r.Service.Protocol.d_schedule = Some batch_rows)
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

(* The headline durability property: SIGKILL the daemon mid-stream,
   restart on the same state dir, feed the rest — the outcome is
   bit-identical to the uninterrupted batch run.  Only acked submissions
   count: the WAL is fsynced before every ack. *)
let test_crash_recovery () =
  let@ dir = Harness.with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let algorithm = "fairshare" and seed = 5 in
  let instance = Workload.Scenario.instance spec ~seed:22 in
  let batch = batch_result ~algorithm ~seed instance in
  let service =
    match
      Service.Config.make
        ~machines:(Array.copy instance.Core.Instance.machines)
        ~horizon:instance.Core.Instance.horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let jobs = instance.Core.Instance.jobs in
  let split = Array.length jobs / 2 in
  Alcotest.(check bool) "instance non-trivial" true (split > 2);
  (* First life: submit the first half, then SIGKILL — no drain, no
     graceful anything. *)
  (let@ pid = with_server ~state_dir ~service addr in
   let client = Harness.connect_retry addr in
   Array.iteri (fun i j -> if i < split then Harness.submit_job client j) jobs;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid);
   Service.Client.close client);
  (* A single-group daemon logs to segment wal-0/, like any group count. *)
  Alcotest.(check bool) "WAL in segment wal-0/" true
    (Sys.file_exists
       (Service.Wal.wal_path ~dir:(Service.Wal.segment_dir ~dir:state_dir ~group:0)));
  Alcotest.(check bool) "no flat WAL" false
    (Sys.file_exists (Service.Wal.wal_path ~dir:state_dir));
  (* Second life: recovery replays the WAL; the daemon resumes exactly
     where the acked stream left off. *)
  let@ _pid = with_server ~state_dir ~service addr in
  let client = Harness.connect_retry addr in
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "all acked submissions recovered" split
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  Array.iteri (fun i j -> if i >= split then Harness.submit_job client j) jobs;
  (match Harness.request client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      Alcotest.(check (array int)) "psi identical after crash"
        batch.Sim.Driver.utilities_scaled r.Service.Protocol.d_psi_scaled;
      Alcotest.(check string) "stats identical after crash"
        (stats_string batch.Sim.Driver.stats)
        (stats_string r.Service.Protocol.d_stats)
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

let test_backpressure () =
  let@ dir = Harness.with_tmpdir in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~queue_cap:2 ~drain_batch:1 ~service addr in
  (* Blast a pipelined burst without reading: the bounded admission queue
     must reject some with a typed backpressure error, never drop or
     crash. *)
  let client = Harness.connect_retry addr in
  let n = 64 in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Service.Addr.to_sockaddr addr);
  let burst = Buffer.create 4096 in
  for i = 1 to n do
    Buffer.add_string burst
      (Service.Protocol.request_to_line
         (Service.Protocol.Submit
            { org = 0; user = 0; release = i; size = 1; cid = 0; cseq = 0; trace = 0 }))
  done;
  let payload = Buffer.contents burst in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  (* Read n newline-terminated responses back. *)
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let count_lines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  while count_lines () < n do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed mid-burst"
    | k -> Buffer.add_subbytes buf chunk 0 k
  done;
  Unix.close fd;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one response per request" n (List.length lines);
  let ok, backpressure, other =
    List.fold_left
      (fun (ok, bp, other) line ->
        match Service.Protocol.response_of_line line with
        | Ok (Service.Protocol.Submit_ok _) -> (ok + 1, bp, other)
        | Ok
            (Service.Protocol.Error
               {
                 code = Service.Protocol.Backpressure;
                 retry_after_ms = Some ms;
                 _;
               })
          when ms > 0 ->
            (* Every shed carries a back-off hint for the retry loop. *)
            (ok, bp + 1, other)
        | _ -> (ok, bp, other + 1))
      (0, 0, 0) lines
  in
  Alcotest.(check int) "no other outcome" 0 other;
  Alcotest.(check bool) "some accepted" true (ok > 0);
  Alcotest.(check bool) "some backpressured" true (backpressure > 0);
  (* The daemon is still healthy afterwards. *)
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "accepted = acked" ok st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status after burst");
  Service.Client.close client

(* At-most-once retransmission: a (cid, cseq)-stamped feed re-sent after
   its ack was lost must come back from the dedupe cache — applied once,
   counted once — and the table must survive a kill -9 (it is rebuilt
   from the WAL). *)
let test_dedupe () =
  let@ dir = Harness.with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let submit client ~release ~cseq =
    Harness.request client
      (Service.Protocol.Submit
         { org = 0; user = 0; release; size = 1; cid = 7; cseq; trace = 0 })
  in
  (let@ pid = with_server ~state_dir ~service addr in
   let client = Harness.connect_retry addr in
   let first = submit client ~release:1 ~cseq:1 in
   (match first with
   | Service.Protocol.Submit_ok { index = 0; _ } -> ()
   | _ -> Alcotest.fail "first submit");
   Alcotest.(check bool)
     "retransmission answered from the cache" true
     (submit client ~release:1 ~cseq:1 = first);
   (match Harness.request client Service.Protocol.Status with
   | Service.Protocol.Status_ok st ->
       Alcotest.(check int) "applied once" 1 st.Service.Protocol.accepted
   | _ -> Alcotest.fail "status");
   (match submit client ~release:2 ~cseq:2 with
   | Service.Protocol.Submit_ok { index = 1; _ } -> ()
   | _ -> Alcotest.fail "second submit");
   (* A regressed cseq is a client bug, not a retry: typed rejection. *)
   (match submit client ~release:3 ~cseq:1 with
   | Service.Protocol.Error { code = Service.Protocol.Bad_request; _ } -> ()
   | _ -> Alcotest.fail "stale cseq must be rejected");
   Service.Client.close client;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid));
  let@ _pid = with_server ~state_dir ~service addr in
  let client = Harness.connect_retry addr in
  (match submit client ~release:2 ~cseq:2 with
  | Service.Protocol.Submit_ok { index = 1; _ } -> ()
  | _ -> Alcotest.fail "post-crash retransmission not deduped");
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int)
        "still applied once each" 2 st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status after recovery");
  Service.Client.close client

(* Resilient stamps feeds once, before the first attempt, so any manual
   re-send of the same stamp is deduped server-side. *)
let test_resilient_stamping () =
  let@ dir = Harness.with_tmpdir in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  Service.Client.close (Harness.connect_retry addr);
  let conn =
    Service.Client.Resilient.create ~cid:42
      ~rng:(Fstats.Rng.create ~seed:3)
      addr
  in
  let submit release =
    match
      Service.Client.Resilient.call conn
        (Service.Protocol.Submit
           { org = 0; user = 0; release; size = 1; cid = 0; cseq = 0; trace = 0 })
    with
    | Ok (Service.Protocol.Submit_ok { index; _ }) -> index
    | Ok _ -> Alcotest.fail "unexpected response"
    | Error e ->
        Alcotest.failf "call: %s" (Service.Client.error_to_string e)
  in
  Alcotest.(check int) "first" 0 (submit 1);
  Alcotest.(check int) "second" 1 (submit 2);
  let client = Harness.connect_retry addr in
  (match
     Harness.request client
       (Service.Protocol.Submit
          { org = 0; user = 0; release = 2; size = 1; cid = 42; cseq = 2; trace = 0 })
   with
  | Service.Protocol.Submit_ok { index = 1; _ } -> ()
  | _ -> Alcotest.fail "re-send of the resilient stamp not deduped");
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "applied once each" 2 st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status");
  let st = Service.Client.Resilient.stats conn in
  Alcotest.(check int)
    "healthy server needs no retries" 0
    st.Service.Client.Resilient.retries;
  Service.Client.Resilient.close conn;
  Service.Client.close client

(* Deadlines: a mute server turns into a typed Timeout, an absent one
   into Refused — never an indefinite block. *)
let test_client_timeout () =
  let@ dir = Harness.with_tmpdir in
  let path = Filename.concat dir "mute.sock" in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 8;
  (* Listening but never accepting: connect lands in the backlog, the
     response never comes. *)
  (match Service.Client.connect ~timeout_s:1.0 (Service.Addr.Unix_sock path) with
  | Error e -> Alcotest.failf "connect: %s" (Service.Client.error_to_string e)
  | Ok c -> (
      (match Service.Client.request ~timeout_s:0.2 c Service.Protocol.Status with
      | Error (Service.Client.Timeout _) -> ()
      | Ok _ -> Alcotest.fail "mute server answered"
      | Error e ->
          Alcotest.failf "expected timeout, got %s"
            (Service.Client.error_to_string e));
      Service.Client.close c));
  Unix.close srv;
  match
    Service.Client.connect ~timeout_s:0.5
      (Service.Addr.Unix_sock (Filename.concat dir "absent.sock"))
  with
  | Error (Service.Client.Refused _) -> ()
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error e ->
      Alcotest.failf "expected refused, got %s"
        (Service.Client.error_to_string e)

let test_malformed_lines () =
  let@ dir = Harness.with_tmpdir in
  let service = mk_config () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  let client = Harness.connect_retry addr in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Service.Addr.to_sockaddr addr);
  let payload = "}{ garbage \n{\"op\":\"warp\"}\n{\"op\":\"status\"}\n" in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let count_lines () =
    String.fold_left
      (fun acc c -> if c = '\n' then acc + 1 else acc)
      0 (Buffer.contents buf)
  in
  while count_lines () < 3 do
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Alcotest.fail "server closed on garbage"
    | k -> Buffer.add_subbytes buf chunk 0 k
  done;
  Unix.close fd;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  (match List.map Service.Protocol.response_of_line lines with
  | [ Ok (Service.Protocol.Error { code = Service.Protocol.Parse; _ });
      Ok (Service.Protocol.Error { code = Service.Protocol.Parse; _ });
      Ok (Service.Protocol.Status_ok _) ] ->
      ()
  | _ -> Alcotest.fail "expected parse, parse, status responses");
  (* And the daemon survives to serve the well-behaved client. *)
  (match Harness.request client Service.Protocol.Psi with
  | Service.Protocol.Psi_ok _ -> ()
  | _ -> Alcotest.fail "psi after garbage");
  Service.Client.close client

let test_loadgen () =
  let@ dir = Harness.with_tmpdir in
  let lspec =
    Workload.Scenario.default ~norgs:3 ~machines:8 ~horizon:100_000 ~users:12
      Workload.Traces.lpc_egee
  in
  let seed = 9 in
  let machines, _ = Workload.Scenario.split_and_map lspec ~seed in
  let service =
    match
      Service.Config.make ~machines ~horizon:lspec.Workload.Scenario.horizon
        ~algorithm:"fairshare" ~seed ()
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "config: %s" msg
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let@ _pid = with_server ~service addr in
  (* Wait for readiness through a throwaway connection. *)
  Service.Client.close (Harness.connect_retry addr);
  let report =
    match
      Service.Loadgen.run
        {
          Service.Loadgen.addr;
          spec = lspec;
          seed;
          rate = 0.;
          count = 200;
          drain = true;
          policy = Service.Retry.default;
          timeout_s = 5.0;
          connections = 1;
          groups = 1;
          window = 1;
        }
    with
    | Ok r -> r
    | Error msg -> Alcotest.failf "loadgen: %s" msg
  in
  Alcotest.(check int) "all submitted" 200 report.Service.Loadgen.submitted;
  Alcotest.(check int) "all accepted" 200 report.Service.Loadgen.accepted;
  Alcotest.(check int) "no rejections" 0 report.Service.Loadgen.rejected;
  Alcotest.(check int) "no transport errors" 0 report.Service.Loadgen.errors;
  Alcotest.(check int) "latency histogram complete" 200
    report.Service.Loadgen.ack_latency.Obs.Metrics.count

(* --- Sharding: org-group partition, group commit, fault isolation ----------- *)

(* The partition is a pure function of the durable config: contiguous
   balanced org blocks, each owning exactly the machines its orgs endow. *)
let test_partition_groups () =
  (match
     Service.Config.make ~groups:3 ~machines:[| 1; 1 |] ~horizon:10
       ~algorithm:"fifo" ~seed:1 ()
   with
  | Ok _ -> Alcotest.fail "groups > orgs accepted"
  | Error _ -> ());
  (match
     Service.Config.make ~groups:2 ~machines:[| 0; 1 |] ~horizon:10
       ~algorithm:"fifo" ~seed:1 ()
   with
  | Ok _ -> Alcotest.fail "machine-less group accepted"
  | Error _ -> ());
  let config = mk_config ~groups:2 ~machines:[| 2; 1; 1; 3 |] ~horizon:60 () in
  (match Service.Config.of_json (Service.Config.to_json config) with
  | Ok c ->
      Alcotest.(check bool) "grouped config round-trips" true
        (Service.Config.equal config c)
  | Error msg -> Alcotest.failf "of_json: %s" msg);
  let p = Service.Partition.make config in
  Alcotest.(check int) "groups" 2 (Service.Partition.groups p);
  Alcotest.(check (pair int int)) "org block 0" (0, 2)
    (Service.Partition.org_range p 0);
  Alcotest.(check (pair int int)) "org block 1" (2, 4)
    (Service.Partition.org_range p 1);
  Alcotest.(check (pair int int)) "machine block 0" (0, 3)
    (Service.Partition.machine_range p 0);
  Alcotest.(check (pair int int)) "machine block 1" (3, 7)
    (Service.Partition.machine_range p 1);
  for org = 0 to 3 do
    let g = Service.Partition.group_of_org p org in
    Alcotest.(check int) "org local/global round-trip" org
      (Service.Partition.global_org p ~group:g
         (Service.Partition.local_org p org))
  done;
  for m = 0 to 6 do
    let g = Service.Partition.group_of_machine p m in
    Alcotest.(check int) "machine local/global round-trip" m
      (Service.Partition.global_machine p ~group:g
         (Service.Partition.local_machine p m))
  done;
  let sub1 = Service.Partition.sub_config p 1 in
  Alcotest.(check (array int)) "sub-config machines" [| 1; 3 |]
    sub1.Service.Config.machines;
  Alcotest.(check int) "sub-config is single-group" 1
    sub1.Service.Config.groups;
  Alcotest.(check (array int)) "scatter reassembles blocks" [| 10; 11; 20; 21 |]
    (Service.Partition.scatter_int p (fun g ->
         if g = 0 then [| 10; 11 |] else [| 20; 21 |]))

(* Golden outcome of a grouped daemon: one batch Sim.Driver.run per
   org-group over the Partition.sub_config sub-instance, scattered and
   summed back into global shape. *)
let grouped_golden ~config instance =
  let p = Service.Partition.make config in
  let runs =
    Array.init (Service.Partition.groups p) (fun grp ->
        let sub = Service.Partition.sub_config p grp in
        let lo, _ = Service.Partition.org_range p grp in
        let sub_jobs =
          Array.to_list instance.Core.Instance.jobs
          |> List.filter_map (fun (j : Core.Job.t) ->
                 if Service.Partition.group_of_org p j.Core.Job.org = grp then
                   Some
                     (Core.Job.make ~org:(j.Core.Job.org - lo) ~index:0
                        ~user:j.Core.Job.user ~release:j.Core.Job.release
                        ~size:j.Core.Job.size ())
                 else None)
        in
        let sub_instance =
          Core.Instance.make ~machines:sub.Service.Config.machines
            ~jobs:sub_jobs ~horizon:sub.Service.Config.horizon
        in
        Sim.Driver.run ~instance:sub_instance
          ~rng:(Fstats.Rng.create ~seed:sub.Service.Config.seed)
          (Algorithms.Registry.find_exn sub.Service.Config.algorithm))
  in
  let psi =
    Service.Partition.scatter_int p (fun g ->
        runs.(g).Sim.Driver.utilities_scaled)
  in
  let parts = Service.Partition.scatter_int p (fun g -> runs.(g).Sim.Driver.parts) in
  let stats =
    Kernel.Stats.total
      (Array.to_list (Array.map (fun r -> r.Sim.Driver.stats) runs))
  in
  (psi, parts, stats)

(* The differential the refactor hangs on: for a fixed --groups, the
   worker-domain count is pure execution — ψsp, parts, and kernel stats
   from a served run are bit-identical across --shards 1, 2, 4, and all
   equal the per-group batch runs. *)
let sharded_differential_qcheck =
  let gen =
    QCheck.Gen.(
      let* njobs = int_range 8 30 in
      list_size (return njobs)
        (let* org = int_range 0 3 in
         let* user = int_range 0 7 in
         let* release = int_range 0 280 in
         let* size = int_range 1 5 in
         return (org, user, release, size)))
  in
  let arb =
    QCheck.make
      ~print:(fun raw ->
        String.concat ";"
          (List.map
             (fun (o, u, r, s) -> Printf.sprintf "J(o%d,u%d,r%d,s%d)" o u r s)
             raw))
      gen
  in
  QCheck.Test.make ~name:"psi bit-identical across shards 1|2|4" ~count:4 arb
    (fun raw ->
      let machines = [| 2; 2; 2; 2 |] and horizon = 300 in
      let jobs =
        List.map
          (fun (org, user, release, size) ->
            Core.Job.make ~org ~index:0 ~user ~release ~size ())
          raw
      in
      let instance = Core.Instance.make ~machines ~jobs ~horizon in
      let config =
        mk_config ~groups:4 ~machines ~horizon ~algorithm:"fairshare" ~seed:5
          ()
      in
      let golden_psi, golden_parts, golden_stats =
        grouped_golden ~config instance
      in
      List.iter
        (fun shards ->
          let@ dir = Harness.with_tmpdir in
          let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
          let@ _pid = with_server ~shards ~service:config addr in
          let client = Harness.connect_retry addr in
          Array.iter (Harness.submit_job client) instance.Core.Instance.jobs;
          (match
             Harness.request client (Service.Protocol.Drain { detail = false })
           with
          | Service.Protocol.Drain_ok r ->
              if r.Service.Protocol.d_psi_scaled <> golden_psi then
                QCheck.Test.fail_reportf "shards=%d: psi diverged" shards;
              if r.Service.Protocol.d_parts <> golden_parts then
                QCheck.Test.fail_reportf "shards=%d: parts diverged" shards;
              if
                stats_string r.Service.Protocol.d_stats
                <> stats_string golden_stats
              then QCheck.Test.fail_reportf "shards=%d: stats diverged" shards
          | _ -> QCheck.Test.fail_reportf "shards=%d: drain failed" shards);
          Service.Client.close client)
        [ 1; 2; 4 ];
      true)

(* RAND's idle-time catch-up through a real daemon: rand-15 over two
   org-groups, inline (--shards 1) and on worker domains (--shards 2),
   where the shards run catch-up slices after every round and while they
   idle; ψsp, parts and kernel stats must equal the per-group batch
   runs. *)
let test_served_rand_catch_up () =
  let machines = [| 2; 1; 2; 1; 1; 2 |] and horizon = 400 in
  let rng = Fstats.Rng.create ~seed:17 in
  let jobs =
    List.init 80 (fun index ->
        Core.Job.make ~org:(Fstats.Rng.int rng 6) ~index
          ~release:(Fstats.Rng.int rng 250)
          ~size:(Fstats.Rng.int_in rng ~lo:1 ~hi:9)
          ())
  in
  let instance = Core.Instance.make ~machines ~jobs ~horizon in
  let config =
    mk_config ~groups:2 ~machines ~horizon ~algorithm:"rand-15" ~seed:5 ()
  in
  let golden_psi, golden_parts, golden_stats = grouped_golden ~config instance in
  List.iter
    (fun shards ->
      let@ dir = Harness.with_tmpdir in
      let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
      let@ _pid = with_server ~shards ~service:config addr in
      let client = Harness.connect_retry addr in
      Array.iter (Harness.submit_job client) instance.Core.Instance.jobs;
      (match Harness.request client (Service.Protocol.Drain { detail = false }) with
      | Service.Protocol.Drain_ok r ->
          let label what = Printf.sprintf "shards=%d: %s" shards what in
          Alcotest.(check (array int)) (label "psi") golden_psi
            r.Service.Protocol.d_psi_scaled;
          Alcotest.(check (array int)) (label "parts") golden_parts
            r.Service.Protocol.d_parts;
          Alcotest.(check string) (label "stats") (stats_string golden_stats)
            (stats_string r.Service.Protocol.d_stats)
      | _ -> Alcotest.failf "shards=%d: drain failed" shards);
      Service.Client.close client)
    [ 1; 2 ]

(* Group commit: a pipelined burst is acked with far fewer fsyncs than
   acks, and — the durability contract — everything acked before a
   kill -9 is recovered from the per-group segments. *)
let test_group_commit_recovery () =
  let@ dir = Harness.with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service =
    mk_config ~groups:2 ~machines:[| 2; 2 |] ~horizon:100_000 ()
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let n = 64 in
  (let@ pid =
     with_server ~state_dir ~shards:2 ~commit_interval:0.05 ~service addr
   in
   (* Pipeline the burst on a raw socket: one write, n acks. *)
   let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
   Unix.connect fd (Service.Addr.to_sockaddr addr);
   let burst = Buffer.create 4096 in
   for i = 1 to n do
     Buffer.add_string burst
       (Service.Protocol.request_to_line
          (Service.Protocol.Submit
             {
               org = i land 1;
               user = 0;
               release = i;
               size = 1;
               cid = 0;
               cseq = 0;
               trace = 0;
             }))
   done;
   let payload = Buffer.contents burst in
   ignore (Unix.write_substring fd payload 0 (String.length payload));
   let buf = Buffer.create 4096 in
   let chunk = Bytes.create 4096 in
   let count_lines () =
     String.fold_left
       (fun acc c -> if c = '\n' then acc + 1 else acc)
       0 (Buffer.contents buf)
   in
   while count_lines () < n do
     match Unix.read fd chunk 0 (Bytes.length chunk) with
     | 0 -> Alcotest.fail "server closed mid-burst"
     | k -> Buffer.add_subbytes buf chunk 0 k
   done;
   Unix.close fd;
   String.split_on_char '\n' (Buffer.contents buf)
   |> List.filter (fun l -> l <> "")
   |> List.iter (fun line ->
          match Service.Protocol.response_of_line line with
          | Ok (Service.Protocol.Submit_ok _) -> ()
          | _ -> Alcotest.failf "burst response not an ack: %s" line);
   let client = Harness.connect_retry addr in
   (match Harness.request client Service.Protocol.Status with
   | Service.Protocol.Status_ok st ->
       Alcotest.(check int) "groups" 2 st.Service.Protocol.groups;
       Alcotest.(check int) "shards" 2 st.Service.Protocol.shards;
       Alcotest.(check int) "all acked" n st.Service.Protocol.accepted;
       Alcotest.(check bool) "acks were fsynced" true
         (st.Service.Protocol.fsyncs > 0);
       Alcotest.(check bool)
         (Printf.sprintf "group commit amortized (%d fsyncs / %d acks)"
            st.Service.Protocol.fsyncs n)
         true
         (st.Service.Protocol.fsyncs < n)
   | _ -> Alcotest.fail "status: unexpected response");
   Service.Client.close client;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid));
  (* Second life: every acked submission must come back from the two
     wal-<g>/ segments. *)
  let@ _pid =
    with_server ~state_dir ~shards:2 ~commit_interval:0.05 ~service addr
  in
  let client = Harness.connect_retry addr in
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "acked burst recovered" n
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  (match Harness.request client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok _ -> ()
  | _ -> Alcotest.fail "drain: unexpected response");
  Service.Client.close client

(* Adaptive group commit: the commit interval bounds an ack's hold, it
   is not a fixed wait.  A lone submission finds its shard's backlog
   empty, so the commit that releases its ack runs at once — well under
   the 50 ms interval — inline (1 shard) and on a worker domain (2). *)
let submit_ms client ~org ~release =
  let t0 = Unix.gettimeofday () in
  let resp =
    Harness.request client
      (Service.Protocol.Submit
         { org; user = 0; release; size = 1; cid = 0; cseq = 0; trace = 0 })
  in
  (resp, (Unix.gettimeofday () -. t0) *. 1000.)

let test_group_commit_idle () =
  let service =
    mk_config ~groups:2 ~machines:[| 2; 2 |] ~horizon:100_000 ()
  in
  List.iter
    (fun shards ->
      let@ dir = Harness.with_tmpdir in
      let state_dir = Filename.concat dir "state" in
      let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
      let@ _pid =
        with_server ~state_dir ~shards ~commit_interval:0.05 ~service addr
      in
      let client = Harness.connect_retry addr in
      let times =
        List.init 5 (fun i ->
            match submit_ms client ~org:(i land 1) ~release:(i + 1) with
            | Service.Protocol.Submit_ok _, ms -> ms
            | _ -> Alcotest.failf "shards=%d: submission %d not acked" shards i)
        |> List.sort compare
      in
      let median = List.nth times 2 in
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d: median ack %.2f ms, interval 50 ms" shards
           median)
        true (median < 25.);
      Service.Client.close client)
    [ 1; 2 ]

(* A failed fsync under the idle rule: the batch it covered answers
   wal-error at once, nothing in it is acked, and its records stay
   pending until the next successful sync lands them with the next
   batch — so a kill -9 after that ack loses neither.  (wal-fsync hit 1
   is the segment header at boot; hit 2 is the first commit.) *)
let test_group_commit_idle_sync_failure () =
  let@ dir = Harness.with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service = mk_config ~machines:[| 2; 2 |] ~horizon:100_000 () in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  (let@ pid =
     with_server ~state_dir ~commit_interval:0.05 ~chaos:"eio@wal-fsync:2"
       ~service addr
   in
   let client = Harness.connect_retry addr in
   (match submit_ms client ~org:0 ~release:1 with
   | Service.Protocol.Error { code = Service.Protocol.Wal_error; _ }, ms ->
       Alcotest.(check bool)
         (Printf.sprintf "wal-error answered by the idle commit (%.2f ms)" ms)
         true (ms < 25.)
   | Service.Protocol.Submit_ok _, _ ->
       Alcotest.fail "acked a record whose fsync failed"
   | _ -> Alcotest.fail "first submission: unexpected response");
   (match submit_ms client ~org:1 ~release:2 with
   | Service.Protocol.Submit_ok _, _ -> ()
   | _ -> Alcotest.fail "the retried sync did not ack the next submission");
   Service.Client.close client;
   Unix.kill pid Sys.sigkill;
   ignore (Unix.waitpid [] pid));
  let@ _pid = with_server ~state_dir ~service addr in
  let client = Harness.connect_retry addr in
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      Alcotest.(check int) "both records landed by the later sync" 2
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  Service.Client.close client

(* Fault isolation: a chaos plan targeting one segment's fsyncs
   (site prefix g1/) turns that group's submissions into wal-errors while
   the other group keeps acking — the blast radius of a sick WAL is one
   org-group, not the daemon.  (:2+ skips the segment's header fsync at
   boot.) *)
let test_shard_chaos_isolation () =
  let@ dir = Harness.with_tmpdir in
  let state_dir = Filename.concat dir "state" in
  let service =
    mk_config ~groups:2 ~machines:[| 2; 2 |] ~horizon:100_000 ()
  in
  let addr = Service.Addr.Unix_sock (Filename.concat dir "d.sock") in
  let submit client ~org ~release =
    Harness.request client
      (Service.Protocol.Submit
         { org; user = 0; release; size = 1; cid = 0; cseq = 0; trace = 0 })
  in
  let@ _pid =
    with_server ~state_dir ~chaos:"eio@g1/wal-fsync:2+" ~service addr
  in
  let client = Harness.connect_retry addr in
  (match submit client ~org:0 ~release:1 with
  | Service.Protocol.Submit_ok _ -> ()
  | _ -> Alcotest.fail "healthy group rejected a submission");
  (match submit client ~org:1 ~release:1 with
  | Service.Protocol.Error { code = Service.Protocol.Wal_error; _ } -> ()
  | Service.Protocol.Submit_ok _ ->
      Alcotest.fail "sick group acked without a durable record"
  | _ -> Alcotest.fail "sick group: unexpected response");
  (* The healthy group is unaffected by its neighbour's sick disk. *)
  (match submit client ~org:0 ~release:2 with
  | Service.Protocol.Submit_ok _ -> ()
  | _ -> Alcotest.fail "healthy group stopped acking");
  (match Harness.request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      (* The wal-errored feed stays admitted (its record is pending until
         a later sync repairs it) — same books as the pre-sharding server
         kept under a sick disk. *)
      Alcotest.(check int) "admitted feeds counted" 3
        st.Service.Protocol.accepted
  | _ -> Alcotest.fail "status: unexpected response");
  Service.Client.close client

let () =
  Random.self_init ();
  Alcotest.run "service"
    [
      ( "config",
        [
          Alcotest.test_case "roundtrip" `Quick test_config_roundtrip;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ("addr", [ Alcotest.test_case "parse" `Quick test_addr ]);
      ( "protocol",
        [
          Alcotest.test_case "requests" `Quick test_protocol_requests;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn-tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "snapshot-dedupe" `Quick test_wal_snapshot_dedupe;
          Alcotest.test_case "sync-repair" `Quick test_wal_sync_repair;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff" `Quick test_retry_backoff;
          Alcotest.test_case "budget-and-jitter" `Quick
            test_retry_budget_and_jitter;
        ] );
      ( "overload",
        [
          Alcotest.test_case "dwell" `Quick test_overload_dwell;
          Alcotest.test_case "no-flap" `Quick test_overload_no_flap;
          Alcotest.test_case "ack-signal" `Quick test_overload_ack_signal;
        ] );
      ( "online",
        [
          Alcotest.test_case "equivalence-fifo" `Quick test_equivalence_fifo;
          Alcotest.test_case "equivalence-random" `Quick
            test_equivalence_random;
          Alcotest.test_case "equivalence-ref" `Quick test_equivalence_ref;
          Alcotest.test_case "equivalence-faults" `Quick
            test_equivalence_faults;
          Alcotest.test_case "admission" `Quick test_online_admission;
          QCheck_alcotest.to_alcotest rand_catch_up_qcheck;
        ] );
      ( "server",
        [
          Alcotest.test_case "served-equivalence" `Quick
            test_served_equivalence;
          Alcotest.test_case "crash-recovery" `Quick test_crash_recovery;
          Alcotest.test_case "backpressure" `Quick test_backpressure;
          Alcotest.test_case "dedupe" `Quick test_dedupe;
          Alcotest.test_case "resilient-stamping" `Quick
            test_resilient_stamping;
          Alcotest.test_case "client-timeout" `Quick test_client_timeout;
          Alcotest.test_case "malformed-lines" `Quick test_malformed_lines;
          Alcotest.test_case "loadgen" `Quick test_loadgen;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "partition" `Quick test_partition_groups;
          QCheck_alcotest.to_alcotest sharded_differential_qcheck;
          Alcotest.test_case "group-commit-recovery" `Quick
            test_group_commit_recovery;
          Alcotest.test_case "group-commit-idle" `Quick test_group_commit_idle;
          Alcotest.test_case "group-commit-idle-sync-failure" `Quick
            test_group_commit_idle_sync_failure;
          Alcotest.test_case "chaos-isolation" `Quick
            test_shard_chaos_isolation;
          Alcotest.test_case "rand-catch-up" `Quick test_served_rand_catch_up;
        ] );
    ]
