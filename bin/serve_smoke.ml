(* End-to-end smoke for the service layer, driven through the REAL
   `fairsched` binary (argv.(1)):

   1. crash recovery — start `fairsched serve` with a state dir, submit
      half a golden instance over the socket, SIGKILL the daemon,
      restart it on the same state dir, submit the rest, drain, and
      check ψsp and kernel stats bit-identical to the batch
      Sim.Driver.run of the full instance;
   2. CLI clients — `fairsched submit`, `status`, and `ctl psi` against
      a live daemon must exit 0;
   3. throughput — Loadgen against an ephemeral daemon must sustain the
      acceptance floor of 1000 submissions/s and report ack-latency
      percentiles.

   Any argv after the exe path is passed through to every `serve`
   invocation — `serve_smoke fairsched --groups 2 --shards 2
   --commit-interval 2` re-runs the whole gauntlet against a sharded,
   group-committing daemon.  The smoke reads --groups/--shards/
   --commit-interval back out of the passthrough to shape its
   expectations: with groups > 1 the golden ψsp/stats come from per-group
   engines (Harness.golden), loadgen mirrors the partition with one
   pipelined connection per group, and a group-committing daemon must
   report fewer fsyncs than acks. *)

open Harness

let groups () = Smoke.arg ~default:1 "--groups" int_of_string_opt
let shards () = Smoke.arg ~default:1 "--shards" int_of_string_opt

let commit_interval_ms () =
  Smoke.arg ~default:0. "--commit-interval" float_of_string_opt

(* --- scenario 1: crash recovery --------------------------------------------- *)

let crash_recovery dir =
  let seed = 2013 and horizon = 20_000 and machines = 6 in
  let norgs = max 3 (groups ()) in
  let algorithm = "fairshare" in
  let spec =
    Workload.Scenario.default ~norgs ~machines ~horizon
      Workload.Traces.lpc_egee
  in
  let instance = Workload.Scenario.instance spec ~seed in
  let service =
    match
      Service.Config.make ~groups:(groups ())
        ~machines:(fst (Workload.Scenario.split_and_map spec ~seed))
        ~horizon ~algorithm ~seed ()
    with
    | Ok c -> c
    | Error msg -> failwith ("config: " ^ msg)
  in
  let expected_psi, expected_stats =
    golden ~service instance (jobs_of instance)
  in
  let jobs = instance.Core.Instance.jobs in
  let split = Array.length jobs / 2 in
  if split < 3 then Smoke.fatal "golden instance too small (%d jobs)" (Array.length jobs);
  let sock = Filename.concat dir "smoke.sock" in
  let state = Filename.concat dir "state" in
  let addr = Service.Addr.Unix_sock sock in
  let serve_args =
    [
      "--listen"; "unix:" ^ sock; "--state"; state;
      "--algorithm"; algorithm; "--orgs"; string_of_int norgs;
      "--machines"; string_of_int machines;
      "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
    ]
  in
  (* First life: half the stream, a forced snapshot, then kill -9. *)
  let pid = Smoke.serve serve_args in
  let client = connect_retry addr in
  Array.iteri (fun i j -> if i < split then submit_job client j) jobs;
  (match request client Service.Protocol.Snapshot with
  | Service.Protocol.Snapshot_ok _ -> ()
  | _ -> failwith "snapshot: unexpected response");
  kill9 pid;
  Service.Client.close client;
  (* Every group count logs to one wal-<g>/ segment per group. *)
  for g = 0 to groups () - 1 do
    if not (Sys.file_exists (Service.Wal.segment_dir ~dir:state ~group:g)) then
      Smoke.fail "state dir lacks segment wal-%d/" g
  done;
  (* Second life: recovery must surface every acked submission, and the
     finished run must match the uninterrupted batch bit for bit. *)
  let pid = Smoke.serve serve_args in
  let client = connect_retry addr in
  (match request client Service.Protocol.Status with
  | Service.Protocol.Status_ok st ->
      if st.Service.Protocol.accepted <> split then
        Smoke.fail "recovered %d acked submissions, expected %d"
          st.Service.Protocol.accepted split
  | _ -> failwith "status: unexpected response");
  (* The CLI clients against the live daemon, and the offline durability
     inspection of its state dir. *)
  Smoke.expect_cli [ "status"; "--to"; sock ];
  Smoke.expect_cli [ "ctl"; "psi"; "--to"; sock ];
  Smoke.expect_cli [ "ctl"; "wal-check"; state ];
  Array.iteri (fun i j -> if i >= split then submit_job client j) jobs;
  (match request client (Service.Protocol.Drain { detail = false }) with
  | Service.Protocol.Drain_ok r ->
      if r.Service.Protocol.d_psi_scaled <> expected_psi then
        Smoke.fail "psi after crash differs from batch";
      if
        Kernel.Stats.to_json r.Service.Protocol.d_stats
        <> Kernel.Stats.to_json expected_stats
      then Smoke.fail "kernel stats after crash differ from batch"
  | _ -> failwith "drain: unexpected response");
  Service.Client.close client;
  Smoke.expect_clean_exit pid;
  if !Smoke.failures = 0 then
    Format.printf "serve-smoke: crash recovery OK (%d jobs, split at %d)@."
      (Array.length jobs) split

(* --- scenario 2: submit via CLI against an ephemeral daemon ----------------- *)

let cli_submit dir =
  let sock = Filename.concat dir "cli.sock" in
  let pid =
    Smoke.serve
      [
        "--listen"; sock; "--orgs"; "2"; "--machines"; "4";
        "--horizon"; "1000"; "--algorithm"; "fifo";
      ]
  in
  Fun.protect
    ~finally:(fun () -> kill9 pid)
    (fun () ->
      Service.Client.close (connect_retry (Service.Addr.Unix_sock sock));
      Smoke.expect_cli [ "submit"; "--to"; sock; "--org"; "1"; "--size"; "5" ];
      Smoke.expect_cli [ "ctl"; "drain"; "--to"; sock ])

(* --- scenario 3: loadgen throughput ------------------------------------------ *)

let loadgen dir =
  let seed = 9 and count = 2_000 in
  let groups = groups () and group_commit = commit_interval_ms () > 0. in
  let spec =
    Workload.Scenario.default ~norgs:3 ~machines:8 ~horizon:1_000_000
      Workload.Traces.lpc_egee
  in
  let sock = Filename.concat dir "load.sock" in
  let pid =
    Smoke.serve
      ([
         "--listen"; sock; "--orgs"; "3"; "--machines"; "8";
         "--horizon"; "1000000"; "--seed"; string_of_int seed;
         "--algorithm"; "fairshare";
       ]
      @
      (* Group commit is about WAL fsyncs: give the daemon a state dir
         when that is what this run exercises (otherwise stay ephemeral,
         the classic throughput floor). *)
      if group_commit then [ "--state"; Filename.concat dir "load-state" ]
      else [])
  in
  Fun.protect
    ~finally:(fun () -> kill9 pid)
    (fun () ->
      let addr = Service.Addr.Unix_sock sock in
      Service.Client.close (connect_retry addr);
      (* Mirror the daemon's shape: one connection per org-group, and —
         when group commit is on — a pipelined window so one fsync can
         cover many acks. *)
      let report =
        match
          Service.Loadgen.run
            {
              Service.Loadgen.addr;
              spec;
              seed;
              rate = 0.;
              count;
              drain = false;
              policy = Service.Retry.default;
              timeout_s = 5.0;
              connections = groups;
              groups;
              window = (if group_commit then 32 else 1);
            }
        with
        | Ok r -> r
        | Error msg -> failwith ("loadgen: " ^ msg)
      in
      Format.printf "serve-smoke: loadgen %a@." Service.Loadgen.pp_report
        report;
      if report.Service.Loadgen.accepted <> count then
        Smoke.fail "loadgen accepted %d of %d" report.Service.Loadgen.accepted
          count;
      if report.Service.Loadgen.errors <> 0 then
        Smoke.fail "loadgen transport errors: %d" report.Service.Loadgen.errors;
      if report.Service.Loadgen.ack_latency.Obs.Metrics.count <> count then
        Smoke.fail "ack-latency histogram incomplete";
      (* The acceptance floor: >= 1000 sustained submissions per second. *)
      if report.Service.Loadgen.achieved_rate < 1000. then
        Smoke.fail "throughput %.0f/s below the 1000/s floor"
          report.Service.Loadgen.achieved_rate;
      (* The daemon's own view: the partition it reported must be the one
         we asked for, and group commit must have amortized fsyncs. *)
      let client = connect_retry addr in
      (match request client Service.Protocol.Status with
      | Service.Protocol.Status_ok st ->
          if st.Service.Protocol.groups <> groups then
            Smoke.fail "daemon reports %d groups, expected %d"
              st.Service.Protocol.groups groups;
          let w = max 1 (min (shards ()) groups) in
          if st.Service.Protocol.shards <> w then
            Smoke.fail "daemon reports %d shards, expected %d"
              st.Service.Protocol.shards w;
          if group_commit && st.Service.Protocol.fsyncs >= st.Service.Protocol.accepted
          then
            Smoke.fail "group commit did not amortize: %d fsyncs for %d accepted"
              st.Service.Protocol.fsyncs st.Service.Protocol.accepted
      | _ -> failwith "status: unexpected response");
      (match request client (Service.Protocol.Drain { detail = false }) with
      | Service.Protocol.Drain_ok _ -> ()
      | _ -> failwith "drain: unexpected response");
      Service.Client.close client)

let () = Smoke.run ~name:"serve-smoke" [ crash_recovery; cli_submit; loadgen ]
