(* Chaos campaign for the service layer, driven through the REAL
   `fairsched` binary (argv.(1)) plus in-process Wal/Fuzz trials:

   1. crash-point campaign — for every named crash window of the
      WAL/snapshot protocol (`--chaos crash@SITE`), submit a golden
      instance through a daemon that dies mid-protocol, restart it on
      the same state dir, retransmit with the same (cid, cseq), and
      check: no acked submission lost, none double-applied, final ψsp
      and kernel stats bit-identical to the uninterrupted batch run;
   2. corruption fuzzing — seeded random mutations (bit flips,
      truncation, dup/swap/drop lines, garbage tails) of a golden WAL
      and snapshot; recovery must either return a consistent prefix of
      the original records or refuse to start with a typed error naming
      the corrupt offset, plus deterministic multi-record torn-tail
      cuts that must recover the exact intact prefix, plus
      `fairsched ctl wal-check` exit codes (0 intact, 2 corrupt);
   3. SIGKILL under load — a resilient Loadgen run against a daemon
      that is killed -9 and restarted mid-stream must complete with
      zero lost acks inside its retry budget;
   4. graceful degradation — an in-process server under a pipelined
      overload burst must switch to its `--degrade` estimator, shed
      load with retry-after hints, switch back once calm, and leave
      the whole story visible in Obs.Metrics and the WAL's Mode
      records.

   Every randomized trial prints its seed on failure so it can be
   replayed.  Exit 0 on success, 1 with a one-line reason otherwise. *)

open Harness

let fail = Smoke.fail
let fatal = Smoke.fatal
let trials = Smoke.trials

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* --- a client that supervises its daemon --------------------------------- *)

(* The campaign's client is deliberately manual (no {!Client.Resilient}):
   it owns the (cid, cseq) stamps so a retransmission after a chaos
   crash provably carries the same identity, and it doubles as the
   supervisor that restarts the daemon — without the chaos plan — when
   the plan kills it. *)

type daemon = {
  mutable pid : int;
  args : string list;  (* respawn args: no --chaos, same state dir *)
  mutable restarts : int;
  ctx : string;  (* "SPEC seed N" for failure messages *)
}

let revive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> ()
  | _, status ->
      (match status with
      | Unix.WEXITED c when c = Chaos.Fs.exit_code || c = 0 -> ()
      | Unix.WEXITED c -> fail "[%s] daemon died with exit %d" d.ctx c
      | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
          fail "[%s] daemon died of a signal" d.ctx);
      d.pid <- Smoke.serve d.args;
      d.restarts <- d.restarts + 1
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      d.pid <- Smoke.serve d.args;
      d.restarts <- d.restarts + 1

type ep = {
  addr : Service.Addr.t;
  d : daemon;
  mutable cl : Service.Client.t option;
}

let drop ep =
  (match ep.cl with Some c -> Service.Client.close c | None -> ());
  ep.cl <- None

let rec client ep n =
  match ep.cl with
  | Some c -> c
  | None ->
      if n = 0 then fatal "[%s] could not connect" ep.d.ctx;
      (match Service.Client.connect ~timeout_s:2.0 ep.addr with
      | Ok c ->
          ep.cl <- Some c;
          c
      | Error _ ->
          revive ep.d;
          Unix.sleepf 0.03;
          client ep (n - 1))

(* Retransmit until acknowledged.  Backpressure honors the server's
   retry-after hint; a wal-error means the ack is withheld while the
   record's bytes may still land — only a re-send with the same stamp
   can tell, which is exactly what the dedupe table is for. *)
let rec call ep req n =
  if n = 0 then fatal "[%s] request kept failing: %s" ep.d.ctx
      (Obs.Json.to_string (Service.Protocol.request_to_json req));
  let c = client ep 300 in
  match Service.Client.request ~timeout_s:5.0 c req with
  | Ok (Service.Protocol.Error
         { code = Service.Protocol.Backpressure; retry_after_ms; _ }) ->
      Unix.sleepf (float_of_int (Option.value retry_after_ms ~default:25) /. 1000.);
      call ep req (n - 1)
  | Ok (Service.Protocol.Error { code = Service.Protocol.Wal_error; _ }) ->
      Unix.sleepf 0.05;
      call ep req (n - 1)
  | Ok resp -> resp
  | Error _ ->
      drop ep;
      revive ep.d;
      Unix.sleepf 0.03;
      call ep req (n - 1)

(* --- phase 1: crash-point campaign --------------------------------------- *)

(* (chaos spec, expect the daemon to die, needs a mid-stream snapshot) *)
let crash_specs =
  [
    ("crash@wal-append:3", true, false);
    ("crash@wal-append:7", true, false);
    ("crash@before-wal-append:4", true, false);
    ("crash@after-wal-append:3", true, false);
    ("crash@wal-fsync:3", true, false);
    ("crash@after-wal-fsync:2", true, false);
    ("torn@wal-append:3=5", true, false);
    ("torn@wal-append:5=1", true, false);
    ("enospc@wal-fsync:3", false, false);
    ("eio@wal-append:4", false, false);
    ("crash@snap-open:1", true, true);
    ("crash@snap-write:1", true, true);
    ("crash@snap-fsync:1", true, true);
    ("crash@before-snapshot-rename:1", true, true);
    ("crash@snap-rename:1", true, true);
    ("crash@after-snapshot-rename:1", true, true);
    ("crash@before-wal-reset:1", true, true);
    ("crash@after-wal-reset:1", true, true);
  ]

let crash_trial ~root ~tid ~spec ~expect_crash ~snap ~seed ~serve_flags ~jobs
    ~(batch : Sim.Driver.result) =
  incr trials;
  let dir = Filename.concat root (Printf.sprintf "t%d" tid) in
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let args =
    serve_flags
    @ [ "--listen"; "unix:" ^ sock; "--state"; Filename.concat dir "state" ]
  in
  let ctx = Printf.sprintf "%s seed %d" spec seed in
  let d =
    {
      pid = Smoke.serve (args @ [ "--chaos"; spec ]);
      args;
      restarts = 0;
      ctx;
    }
  in
  let ep = { addr = Service.Addr.Unix_sock sock; d; cl = None } in
  let njobs = Array.length jobs in
  let snap_at = if snap then njobs / 2 else -1 in
  Array.iteri
    (fun i (j : Core.Job.t) ->
      if i = snap_at then (
        match call ep Service.Protocol.Snapshot 50 with
        | Service.Protocol.Snapshot_ok _ -> ()
        | _ -> fail "[%s] snapshot: unexpected response" ctx);
      match call ep (submit_of_job ~cid:7 ~cseq:(i + 1) j) 100 with
      | Service.Protocol.Submit_ok { index; _ } ->
          if index <> j.Core.Job.index then
            fail "[%s] served rank %d <> batch rank %d for job %d" ctx index
              j.Core.Job.index i
      | _ -> fail "[%s] submit %d: unexpected response" ctx i)
    jobs;
  (* Every acked submission must have survived, exactly once. *)
  (match call ep Service.Protocol.Status 50 with
  | Service.Protocol.Status_ok st ->
      if st.Service.Protocol.accepted <> njobs then
        fail "[%s] daemon holds %d submissions, %d were acked" ctx
          st.Service.Protocol.accepted njobs
  | _ -> fail "[%s] status: unexpected response" ctx);
  (match call ep (Service.Protocol.Drain { detail = false }) 50 with
  | Service.Protocol.Drain_ok r ->
      if r.Service.Protocol.d_psi_scaled <> batch.Sim.Driver.utilities_scaled
      then fail "[%s] psi after recovery differs from batch" ctx;
      if
        Kernel.Stats.to_json r.Service.Protocol.d_stats
        <> Kernel.Stats.to_json batch.Sim.Driver.stats
      then fail "[%s] kernel stats after recovery differ from batch" ctx
  | _ -> fail "[%s] drain: unexpected response" ctx);
  drop ep;
  (match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> fail "[%s] drained daemon exited %d" ctx c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> fail "[%s] drained daemon was signaled" ctx);
  if expect_crash && d.restarts = 0 then
    fail "[%s] chaos plan never fired (no crash observed)" ctx;
  if (not expect_crash) && d.restarts > 0 then
    fail "[%s] daemon died under a non-lethal plan" ctx

let crash_phase root =
  let horizon = 20_000 and norgs = 2 and machines = 4 in
  let algorithm = "fairshare" in
  let spec_w =
    Workload.Scenario.default ~norgs ~machines ~horizon
      Workload.Traces.lpc_egee
  in
  List.iteri
    (fun si seed ->
      let instance = Workload.Scenario.instance spec_w ~seed in
      let jobs = instance.Core.Instance.jobs in
      if Array.length jobs < 10 then
        fatal "crash phase: instance too small (%d jobs)" (Array.length jobs);
      let batch =
        Sim.Driver.run ~instance
          ~rng:(Fstats.Rng.create ~seed)
          (Algorithms.Registry.find_exn algorithm)
      in
      let serve_flags =
        [
          "--algorithm"; algorithm; "--orgs"; string_of_int norgs;
          "--machines"; string_of_int machines;
          "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
          "--snapshot-every"; "0";
        ]
      in
      List.iteri
        (fun i (spec, expect_crash, snap) ->
          crash_trial ~root ~tid:((1000 * si) + i) ~spec ~expect_crash ~snap
            ~seed ~serve_flags ~jobs ~batch)
        crash_specs)
    [ 2013; 4027 ];
  Format.printf "chaos-smoke: crash campaign OK (%d windows x 2 seeds)@."
    (List.length crash_specs)

(* --- phase 2: corruption fuzzing ----------------------------------------- *)

let seq_of_records = List.map Service.Wal.seq_of

let strictly_increasing seqs =
  let rec go = function
    | a :: (b :: _ as rest) -> a < b && go rest
    | _ -> true
  in
  go seqs

let golden_config () =
  match
    Service.Config.make ~machines:[| 2; 2 |] ~horizon:10_000
      ~algorithm:"fairshare" ~seed:5 ()
  with
  | Ok c -> c
  | Error msg -> fatal "golden config: %s" msg

(* A golden state dir: 24 records (one a Mode switch), a snapshot
   covering the first 10, and the full WAL — recovery merges the two. *)
let build_golden dir =
  Unix.mkdir dir 0o755;
  let config = golden_config () in
  let w =
    match Service.Wal.create ~dir ~config () with
    | Ok w -> w
    | Error msg -> fatal "golden wal: %s" msg
  in
  let record i =
    if i = 13 then Service.Wal.Mode { seq = i; estimator = "rand:0.1,0.9" }
    else
      Service.Wal.Submit
        {
          seq = i;
          org = i mod 2;
          user = 0;
          release = i * 7;
          size = 3 + (i mod 5);
          cid = 9;
          cseq = i;
        }
  in
  let records = List.init 24 (fun i -> record (i + 1)) in
  List.iter (Service.Wal.append w) records;
  (match Service.Wal.sync w with
  | Ok () -> ()
  | Error msg -> fatal "golden sync: %s" msg);
  Service.Wal.close w;
  let covered = List.filter (fun r -> Service.Wal.seq_of r <= 10) records in
  (match
     Service.Wal.write_snapshot ~dir
       { Service.Wal.config; last_seq = 10; records = covered }
   with
  | Ok _ -> ()
  | Error msg -> fatal "golden snapshot: %s" msg);
  records

let fuzz_phase root =
  let dir = Filename.concat root "golden" in
  let originals = build_golden dir in
  let wal_bytes = read_file (Service.Wal.wal_path ~dir) in
  let snap_bytes = read_file (Service.Wal.snapshot_path ~dir) in
  let header_len = 1 + String.index wal_bytes '\n' in
  let scratch = Filename.concat root "scratch" in
  let fresh_scratch ~wal ~snap =
    rm_rf scratch;
    Unix.mkdir scratch 0o755;
    write_file (Service.Wal.wal_path ~dir:scratch) wal;
    Option.iter (write_file (Service.Wal.snapshot_path ~dir:scratch)) snap
  in
  let recovered = ref 0 and refused = ref 0 in
  (* Randomized single-mutation trials over both files. *)
  for t = 0 to 179 do
    incr trials;
    let seed = 31_000 + t in
    let rng = Fstats.Rng.create ~seed in
    let on_wal = t mod 4 <> 3 in
    let content = if on_wal then wal_bytes else snap_bytes in
    let m = Chaos.Fuzz.random rng content in
    let mutated = Chaos.Fuzz.apply content m in
    fresh_scratch
      ~wal:(if on_wal then mutated else wal_bytes)
      ~snap:(Some (if on_wal then snap_bytes else mutated));
    let ctx =
      Printf.sprintf "fuzz seed %d: %s on %s" seed (Chaos.Fuzz.describe m)
        (if on_wal then "wal" else "snapshot")
    in
    match Service.Wal.recover ~dir:scratch with
    | Ok r ->
        incr recovered;
        let recs = r.Service.Wal.r_records in
        if not (strictly_increasing (seq_of_records recs)) then
          fail "[%s] recovered seqs not strictly increasing" ctx;
        if List.length recs > List.length originals then
          fail "[%s] recovered %d records, only %d were written" ctx
            (List.length recs) (List.length originals);
        (* A single mutation can silently alter at most the one line it
           touched (the format has no per-record checksum); anything
           beyond that is corruption leaking through recovery. *)
        let alien =
          List.filter (fun x -> not (List.mem x originals)) recs
        in
        if List.length alien > 1 then
          fail "[%s] %d altered records recovered silently" ctx
            (List.length alien)
    | Error (Service.Wal.Corrupt c) ->
        incr refused;
        if c.Service.Wal.c_reason = "" then
          fail "[%s] corrupt refusal without a reason" ctx;
        if
          c.Service.Wal.c_offset < 0
          || c.Service.Wal.c_offset > String.length mutated
        then
          fail "[%s] corrupt offset %d outside the file" ctx
            c.Service.Wal.c_offset
    | Error (Service.Wal.Io _ | Service.Wal.Mismatch _) -> incr refused
  done;
  if !recovered = 0 then fail "fuzz campaign never recovered (all refused?)";
  if !refused = 0 then fail "fuzz campaign never refused (all recovered?)";
  (* Deterministic multi-record torn tails: cut the WAL mid-line k and
     recovery (no snapshot) must return exactly the first k-1 records. *)
  let line_offsets =
    let offs = ref [ 0 ] in
    String.iteri
      (fun i ch -> if ch = '\n' then offs := (i + 1) :: !offs)
      wal_bytes;
    List.rev !offs
  in
  List.iteri
    (fun k off ->
      if k >= 1 && off < String.length wal_bytes then begin
        incr trials;
        let next_off =
          match List.nth_opt line_offsets (k + 1) with
          | Some o -> o
          | None -> String.length wal_bytes
        in
        let cut = off + ((next_off - off) / 2) in
        let ctx = Printf.sprintf "torn tail: cut at byte %d (line %d)" cut k in
        fresh_scratch ~wal:(String.sub wal_bytes 0 cut) ~snap:None;
        match Service.Wal.recover ~dir:scratch with
        | Ok r ->
            let expect = List.filteri (fun i _ -> i < k - 1) originals in
            if r.Service.Wal.r_records <> expect then
              fail "[%s] expected the %d-record prefix, got %d records" ctx
                (k - 1)
                (List.length r.Service.Wal.r_records)
        | Error e ->
            fail "[%s] refused a clean torn tail: %s" ctx
              (Service.Wal.boot_error_to_string e)
      end)
    line_offsets;
  ignore header_len;
  (* The offline inspector's CLI contract: 0 on intact input (torn tails
     included), 2 on corrupt input. *)
  let cli_case ~expect args ctx =
    incr trials;
    let code = Smoke.cli args in
    if code <> expect then
      fail "[wal-check %s] exited %d, expected %d" ctx code expect
  in
  fresh_scratch ~wal:wal_bytes ~snap:(Some snap_bytes);
  cli_case ~expect:0
    [ "ctl"; "wal-check"; Service.Wal.wal_path ~dir:scratch ]
    "intact wal";
  cli_case ~expect:0 [ "ctl"; "wal-check"; scratch ] "intact state dir";
  let torn = String.sub wal_bytes 0 (String.length wal_bytes - 3) in
  fresh_scratch ~wal:torn ~snap:None;
  cli_case ~expect:0
    [ "ctl"; "wal-check"; Service.Wal.wal_path ~dir:scratch ]
    "torn tail";
  let mid = header_len + ((String.length wal_bytes - header_len) / 2) in
  let corrupt_wal =
    String.mapi (fun i ch -> if i = mid then '\255' else ch) wal_bytes
  in
  fresh_scratch ~wal:corrupt_wal ~snap:None;
  cli_case ~expect:2
    [ "ctl"; "wal-check"; Service.Wal.wal_path ~dir:scratch ]
    "corrupt middle";
  cli_case ~expect:2 [ "ctl"; "wal-check" ] "missing argument";
  Format.printf
    "chaos-smoke: corruption fuzzing OK (180 mutations: %d recovered, %d \
     refused; %d torn-tail cuts)@."
    !recovered !refused
    (List.length line_offsets - 1)

(* --- phase 3: SIGKILL under load ----------------------------------------- *)

let sigkill_loadgen_phase root =
  incr trials;
  let sock = Filename.concat root "load.sock" in
  let state = Filename.concat root "load-state" in
  let seed = 9 and count = 1_200 and rate = 2_500. in
  let spec =
    Workload.Scenario.default ~norgs:3 ~machines:8 ~horizon:1_000_000
      Workload.Traces.lpc_egee
  in
  let args =
    [
      "--listen"; "unix:" ^ sock; "--state"; state; "--orgs"; "3";
      "--machines"; "8"; "--horizon"; "1000000"; "--seed"; string_of_int seed;
      "--algorithm"; "fairshare";
    ]
  in
  let pid = ref (Smoke.serve args) in
  let d = { pid = !pid; args; restarts = 0; ctx = "sigkill-loadgen" } in
  let ep = { addr = Service.Addr.Unix_sock sock; d; cl = None } in
  ignore (client ep 300);
  drop ep;
  (* Kill -9 mid-stream and restart on the same state dir; the resilient
     loadgen client must absorb it inside its retry budget. *)
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.25;
        kill9 !pid;
        pid := Smoke.serve args)
      ()
  in
  let report =
    match
      Service.Loadgen.run
        {
          Service.Loadgen.addr = ep.addr;
          spec;
          seed;
          rate;
          count;
          drain = false;
          policy = Service.Retry.default;
          timeout_s = 5.0;
          connections = 1;
          groups = 1;
          window = 1;
        }
    with
    | Ok r -> r
    | Error msg -> fatal "[sigkill-loadgen] %s" msg
  in
  Thread.join killer;
  d.pid <- !pid;
  if report.Service.Loadgen.accepted <> count then
    fail "[sigkill-loadgen] %d of %d submissions acked"
      report.Service.Loadgen.accepted count;
  if report.Service.Loadgen.errors <> 0 || report.Service.Loadgen.gave_up <> 0
  then
    fail "[sigkill-loadgen] %d errors, %d gave up (budget exhausted)"
      report.Service.Loadgen.errors report.Service.Loadgen.gave_up;
  if report.Service.Loadgen.reconnects = 0 then
    fail "[sigkill-loadgen] loadgen never reconnected — was the daemon killed?";
  (* The restarted daemon must agree: every ack exactly once. *)
  (match call ep Service.Protocol.Status 50 with
  | Service.Protocol.Status_ok st ->
      if st.Service.Protocol.accepted <> count then
        fail "[sigkill-loadgen] daemon recovered %d of %d acked submissions"
          st.Service.Protocol.accepted count
  | _ -> fail "[sigkill-loadgen] status: unexpected response");
  (match call ep (Service.Protocol.Drain { detail = false }) 50 with
  | Service.Protocol.Drain_ok _ -> ()
  | _ -> fail "[sigkill-loadgen] drain: unexpected response");
  drop ep;
  (match reap d.pid with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "[sigkill-loadgen] drained daemon did not exit cleanly");
  Format.printf
    "chaos-smoke: SIGKILL under load OK (%d acks, %d retries, %d reconnects)@."
    report.Service.Loadgen.accepted report.Service.Loadgen.retries
    report.Service.Loadgen.reconnects

(* --- phase 4: graceful degradation --------------------------------------- *)

let find_counter name =
  List.fold_left
    (fun acc -> function
      | n, Obs.Metrics.Counter v when n = name -> acc + v
      | _ -> acc)
    0
    (Obs.Metrics.snapshot ())

let degrade_phase root =
  incr trials;
  Obs.Metrics.set_enabled true;
  let sock = Filename.concat root "deg.sock" in
  let state = Filename.concat root "deg-state" in
  let addr = Service.Addr.Unix_sock sock in
  let service = golden_config () in
  let degrade_to = "rand:0.25,0.5" in
  if Algorithms.Registry.find degrade_to = None then
    fatal "[degrade] estimator %s not in the registry" degrade_to;
  let overload =
    {
      Service.Overload.default with
      Service.Overload.queue_high = 0.4;
      queue_low = 0.2;
      (* latency plays no part here: occupancy alone drives the detector *)
      ack_high_ms = 1e9;
      ack_low_ms = 1e9;
      trip_ms = 30.;
      recover_ms = 80.;
    }
  in
  let service = { service with Service.Config.horizon = 1_000_000 } in
  let cfg =
    Service.Server.make_config ~state_dir:state ~queue_cap:8 ~drain_batch:1
      ~degrade_to ~overload ~addr ~service ()
  in
  let result = ref (Ok ()) in
  let srv = Thread.create (fun () -> result := Service.Server.run cfg) () in
  let ctl = connect_retry ~tries:300 ~timeout_s:2.0 addr in
  let status () =
    match Service.Client.request ~timeout_s:5.0 ctl Service.Protocol.Status with
    | Ok (Service.Protocol.Status_ok st) -> st
    | Ok _ | Error _ -> fatal "[degrade] status request failed"
  in
  (* A raw pipelined burster on its own thread: it must keep the tiny
     admission queue saturated for longer than the trip dwell, which a
     send-then-poll loop cannot (the queue drains during the poll's
     round trip and the dwell timer resets).  Responses are drained and
     discarded — sheds are expected, that is the point. *)
  let stop_burst = ref false in
  let burster =
    Thread.create
      (fun () ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let buf = Bytes.create 65536 in
        let drain_responses () =
          let rec go () =
            match Unix.select [ fd ] [] [] 0.0 with
            | [ _ ], _, _ ->
                if Unix.read fd buf 0 (Bytes.length buf) > 0 then go ()
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          in
          go ()
        in
        let release = ref 0 in
        while not !stop_burst do
          let b = Buffer.create 4096 in
          for _ = 1 to 40 do
            incr release;
            Buffer.add_string b
              (Service.Protocol.request_to_line
                 (Service.Protocol.Submit
                    {
                      org = !release mod 2;
                      user = 0;
                      release = !release;
                      size = 2;
                      cid = 0;
                      cseq = 0;
                      trace = 0;
                    }))
          done;
          let s = Buffer.to_bytes b in
          let rec write_all off =
            if off < Bytes.length s then
              match Unix.write fd s off (Bytes.length s - off) with
              | n -> write_all (off + n)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                -> ()
          in
          write_all 0;
          drain_responses ()
        done;
        Unix.close fd)
      ()
  in
  (* Phase in: saturate until the detector trips and the estimator
     switches (bounded by a deadline, not a fixed count). *)
  let deadline = Unix.gettimeofday () +. 20.0 in
  let tripped = ref false in
  while (not !tripped) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01;
    let st = status () in
    if st.Service.Protocol.degraded then tripped := true
  done;
  if not !tripped then fail "[degrade] overload never tripped degraded mode";
  let st_hot = status () in
  if st_hot.Service.Protocol.degraded && st_hot.Service.Protocol.estimator <> degrade_to
  then
    fail "[degrade] degraded but estimator is %s, expected %s"
      st_hot.Service.Protocol.estimator degrade_to;
  if st_hot.Service.Protocol.shed = 0 then
    fail "[degrade] saturated a queue of 8 without shedding";
  (* Shed responses must carry the retry-after hint.  The queue is
     saturated, so a handful of tries is enough to get backpressured. *)
  let hint_checked = ref false in
  let tries = ref 0 in
  while (not !hint_checked) && !tries < 50 do
    incr tries;
    match
      Service.Client.request ~timeout_s:5.0 ctl
        (Service.Protocol.Submit
           {
             org = 0;
             user = 0;
             release = 999_000 + !tries;
             size = 2;
             cid = 0;
             cseq = 0;
             trace = 0;
           })
    with
    | Ok (Service.Protocol.Error
           { code = Service.Protocol.Backpressure; retry_after_ms; _ }) ->
        hint_checked := true;
        if retry_after_ms = None then
          fail "[degrade] backpressure without a retry_after_ms hint"
    | Ok _ | Error _ -> ()
  done;
  if not !hint_checked then
    fail "[degrade] never saw backpressure on a saturated queue";
  stop_burst := true;
  Thread.join burster;
  (* Phase out: stop the load; status polls double as detector ticks. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let calm = ref false in
  while (not !calm) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.03;
    let st = status () in
    if not st.Service.Protocol.degraded then calm := true
  done;
  if not !calm then fail "[degrade] never recovered from degraded mode";
  let st_cool = status () in
  if st_cool.Service.Protocol.estimator <> service.Service.Config.algorithm
  then
    fail "[degrade] recovered but estimator is %s, expected %s"
      st_cool.Service.Protocol.estimator service.Service.Config.algorithm;
  (match
     Service.Client.request ~timeout_s:30.0 ctl
       (Service.Protocol.Drain { detail = false })
   with
  | Ok (Service.Protocol.Drain_ok _) -> ()
  | Ok _ | Error _ -> fail "[degrade] drain failed");
  Service.Client.close ctl;
  Thread.join srv;
  (match !result with
  | Ok () -> ()
  | Error msg -> fail "[degrade] server exited with: %s" msg);
  (* The whole story must be visible in the metrics... *)
  let switches = find_counter "service.degrade_switches" in
  let recoveries = find_counter "service.recover_switches" in
  let shed = find_counter "service.shed" in
  if switches < 1 then fail "[degrade] service.degrade_switches = 0";
  if recoveries < 1 then fail "[degrade] service.recover_switches = 0";
  if shed < 1 then fail "[degrade] service.shed = 0";
  (* ...and in the WAL: the switch and the recovery are Mode records. *)
  (match Service.Wal.recover ~dir:(Service.Wal.segment_dir ~dir:state ~group:0) with
  | Ok r ->
      let modes =
        List.filter
          (function Service.Wal.Mode _ -> true | _ -> false)
          r.Service.Wal.r_records
      in
      if List.length modes < 2 then
        fail "[degrade] %d Mode records in the WAL, expected >= 2"
          (List.length modes)
  | Error e ->
      fail "[degrade] post-drain state dir refused: %s"
        (Service.Wal.boot_error_to_string e));
  Format.printf
    "chaos-smoke: graceful degradation OK (switches %d, recoveries %d, shed \
     %d)@."
    switches recoveries shed

let () =
  Smoke.run ~name:"chaos-smoke"
    [ crash_phase; fuzz_phase; sigkill_loadgen_phase; degrade_phase ]
