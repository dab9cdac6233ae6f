(* Expect-style checks of the fairsched CLI robustness contract: every user
   error — unknown subcommand, bad flag, failed flag conversion, unreadable
   trace file — exits 2 with a one-line "fairsched: ..." message, never a
   backtrace; successes exit 0. *)

let exe = "../bin/fairsched.exe"

let run_cmd args =
  let cmd = Printf.sprintf "%s %s 2>&1" exe args in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, List.rev !lines)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_error args ~expect =
  let code, lines = run_cmd args in
  Alcotest.(check int) (args ^ " exits 2") 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "%s mentions %S" args expect)
    true
    (List.exists (fun l -> contains l expect) lines);
  Alcotest.(check bool)
    (args ^ " prints no backtrace")
    false
    (List.exists (fun l -> contains l "Raised at") lines)

let test_unknown_subcommand () =
  check_error "nosuchcmd" ~expect:"nosuchcmd"

let test_unknown_algorithm () =
  check_error "simulate -a nosuchalgo" ~expect:"unknown algorithm"

let test_unreadable_trace () =
  let code, lines = run_cmd "analyze -f /nonexistent/missing.swf" in
  Alcotest.(check int) "exits 2" 2 code;
  (match lines with
  | [ line ] ->
      Alcotest.(check bool) "one-line fairsched: message" true
        (contains line "fairsched:" && contains line "missing.swf")
  | _ ->
      Alcotest.failf "expected exactly one line of output, got %d"
        (List.length lines))

let test_invalid_flag_values () =
  check_error "churn --mtbf=-5" ~expect:"--mtbf must be positive";
  check_error "churn --mttr=0" ~expect:"--mttr must be positive";
  check_error "table --workers=0" ~expect:"--workers";
  check_error "simulate --horizon=oops" ~expect:"horizon"

let test_malformed_fault_specs () =
  check_error "simulate --faults mtbf:100" ~expect:"missing mttr";
  check_error "simulate --faults mtbf:-3,mttr:5" ~expect:"must be a positive";
  check_error "simulate --faults mtbf:3,mttr:5,dist:zipf" ~expect:"dist";
  check_error "simulate --faults bogus" ~expect:"key:value";
  check_error "simulate --faults mtbf:1,mttr:1,color:red" ~expect:"unknown";
  check_error "timeline --faults mtbf:100" ~expect:"missing mttr"

let test_fault_script_errors () =
  let code, lines =
    run_cmd "simulate --faults-script /nonexistent/x.outages"
  in
  Alcotest.(check int) "missing script exits 2" 2 code;
  Alcotest.(check bool) "names the file" true
    (List.exists (fun l -> contains l "x.outages") lines);
  check_error "simulate --faults mtbf:10,mttr:2 --faults-script fixtures/demo.outages"
    ~expect:"mutually exclusive";
  (* Machine id out of the simulated cluster's range is caught up front. *)
  check_error
    "simulate --orgs 1 --machines 2 --faults-script fixtures/demo.outages"
    ~expect:"out of range"

(* Fault injection through the CLI runs end to end and reports the kernel
   counters. *)
let test_faults_end_to_end () =
  let code, lines =
    run_cmd
      "simulate -a fifo --orgs 2 --horizon 2000 --machines 4 --faults \
       mtbf:300,mttr:60 --max-restarts 2"
  in
  Alcotest.(check int) "simulate --faults exits 0" 0 code;
  let all = String.concat "\n" lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("output has " ^ needle) true (contains all needle))
    [ "faults:"; "failures"; "kernel:"; "kills=" ];
  let code, lines =
    run_cmd
      "simulate -a fifo --horizon 2000 --machines 16 --faults-script \
       fixtures/demo.outages"
  in
  Alcotest.(check int) "simulate --faults-script exits 0" 0 code;
  Alcotest.(check bool) "reports the scripted downtime" true
    (contains (String.concat "\n" lines) "3 failures, 3 recoveries")

(* `--estimator` specs are part of the persistent interface (they double as
   algorithm names in service configs), so malformed ones must die with the
   standard exit-2 one-liner — naming what is wrong — before any work. *)
let test_malformed_estimator_specs () =
  check_error "simulate --estimator rand:" ~expect:"missing EPS,CONF";
  check_error "simulate --estimator rand:0.5" ~expect:"missing confidence";
  check_error "simulate --estimator rand:0.5,1.5"
    ~expect:"strictly between 0 and 1";
  check_error "simulate --estimator rand:0.5,0" ~expect:"strictly between";
  check_error "simulate --estimator rand:-1,0.9" ~expect:"EPS must be > 0";
  check_error "simulate --estimator rand:x,0.9" ~expect:"EPS is not a number";
  check_error "simulate --estimator rand:0.5,0.9,7" ~expect:"too many commas";
  check_error "simulate --estimator rand-0" ~expect:"must be positive";
  check_error "simulate --estimator bogus" ~expect:"unknown estimator";
  check_error "serve --estimator rand:0.5" ~expect:"missing confidence";
  (* The cache toggle only exists for estimator-backed algorithms. *)
  check_error "simulate -a fifo --no-value-cache" ~expect:"--no-value-cache"

let test_estimator_end_to_end () =
  let code, lines =
    run_cmd
      "simulate --estimator rand:0.5,0.9 --orgs 6 --machines 12 --horizon \
       2000"
  in
  Alcotest.(check int) "sampled estimator exits 0" 0 code;
  let all = String.concat "\n" lines in
  Alcotest.(check bool) "reports the resolved sample count" true
    (contains all "sampled joining orders at k=6");
  Alcotest.(check bool) "policy is named by its spec" true
    (contains all "rand:0.5,0.9");
  let code, lines =
    run_cmd
      "simulate --estimator exact --no-value-cache --orgs 3 --machines 6 \
       --horizon 2000"
  in
  Alcotest.(check int) "exact estimator with cache off exits 0" 0 code;
  Alcotest.(check bool) "exact resolves to ref" true
    (contains (String.concat "\n" lines) "ref")

let test_success_paths () =
  let code, lines = run_cmd "algorithms" in
  Alcotest.(check int) "algorithms exits 0" 0 code;
  Alcotest.(check bool) "lists ref" true
    (List.exists (fun l -> contains l "ref") lines);
  let code, _ = run_cmd "--help" in
  Alcotest.(check int) "--help exits 0" 0 code

(* The churn study runs end-to-end on a micro-scenario and reports the
   kill/abandon counters. *)
let test_churn_end_to_end () =
  let code, lines =
    run_cmd
      "churn --orgs 2 --machines 3 --horizon 400 --instances 1 \
       --intensities 0,2 --mtbf 100 --mttr 20 --workers 1 --seed 7"
  in
  Alcotest.(check int) "churn exits 0" 0 code;
  let all = String.concat "\n" lines in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("output has " ^ needle) true (contains all needle))
    [ "killed"; "abandoned"; "wasted"; "downtime"; "ref"; "fairshare" ]

(* --- observability flags ----------------------------------------------- *)

let test_obs_happy_path () =
  let trace = Filename.temp_file "cli_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
    (fun () ->
      let code, lines =
        run_cmd
          (Printf.sprintf
             "simulate --orgs 3 --machines 6 --horizon 2000 --workers 2 \
              --seed 5 --trace %s --metrics"
             trace)
      in
      let all = String.concat "\n" lines in
      Alcotest.(check int) "traced simulate exits 0" 0 code;
      Alcotest.(check bool) "reports the trace file" true
        (contains all ("wrote " ^ trace));
      (* Bare --metrics prints the registry to stdout. *)
      Alcotest.(check bool) "metrics on stdout" true
        (contains all "kernel.round_latency_ns");
      Alcotest.(check bool) "job-wait histogram present" true
        (contains all "sim.job_wait");
      let vcode, vlines = run_cmd ("validate-trace " ^ trace) in
      Alcotest.(check int) "validate-trace exits 0" 0 vcode;
      Alcotest.(check bool) "validator says ok" true
        (List.exists (fun l -> contains l "ok:") vlines))

let test_obs_unwritable_paths () =
  (* Fail fast, before the simulation runs: both flags pre-open the file. *)
  check_error
    "simulate --orgs 2 --machines 2 --horizon 500 --trace \
     /nonexistent/dir/t.json"
    ~expect:"fairsched:";
  check_error
    "simulate --orgs 2 --machines 2 --horizon 500 \
     --metrics=/nonexistent/dir/m.json"
    ~expect:"fairsched:"

let test_validate_trace_rejects_garbage () =
  (* A non-JSON file exits 2 with a one-line parse error. *)
  check_error "validate-trace fixtures/demo.outages" ~expect:"fairsched:";
  check_error "validate-trace /nonexistent/missing.json" ~expect:"fairsched:"

(* --- service flags ------------------------------------------------------ *)

let test_service_flag_errors () =
  (* Malformed listen/target addresses fail in the cmdliner conv. *)
  check_error "serve --listen tcp:host" ~expect:"HOST:PORT";
  check_error "serve --listen tcp:host:99999" ~expect:"port";
  check_error "status --to nonsense" ~expect:"nonsense";
  (* Malformed load-generation rate. *)
  check_error "loadgen --rate=-3" ~expect:"--rate must be >= 0";
  check_error "loadgen --rate=oops" ~expect:"--rate must be >= 0";
  check_error "loadgen --count=0" ~expect:"--count";
  (* Admission-queue and algorithm validation happen before binding. *)
  check_error "serve --queue-cap=0" ~expect:"--queue-cap";
  check_error "serve -a nosuchalgo" ~expect:"unknown algorithm";
  (* An unwritable state dir is a startup error, not a crash. *)
  check_error "serve --listen /tmp/cli-test-unused.sock --state \
               /nonexistent/deep/state"
    ~expect:"fairsched:"

(* Chaos/degrade plans are validated before the daemon binds anything. *)
let test_chaos_flag_errors () =
  check_error "serve --chaos explode@wal-append" ~expect:"unknown action";
  check_error "serve --chaos crash" ~expect:"ACTION@TARGET";
  check_error "serve --chaos crash@x:0" ~expect:"bad hit count";
  check_error "serve --degrade nosuchestimator" ~expect:"unknown --degrade"

(* --- durability inspection (ctl wal-check) ------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_scratch_dir = Harness.with_tmpdir

let wal_header =
  "{\"fairsched_wal\":1,\"config\":{\"machines\":[2,2],\"horizon\":1000,\"algorithm\":\"fifo\",\"seed\":1}}\n"

let submit_line seq =
  Printf.sprintf
    "{\"rec\":\"submit\",\"seq\":%d,\"org\":0,\"user\":0,\"release\":%d,\"size\":1}\n"
    seq seq

(* The offline inspector's exit-code contract: 0 for an intact log
   (a torn tail is a survivable crash artifact, diagnosed but fine),
   2 with a typed one-liner naming the damage for anything corrupt. *)
let test_wal_check () =
  with_scratch_dir @@ fun dir ->
  let wal = Filename.concat dir "wal.ndjson" in
  write_file wal (wal_header ^ submit_line 1 ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check " ^ wal) in
  Alcotest.(check int) "intact wal exits 0" 0 code;
  let all = String.concat "\n" lines in
  Alcotest.(check bool) "counts the records" true (contains all "2 submit");
  Alcotest.(check bool) "no gaps" true (contains all "seq gaps: none");
  write_file wal (wal_header ^ submit_line 1 ^ "{\"rec\":\"submit\",\"se");
  let code, lines = run_cmd ("ctl wal-check " ^ wal) in
  Alcotest.(check int) "torn tail exits 0" 0 code;
  Alcotest.(check bool) "torn tail diagnosed" true
    (contains (String.concat "\n" lines) "torn tail: line 3");
  write_file wal (wal_header ^ "garbage\n" ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check " ^ wal) in
  Alcotest.(check int) "corrupt middle exits 2" 2 code;
  Alcotest.(check bool) "names line and offset" true
    (contains (String.concat "\n" lines) "corrupt at line 2");
  check_error "ctl wal-check" ~expect:"FILE";
  check_error "ctl wal-check /nonexistent/wal.ndjson" ~expect:"fairsched:"

(* A sharded state dir holds one wal-<g>/ segment per org-group, each
   with the same global config in its header; wal-check inspects every
   segment and fails the whole inspection if any one is corrupt. *)
let grouped_wal_header =
  "{\"fairsched_wal\":1,\"config\":{\"machines\":[2,2],\"horizon\":1000,\"algorithm\":\"fifo\",\"seed\":1,\"groups\":2}}\n"

let test_wal_check_segmented () =
  with_scratch_dir @@ fun dir ->
  let seg g = Filename.concat dir (Printf.sprintf "wal-%d" g) in
  Unix.mkdir (seg 0) 0o700;
  Unix.mkdir (seg 1) 0o700;
  write_file
    (Filename.concat (seg 0) "wal.ndjson")
    (grouped_wal_header ^ submit_line 1 ^ submit_line 2);
  write_file
    (Filename.concat (seg 1) "wal.ndjson")
    (grouped_wal_header
    ^ "{\"rec\":\"submit\",\"seq\":1,\"org\":1,\"user\":0,\"release\":3,\"size\":1}\n"
    );
  let code, lines = run_cmd ("ctl wal-check " ^ dir) in
  let all = String.concat "\n" lines in
  Alcotest.(check int) "intact segments exit 0" 0 code;
  Alcotest.(check bool) "reports segment 0" true (contains all "segment 0");
  Alcotest.(check bool) "reports segment 1" true (contains all "segment 1");
  write_file
    (Filename.concat (seg 1) "wal.ndjson")
    (grouped_wal_header ^ "garbage\n" ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check " ^ dir) in
  Alcotest.(check int) "one corrupt segment exits 2" 2 code;
  Alcotest.(check bool) "names the corrupt count" true
    (contains (String.concat "\n" lines) "1 of 2 segments corrupt")

(* `--json` is the machine-readable face of the same inspection: one JSON
   document with a per-segment status array, same exit codes (0 intact,
   2 corrupt), and a typed record naming the damage — offset and all. *)
let parse_json lines =
  match Obs.Json.of_string (String.concat "\n" lines) with
  | Ok j -> j
  | Error e ->
      Alcotest.failf "wal-check --json output does not parse: %s" e

let segments doc =
  match Option.bind (Obs.Json.member doc "segments") Obs.Json.get_list with
  | Some segs -> segs
  | None -> Alcotest.fail "wal-check --json lacks a segments array"

let seg_field seg name = Obs.Json.member seg name

let test_wal_check_json () =
  with_scratch_dir @@ fun dir ->
  let wal = Filename.concat dir "wal.ndjson" in
  write_file wal (wal_header ^ submit_line 1 ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check --json " ^ wal) in
  Alcotest.(check int) "intact wal exits 0" 0 code;
  (match segments (parse_json lines) with
  | [ seg ] ->
      Alcotest.(check bool) "status ok" true
        (seg_field seg "status" = Some (Obs.Json.String "ok"));
      Alcotest.(check bool) "kind wal" true
        (seg_field seg "kind" = Some (Obs.Json.String "wal"));
      Alcotest.(check bool) "counts submits" true
        (seg_field seg "submits" = Some (Obs.Json.Int 2));
      Alcotest.(check bool) "no torn tail field" true
        (seg_field seg "torn_tail" = None)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs));
  (* A torn tail is a survivable crash artifact: still exit 0, but the
     record carries the cut point. *)
  write_file wal (wal_header ^ submit_line 1 ^ "{\"rec\":\"submit\",\"se");
  let code, lines = run_cmd ("ctl wal-check --json " ^ wal) in
  Alcotest.(check int) "torn tail exits 0" 0 code;
  (match segments (parse_json lines) with
  | [ seg ] ->
      Alcotest.(check bool) "torn tail recorded" true
        (match seg_field seg "torn_tail" with
        | Some tt -> Obs.Json.member tt "line" = Some (Obs.Json.Int 3)
        | None -> false)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs));
  (* Mid-log garbage is corruption: exit 2 AND a typed record naming the
     line, byte offset, and reason. *)
  write_file wal (wal_header ^ "garbage\n" ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check --json " ^ wal) in
  Alcotest.(check int) "corrupt exits 2" 2 code;
  match segments (parse_json lines) with
  | [ seg ] ->
      Alcotest.(check bool) "status corrupt" true
        (seg_field seg "status" = Some (Obs.Json.String "corrupt"));
      Alcotest.(check bool) "names line 2" true
        (seg_field seg "line" = Some (Obs.Json.Int 2));
      Alcotest.(check bool) "carries a byte offset" true
        (match seg_field seg "offset" with
        | Some (Obs.Json.Int n) -> n > 0
        | _ -> false);
      Alcotest.(check bool) "carries a reason" true
        (match seg_field seg "reason" with
        | Some (Obs.Json.String _) -> true
        | _ -> false)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

let test_wal_check_json_segmented () =
  with_scratch_dir @@ fun dir ->
  let seg_dir g = Filename.concat dir (Printf.sprintf "wal-%d" g) in
  Unix.mkdir (seg_dir 0) 0o700;
  Unix.mkdir (seg_dir 1) 0o700;
  write_file
    (Filename.concat (seg_dir 0) "wal.ndjson")
    (grouped_wal_header ^ submit_line 1 ^ submit_line 2);
  write_file
    (Filename.concat (seg_dir 1) "wal.ndjson")
    (grouped_wal_header ^ "garbage\n" ^ submit_line 2);
  let code, lines = run_cmd ("ctl wal-check --json " ^ dir) in
  Alcotest.(check int) "one corrupt segment exits 2" 2 code;
  match segments (parse_json lines) with
  | [ s0; s1 ] ->
      (* Each entry is tagged with its org-group. *)
      Alcotest.(check bool) "segment 0 tagged and ok" true
        (seg_field s0 "group" = Some (Obs.Json.Int 0)
        && seg_field s0 "status" = Some (Obs.Json.String "ok"));
      Alcotest.(check bool) "segment 1 tagged and corrupt" true
        (seg_field s1 "group" = Some (Obs.Json.Int 1)
        && seg_field s1 "status" = Some (Obs.Json.String "corrupt"))
  | segs -> Alcotest.failf "expected 2 segments, got %d" (List.length segs)

(* Every group count logs to wal-<g>/ segments — a single-group daemon
   to wal-0/ — so one inspection path covers them all. *)
let test_single_group_segment () =
  with_scratch_dir @@ fun dir ->
  let state = Filename.concat dir "state" in
  let sock = Filename.concat dir "d.sock" in
  let pid =
    Harness.spawn ~exe
      [
        "serve"; "--listen"; "unix:" ^ sock; "--state"; state; "--orgs"; "2";
        "--machines"; "4"; "--horizon"; "1000"; "--algorithm"; "fifo";
      ]
  in
  Fun.protect
    ~finally:(fun () -> Harness.kill9 pid)
    (fun () ->
      Service.Client.close (Harness.connect_retry (Service.Addr.Unix_sock sock));
      let code, _ = run_cmd ("submit --org 1 --size 5 --to " ^ sock) in
      Alcotest.(check int) "submit exits 0" 0 code;
      let code, _ = run_cmd ("ctl drain --to " ^ sock) in
      Alcotest.(check int) "drain exits 0" 0 code);
  Alcotest.(check bool) "segment wal-0/ written" true
    (Sys.file_exists (Filename.concat state "wal-0/wal.ndjson"));
  Alcotest.(check bool) "no flat wal.ndjson" false
    (Sys.file_exists (Filename.concat state "wal.ndjson"));
  let code, lines = run_cmd ("ctl wal-check --json " ^ state) in
  Alcotest.(check int) "wal-check exits 0" 0 code;
  match segments (parse_json lines) with
  | [ seg ] ->
      Alcotest.(check bool) "one segment tagged group 0" true
        (seg_field seg "group" = Some (Obs.Json.Int 0));
      Alcotest.(check bool) "holds the acked submit" true
        (seg_field seg "submits" = Some (Obs.Json.Int 1))
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

(* A state dir in the flat single-group layout older builds wrote is
   refused at boot — exit 2, naming the file and the move into wal-0/ —
   and left byte for byte as it was: starting fresh beside it would drop
   acked work. *)
let test_serve_refuses_flat_layout () =
  with_scratch_dir @@ fun dir ->
  let wal = Filename.concat dir "wal.ndjson" in
  let content = wal_header ^ submit_line 1 ^ submit_line 2 in
  write_file wal content;
  let args =
    Printf.sprintf
      "serve --listen unix:%s --state %s --orgs 2 --machines 4 --horizon \
       1000 --algorithm fifo"
      (Filename.concat dir "d.sock") dir
  in
  check_error args ~expect:"wal.ndjson";
  check_error args ~expect:"wal-0/";
  Alcotest.(check string) "flat WAL byte-identical" content
    (In_channel.with_open_bin wal In_channel.input_all);
  Alcotest.(check bool) "no segment created" false
    (Sys.file_exists (Filename.concat dir "wal-0"))

let test_service_unreachable_daemon () =
  (* Clients against a daemon that is not there: exit 2, one-line message. *)
  check_error "status --to unix:/nonexistent/no-daemon.sock"
    ~expect:"cannot reach daemon";
  check_error "submit --to unix:/nonexistent/no-daemon.sock --org 0 --size 1"
    ~expect:"cannot reach daemon";
  check_error "ctl psi --to unix:/nonexistent/no-daemon.sock"
    ~expect:"cannot reach daemon"

let () =
  Alcotest.run "cli"
    [
      ( "robustness",
        [
          Alcotest.test_case "unknown subcommand" `Quick
            test_unknown_subcommand;
          Alcotest.test_case "unknown algorithm" `Quick test_unknown_algorithm;
          Alcotest.test_case "unreadable trace" `Quick test_unreadable_trace;
          Alcotest.test_case "invalid flag values" `Quick
            test_invalid_flag_values;
          Alcotest.test_case "malformed fault specs" `Quick
            test_malformed_fault_specs;
          Alcotest.test_case "fault script errors" `Quick
            test_fault_script_errors;
          Alcotest.test_case "fault injection end to end" `Quick
            test_faults_end_to_end;
          Alcotest.test_case "malformed estimator specs" `Quick
            test_malformed_estimator_specs;
          Alcotest.test_case "estimator end to end" `Quick
            test_estimator_end_to_end;
          Alcotest.test_case "success paths" `Quick test_success_paths;
        ] );
      ( "churn",
        [ Alcotest.test_case "end to end" `Quick test_churn_end_to_end ] );
      ( "observability",
        [
          Alcotest.test_case "trace + metrics happy path" `Quick
            test_obs_happy_path;
          Alcotest.test_case "unwritable output paths" `Quick
            test_obs_unwritable_paths;
          Alcotest.test_case "validate-trace rejects garbage" `Quick
            test_validate_trace_rejects_garbage;
        ] );
      ( "service",
        [
          Alcotest.test_case "flag errors" `Quick test_service_flag_errors;
          Alcotest.test_case "chaos flag errors" `Quick test_chaos_flag_errors;
          Alcotest.test_case "wal-check" `Quick test_wal_check;
          Alcotest.test_case "wal-check-segmented" `Quick
            test_wal_check_segmented;
          Alcotest.test_case "wal-check --json" `Quick test_wal_check_json;
          Alcotest.test_case "wal-check --json segmented" `Quick
            test_wal_check_json_segmented;
          Alcotest.test_case "single-group segment" `Quick
            test_single_group_segment;
          Alcotest.test_case "flat layout refused" `Quick
            test_serve_refuses_flat_layout;
          Alcotest.test_case "unreachable daemon" `Quick
            test_service_unreachable_daemon;
        ] );
    ]
