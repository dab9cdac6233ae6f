(* End-to-end smoke for the live observability plane, driven through the
   REAL `fairsched` binary (argv.(1)):

   1. boot a sharded daemon (4 org-groups on 4 worker domains, group
      commit, the rand-4 sampled estimator) with structured NDJSON logs;
   2. saturate it with a rate-limited `fairsched loadgen` subprocess and,
      while the load is still flowing, scrape `ctl metrics` and
      `ctl trace` — the plane must answer mid-run, not just at rest;
   3. after the load drains, bounce one org through `endow leave`/`endow
      join` (the daemon is federated), then scrape again and check the
      merged metrics snapshot carries every fairness SLO instrument
      (per-org ψ/p gauges, per-group max-drift and estimator ε-budget),
      the consortium membership gauges (fed.orgs_active, per-group
      fed.machines_lent_g<g>), the service counters, and the estimator's
      decision counters (estimates, forced choices);
   4. run the in-tree `validate-trace` over the merged Chrome trace and
      check it contains spans from the router lane and from EVERY shard
      worker lane, plus client-issued trace ids on routed requests;
   5. check the NDJSON log file parses line by line.

   Exit 0 on success, 1 with a one-line reason on any failure. *)

open Harness

let fail = Smoke.fail

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> failwith (Printf.sprintf "read %s: %s" path msg)
  | contents -> (
      match Obs.Json.of_string contents with
      | Ok j -> j
      | Error msg -> failwith (Printf.sprintf "parse %s: %s" path msg))

(* --- metrics assertions -------------------------------------------------- *)

let number_of metrics name =
  Option.bind (Obs.Json.member metrics name) (fun v ->
      match v with
      (* Histograms serialize as objects; counters/gauges as numbers. *)
      | Obs.Json.Obj _ -> Obs.Json.(Option.bind (member v "count") get_number)
      | v -> Obs.Json.get_number v)

let check_metrics ~orgs ~shard_groups metrics =
  let require ?(positive = false) name =
    match number_of metrics name with
    | None -> fail "metrics: %s missing from merged snapshot" name
    | Some v -> if positive && v <= 0. then fail "metrics: %s = %g, want > 0" name v
  in
  (* Per-shard engine work merged into one snapshot: every org-group's
     acks and fsyncs are summed here, so the totals must cover the load. *)
  require ~positive:true "service.acks_total";
  require ~positive:true "service.fsync_total";
  require ~positive:true "service.fsync_us";
  (* Every live decision of the estimator (rand-4) is either forced (one
     waiting organization) or runs a φ estimate. *)
  (match
     (number_of metrics "rand.estimates", number_of metrics "rand.select_forced")
   with
  | Some e, Some f when e +. f > 0. -> ()
  | Some _, Some _ -> fail "metrics: rand estimator never decided"
  | _ -> fail "metrics: rand.{estimates,select_forced} missing");
  require ~positive:true "rand.orders_sampled";
  (* Fairness SLO instruments: ψ and executed-parts gauges for every org,
     drift and ε-budget for every group. *)
  for o = 0 to orgs - 1 do
    require (Printf.sprintf "fair.psi_org%d" o);
    require (Printf.sprintf "fair.p_org%d" o)
  done;
  for g = 0 to shard_groups - 1 do
    require (Printf.sprintf "fair.drift_max_g%d" g);
    require ~positive:true (Printf.sprintf "fair.estimator_budget_g%d" g)
  done;
  (* Consortium membership gauges: the daemon is federated, and after the
     leave/join bounce every org is active again. *)
  (match number_of metrics "fed.orgs_active" with
  | None -> fail "metrics: fed.orgs_active missing from merged snapshot"
  | Some v ->
      if v <> float_of_int orgs then
        fail "metrics: fed.orgs_active = %g, want %d" v orgs);
  for g = 0 to shard_groups - 1 do
    require (Printf.sprintf "fed.machines_lent_g%d" g)
  done

(* --- trace assertions ---------------------------------------------------- *)

let check_trace ~workers trace =
  let events =
    match
      Option.bind (Obs.Json.member trace "traceEvents") Obs.Json.get_list
    with
    | Some evs -> evs
    | None -> failwith "trace: missing traceEvents array"
  in
  if events = [] then fail "trace: no events captured";
  let span_pids = Hashtbl.create 8 in
  let client_traced = ref 0 in
  List.iter
    (fun ev ->
      let str k = Option.bind (Obs.Json.member ev k) Obs.Json.get_string in
      let num k = Option.bind (Obs.Json.member ev k) Obs.Json.get_number in
      (match (str "ph", num "pid") with
      | Some ("X" | "B" | "i" | "I"), Some pid ->
          Hashtbl.replace span_pids (int_of_float pid) ()
      | _ -> ());
      match Option.bind (Obs.Json.member ev "args") (fun a ->
                Option.bind (Obs.Json.member a "trace") Obs.Json.get_number)
      with
      (* Client-issued ids are (cid << 20) | cseq with cid >= 1, so any
         properly stamped request carries at least 2^20. *)
      | Some t when t >= 1048576. -> incr client_traced
      | Some _ | None -> ())
    events;
  if not (Hashtbl.mem span_pids 1) then
    fail "trace: no spans from the router lane (pid 1)";
  for w = 0 to workers - 1 do
    if not (Hashtbl.mem span_pids (2 + w)) then
      fail "trace: no spans from shard worker %d (pid %d)" w (2 + w)
  done;
  if !client_traced = 0 then
    fail "trace: no event carries a client-issued trace id";
  Format.printf
    "obs-smoke: trace OK (%d events, %d with client trace ids, lanes %s)@."
    (List.length events) !client_traced
    (Hashtbl.fold (fun p () acc -> string_of_int p :: acc) span_pids []
    |> List.sort compare |> String.concat ",")

(* --- log assertions ------------------------------------------------------ *)

let check_log path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> fail "log file: %s" msg
  | contents ->
      let lines =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      if lines = [] then fail "log file: no NDJSON records"
      else
        List.iteri
          (fun i line ->
            match Obs.Json.of_string line with
            | Error msg -> fail "log line %d is not JSON: %s" (i + 1) msg
            | Ok j ->
                List.iter
                  (fun k ->
                    if Obs.Json.member j k = None then
                      fail "log line %d lacks %S" (i + 1) k)
                  [ "ts_ns"; "level"; "component"; "msg" ])
          lines

(* --- the run ------------------------------------------------------------- *)

let live_plane dir =
  let orgs = 8 and machines = 16 and groups = 4 and shards = 4 in
  let horizon = 1_000_000 and seed = 7 and count = 1_200 in
  let sock = Filename.concat dir "obs.sock" in
  let log = Filename.concat dir "daemon.ndjson" in
  let shape =
    [
      "--orgs"; string_of_int orgs; "--machines"; string_of_int machines;
      "--horizon"; string_of_int horizon; "--seed"; string_of_int seed;
    ]
  in
  let pid =
    Smoke.serve
      ([
         "--listen"; "unix:" ^ sock;
         "--state"; Filename.concat dir "state";
         "--algorithm"; "rand-4";
         "--groups"; string_of_int groups;
         "--shards"; string_of_int shards;
         "--commit-interval"; "2"; "--federation";
         "--log-level"; "info"; "--log-file"; log;
       ]
      @ shape)
  in
  Fun.protect
    ~finally:(fun () -> kill9 pid)
    (fun () ->
      let addr = Service.Addr.Unix_sock sock in
      Service.Client.close (connect_retry addr);
      (* Rate-limited so the stream is still flowing when we scrape:
         1200 jobs at 600/s is a ~2 s window. *)
      let load_pid =
        spawn ~exe:!Smoke.exe
          ([
             "loadgen"; "--to"; sock; "--count"; string_of_int count;
             "--rate"; "600";
             "--connections"; string_of_int groups;
             "--groups"; string_of_int groups; "--window"; "8";
           ]
          @ shape)
      in
      Unix.sleepf 0.7;
      (* Mid-run scrape: the plane must answer while shards are busy. *)
      Smoke.expect_cli
        [ "ctl"; "metrics"; "--to"; sock; Filename.concat dir "metrics-mid.json" ];
      Smoke.expect_cli
        [ "ctl"; "trace"; "--to"; sock; Filename.concat dir "trace-mid.json" ];
      Smoke.expect_clean_exit ~ctx:"loadgen" load_pid;
      (* Endowment churn through the real CLI: org 0 leaves the
         consortium and rejoins (readmit-all), so the membership
         gauges have seen an actual transition, not just the boot
         state. *)
      Smoke.expect_cli [ "endow"; "leave"; "--to"; sock; "--org"; "0" ];
      Smoke.expect_cli [ "endow"; "join"; "--to"; sock; "--org"; "0" ];
      (* Let a worker pump publish the post-join membership: the SLO
         publication is throttled to 0.25 s and the join's own pump may
         fall inside the throttle window, so cover the 1 s idle tick. *)
      Unix.sleepf 1.2;
      (* Post-run scrape: by now every org has submitted, so the full
         gauge set must be live. *)
      let metrics_file = Filename.concat dir "metrics.json" in
      let trace_file = Filename.concat dir "trace.json" in
      Smoke.expect_cli [ "ctl"; "metrics"; "--to"; sock; metrics_file ];
      Smoke.expect_cli
        [ "ctl"; "trace"; "--to"; sock; trace_file; "--limit"; "3000" ];
      check_metrics ~orgs ~shard_groups:groups (read_json metrics_file);
      (* The merged trace must satisfy the in-tree validator and carry
         every lane: router pid 1, shard workers pids 2..2+W-1. *)
      Smoke.expect_cli [ "validate-trace"; trace_file ];
      check_trace ~workers:(min shards groups) (read_json trace_file);
      check_log log;
      Smoke.expect_cli [ "ctl"; "drain"; "--to"; sock ])

let () = Smoke.run ~name:"obs-smoke" [ live_plane ]
