(* Golden wire fixtures: the exact bytes of every request, response, WAL
   record, snapshot, config, WAL header and kernel-stats value, the error
   each malformed line is rejected with, and a whole wal-0/ segment
   directory.  The files under fixtures/wire/ pin the formats the daemon
   writes to sockets and disks; a codec change that moves a byte, reorders
   a field or renames an error fails here.

   To regenerate (only when a format change is intended), capture into
   the fixture directory and review the diff:

     dune exec test/test_wire.exe -- capture test/fixtures/wire *)

let ( let@ ) f x = f x
let fixtures = Filename.concat "fixtures" "wire"

module P = Service.Protocol
module W = Service.Wal

(* --- The values --------------------------------------------------------- *)

let config ?speeds ?max_restarts ?workers ?groups ?federated
    ?(machines = [| 2; 1; 1 |]) ?(horizon = 60) ?(algorithm = "fifo")
    ?(seed = 7) () =
  match
    Service.Config.make ?speeds ?max_restarts ?workers ?groups ?federated
      ~machines ~horizon ~algorithm ~seed ()
  with
  | Ok c -> c
  | Error msg -> failwith ("config rejected: " ^ msg)

let configs =
  [
    ("plain", config ());
    ("ref-restarts-workers", config ~algorithm:"ref" ~max_restarts:3 ~workers:2 ());
    ("speeds", config ~machines:[| 1; 1 |] ~speeds:[| 2.0; 0.5 |] ());
    ("speeds-integral", config ~machines:[| 2 |] ~speeds:[| 1.0; 3.0 |] ());
    ("groups-2", config ~groups:2 ~machines:[| 1; 1; 2; 1 |] ());
    ("groups-1-explicit", config ~groups:1 ());
    ("federated", config ~federated:true ~algorithm:"ref" ());
    ( "everything",
      config ~machines:[| 1; 2 |] ~speeds:[| 1.5; 1.0; 0.25 |] ~max_restarts:0
        ~workers:4 ~groups:2 ~federated:true ~horizon:1000 ~algorithm:"fairshare"
        ~seed:(-3) () );
  ]

let stamps = [ (0, 0, 0); (71, 4, 9); (0, 5, 0); (8, 0, 0); (0, 0, 33) ]

let requests =
  let submits =
    List.map
      (fun (cid, cseq, trace) ->
        ( Printf.sprintf "submit-%d-%d-%d" cid cseq trace,
          P.Submit { org = 1; user = 3; release = 5; size = 2; cid; cseq; trace } ))
      stamps
  in
  let faults =
    List.concat_map
      (fun (cid, cseq, trace) ->
        [
          ( Printf.sprintf "fault-fail-%d-%d-%d" cid cseq trace,
            P.Fault { time = 9; event = Faults.Event.Fail 2; cid; cseq; trace } );
          ( Printf.sprintf "fault-recover-%d-%d-%d" cid cseq trace,
            P.Fault { time = 12; event = Faults.Event.Recover 0; cid; cseq; trace }
          );
        ])
      stamps
  in
  let endows =
    let events =
      [
        ("join-all", Federation.Event.Join { org = 1; machines = [] });
        ("join", Federation.Event.Join { org = 1; machines = [ 2; 3 ] });
        ("leave", Federation.Event.Leave { org = 0 });
        ("lend", Federation.Event.Lend { org = 0; to_org = 2; machines = [ 1 ] });
        ("lend-none", Federation.Event.Lend { org = 2; to_org = 0; machines = [] });
        ("reclaim", Federation.Event.Reclaim { org = 0; machines = [ 1; 0 ] });
        ("reclaim-none", Federation.Event.Reclaim { org = 0; machines = [] });
      ]
    in
    List.concat_map
      (fun (cid, cseq, trace) ->
        List.map
          (fun (kind, event) ->
            ( Printf.sprintf "endow-%s-%d-%d-%d" kind cid cseq trace,
              P.Endow { time = 4; event; cid; cseq; trace } ))
          events)
      [ (0, 0, 0); (71, 4, 9); (0, 5, 0) ]
  in
  submits @ faults @ endows
  @ [
      ("submit-negative", P.Submit { org = -1; user = 0; release = -5; size = 0; cid = -2; cseq = -1; trace = -7 });
      ("status", P.Status);
      ("psi", P.Psi);
      ("snapshot", P.Snapshot);
      ("drain", P.Drain { detail = false });
      ("drain-detail", P.Drain { detail = true });
      ("metrics", P.Metrics);
      ("trace-default", P.Trace { limit = P.default_trace_limit });
      ("trace-1", P.Trace { limit = 1 });
    ]

let stats_values =
  let zero = Kernel.Stats.create () in
  let some = Kernel.Stats.create () in
  some.instants <- 42;
  some.completions <- 40;
  some.fault_events <- 3;
  some.kills <- 2;
  some.abandoned <- 1;
  some.wasted <- 5;
  some.releases <- 44;
  some.rounds <- 39;
  some.starts <- 41;
  some.heap_pops <- 100;
  let endow = Kernel.Stats.copy some in
  endow.endow_events <- 6;
  [ ("zero", zero); ("some", some); ("endow", endow) ]

let stats = List.assoc "some" stats_values

let status ?job_wait ?(groups = 1) ?(estimator = "ref") ?(draining = false)
    ?(ack_ewma_ms = 0.0) () =
  P.Status_ok
    {
      now = 10;
      frontier = 12;
      horizon = 100;
      orgs = 3;
      machines = 4;
      accepted = 20;
      rejected = 2;
      queue_depth = 1;
      queue_cap = 1024;
      draining;
      waiting = [| 1; 0; 2 |];
      stats;
      job_wait;
      estimator;
      degraded = groups > 1;
      shed = 17;
      ack_ewma_ms;
      groups;
      shards = groups;
      fsyncs = 9;
    }

let summary = { Obs.Metrics.count = 5; p50 = 1.; p90 = 2.5; p99 = 4.125; max = 4.2 }

let drain ?schedule () =
  P.Drain_ok
    {
      d_now = 99;
      d_psi_scaled = [| 10; -20 |];
      d_parts = [| 5; 6 |];
      d_stats = List.assoc "endow" stats_values;
      d_schedule = schedule;
    }

let responses =
  let errors =
    List.concat_map
      (fun code ->
        let name = P.error_code_to_string code in
        [
          ( "error-" ^ name,
            P.Error { code; msg = "went \"wrong\"\n"; retry_after_ms = None } );
          ( "error-retry-" ^ name,
            P.Error { code; msg = "later"; retry_after_ms = Some 120 } );
        ])
      [ P.Parse; P.Bad_request; P.Backpressure; P.Draining; P.Wal_error; P.Unsupported ]
  in
  [
    ("submit", P.Submit_ok { seq = 4; org = 1; index = 0; now = 3 });
    ("fault", P.Fault_ok { seq = 5; now = 9 });
    ("endow", P.Endow_ok { seq = 6; now = 11 });
    ("status", status ());
    ("status-job-wait", status ~job_wait:summary ());
    ("status-groups-2", status ~groups:2 ~estimator:"rand:0.1,0.9" ~ack_ewma_ms:3.5 ());
    ( "status-draining-wait",
      status ~draining:true ~job_wait:{ summary with count = 0; p50 = 0.; p99 = 0. }
        ~ack_ewma_ms:0.1 ~estimator:"" () );
    ("psi", P.Psi_ok { now = 7; psi_scaled = [| 4; 0; 9 |]; parts = [| 2; 0; 3 |] });
    ("psi-empty", P.Psi_ok { now = 0; psi_scaled = [||]; parts = [||] });
    ("snapshot", P.Snapshot_ok { seq = 11; path = "/tmp/snap" });
    ("snapshot-odd-path", P.Snapshot_ok { seq = 0; path = "a \"b\"\\c\t\xc3\xa9" });
    ("drain", drain ());
    ("drain-empty-schedule", drain ~schedule:[] ());
    ("drain-schedule", drain ~schedule:[ (0, 0, 1, 2, 3); (1, 0, 4, 0, 2) ] ());
    ( "metrics",
      P.Metrics_ok
        {
          metrics =
            Obs.Json.Obj
              [
                ("server.accepted", Obs.Json.Int 3);
                ("server.ack_ewma_ms", Obs.Json.Float 0.25);
                ( "server.ack_us",
                  Obs.Json.Obj [ ("count", Obs.Json.Int 1); ("p50", Obs.Json.Float 12.0) ] );
              ];
        } );
    ("metrics-empty", P.Metrics_ok { metrics = Obs.Json.Obj [] });
    ( "trace",
      P.Trace_ok
        {
          events = 1;
          dropped = 0;
          trace =
            Obs.Json.Obj
              [
                ( "traceEvents",
                  Obs.Json.List
                    [
                      Obs.Json.Obj
                        [
                          ("name", Obs.Json.String "submit");
                          ("ph", Obs.Json.String "X");
                          ("ts", Obs.Json.Float 1.5);
                        ];
                    ] );
              ];
        } );
    ("trace-dropped", P.Trace_ok { events = 0; dropped = 7; trace = Obs.Json.Obj [ ("traceEvents", Obs.Json.List []) ] });
  ]
  @ errors

let records =
  [
    ("submit", W.Submit { seq = 1; org = 0; user = 2; release = 0; size = 3; cid = 0; cseq = 0 });
    ("submit-client", W.Submit { seq = 3; org = 1; user = 0; release = 2; size = 1; cid = 12; cseq = 2 });
    ("submit-cseq-only", W.Submit { seq = 4; org = 1; user = 0; release = 2; size = 1; cid = 0; cseq = 2 });
    ("submit-cid-only", W.Submit { seq = 5; org = 1; user = 0; release = 2; size = 1; cid = 9; cseq = 0 });
    ("fault-fail", W.Fault { seq = 2; time = 1; event = Faults.Event.Fail 0; cid = 12; cseq = 1 });
    ("fault-recover", W.Fault { seq = 6; time = 3; event = Faults.Event.Recover 0; cid = 0; cseq = 0 });
    ("endow-join-all", W.Endow { seq = 7; time = 4; event = Federation.Event.Join { org = 1; machines = [] }; cid = 0; cseq = 0 });
    ("endow-join", W.Endow { seq = 8; time = 4; event = Federation.Event.Join { org = 1; machines = [ 2 ] }; cid = 3; cseq = 1 });
    ("endow-leave", W.Endow { seq = 9; time = 5; event = Federation.Event.Leave { org = 1 }; cid = 0; cseq = 0 });
    ( "endow-lend",
      W.Endow { seq = 10; time = 6; event = Federation.Event.Lend { org = 0; to_org = 2; machines = [ 0; 1 ] }; cid = 0; cseq = 7 } );
    ("endow-reclaim", W.Endow { seq = 11; time = 7; event = Federation.Event.Reclaim { org = 0; machines = [ 1 ] }; cid = 0; cseq = 0 });
    ("mode", W.Mode { seq = 12; estimator = "rand:0.1,0.95" });
  ]

let snapshots =
  [
    ("empty", { W.config = config (); last_seq = 0; records = [] });
    ("gap", { W.config = config (); last_seq = 9; records = [] });
    ( "records",
      {
        W.config = List.assoc "everything" configs;
        last_seq = 12;
        records = List.map snd records |> List.sort (fun a b -> compare (W.seq_of a) (W.seq_of b));
      } );
  ]

(* The wal-0/ segment: a snapshot covering seqs 1-4, then a compacted WAL
   holding 5-8. *)
let segment_config = List.assoc "federated" configs

let segment_records =
  [
    W.Submit { seq = 1; org = 0; user = 0; release = 0; size = 3; cid = 0; cseq = 0 };
    W.Submit { seq = 2; org = 1; user = 1; release = 0; size = 2; cid = 5; cseq = 1 };
    W.Fault { seq = 3; time = 1; event = Faults.Event.Fail 1; cid = 0; cseq = 0 };
    W.Endow { seq = 4; time = 2; event = Federation.Event.Lend { org = 0; to_org = 1; machines = [ 0 ] }; cid = 0; cseq = 0 };
    W.Mode { seq = 5; estimator = "rand:0.1,0.95" };
    W.Fault { seq = 6; time = 3; event = Faults.Event.Recover 1; cid = 5; cseq = 2 };
    W.Endow { seq = 7; time = 4; event = Federation.Event.Reclaim { org = 0; machines = [ 0 ] }; cid = 0; cseq = 0 };
    W.Submit { seq = 8; org = 2; user = 4; release = 5; size = 1; cid = 5; cseq = 3 };
  ]

(* Malformed inputs per decoder.  [snapshot] and [header] lines are put
   in a state dir of their own and recovered; the error is the corruption
   reason. *)
let malformed =
  [
    ("request", "not json");
    ("request", "{}");
    ("request", "[1,2]");
    ("request", {|{"op":5}|});
    ("request", {|{"op":"nosuch"}|});
    ("request", {|{"op":"submit","release":1,"size":1}|});
    ("request", {|{"op":"submit","org":"a","release":1,"size":1}|});
    ("request", {|{"op":"submit","org":1,"user":1.5,"release":1,"size":1}|});
    ("request", {|{"op":"submit","org":1,"release":1}|});
    ("request", {|{"op":"submit","org":1,"release":1,"size":1,"cid":"x"}|});
    ("request", {|{"op":"submit","org":1,"release":1,"size":1,"cseq":null}|});
    ("request", {|{"op":"submit","org":1,"release":1,"size":1,"trace":true}|});
    ("request", {|{"op":"fault","time":1,"kind":"explode","machine":0}|});
    ("request", {|{"op":"fault","time":1,"machine":0}|});
    ("request", {|{"op":"fault","time":1,"kind":7,"machine":0}|});
    ("request", {|{"op":"fault","time":1,"kind":"fail"}|});
    ("request", {|{"op":"fault","kind":"fail","machine":0}|});
    ("request", {|{"op":"endow","time":1,"kind":"merge","org":0}|});
    ("request", {|{"op":"endow","time":1,"kind":"join"}|});
    ("request", {|{"op":"endow","time":1,"org":0}|});
    ("request", {|{"op":"endow","time":1,"kind":"lend","org":0,"machines":[1]}|});
    ("request", {|{"op":"endow","time":1,"kind":"join","org":0,"machines":3}|});
    ("request", {|{"op":"endow","time":1,"kind":"reclaim","org":0,"machines":[1,"x"]}|});
    ("request", {|{"op":"endow","kind":"leave","org":0}|});
    ("request", {|{"op":"endow","time":1,"kind":"leave","org":0,"cid":[]}|});
    ("request", {|{"op":"drain","detail":1}|});
    ("request", {|{"op":"trace","limit":0}|});
    ("request", {|{"op":"trace","limit":"x"}|});
    ("request", String.make 40 '[' ^ String.make 40 ']');
    ("request", {|{"op":"status"} x|});
    ("response", "{}");
    ("response", "7");
    ("response", {|{"ok":1}|});
    ("response", {|{"ok":false,"code":"nope","msg":"x"}|});
    ("response", {|{"ok":false,"msg":"x"}|});
    ("response", {|{"ok":false,"code":"parse"}|});
    ("response", {|{"ok":false,"code":3,"msg":"x"}|});
    ("response", {|{"ok":false,"code":"parse","msg":"x","retry_after_ms":1.5}|});
    ("response", {|{"ok":true}|});
    ("response", {|{"ok":true,"op":"zzz"}|});
    ("response", {|{"ok":true,"op":"submit","seq":1,"org":0,"now":0}|});
    ("response", {|{"ok":true,"op":"fault","seq":"1","now":0}|});
    ("response", {|{"ok":true,"op":"endow","seq":1}|});
    ("response", {|{"ok":true,"op":"psi","now":0,"psi_scaled":5,"parts":[]}|});
    ("response", {|{"ok":true,"op":"psi","now":0,"psi_scaled":[],"parts":[1,"a"]}|});
    ("response", {|{"ok":true,"op":"psi","now":0,"psi_scaled":[]}|});
    ("response", {|{"ok":true,"op":"snapshot","seq":1,"path":5}|});
    ("response", {|{"ok":true,"op":"metrics"}|});
    ("response", {|{"ok":true,"op":"trace","dropped":0,"trace":{}}|});
    ("response", {|{"ok":true,"op":"trace","events":1}|});
    ("response", {|{"ok":true,"op":"trace","events":1,"dropped":"x","trace":{}}|});
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0]}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{}}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":5}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"stats":{}}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0]}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"draining":"no","waiting":[0]}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"estimator":5}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"ack_ewma_ms":"x"}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"groups":"x"}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"job_wait":{"count":1,"p50":"x","p90":1,"p99":1,"max":1}}|}
    );
    ( "response",
      {|{"ok":true,"op":"status","now":1,"frontier":1,"horizon":9,"orgs":1,"machines":1,"accepted":0,"rejected":0,"queue_depth":0,"queue_cap":8,"waiting":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"job_wait":null}|}
    );
    ( "response",
      {|{"ok":true,"op":"drain","now":1,"psi_scaled":[0],"parts":[0],"stats":{"instants":"x"}}|}
    );
    ( "response",
      {|{"ok":true,"op":"drain","now":1,"psi_scaled":[0],"parts":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"schedule":5}|}
    );
    ( "response",
      {|{"ok":true,"op":"drain","now":1,"psi_scaled":[0],"parts":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"schedule":[{"org":0}]}|}
    );
    ( "response",
      {|{"ok":true,"op":"drain","now":1,"psi_scaled":[0],"parts":[0],"stats":{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0},"schedule":[5]}|}
    );
    ("response", {|{"ok":true,"op":"drain","now":1,"psi_scaled":[0],"parts":[0]}|});
    ("record", "{}");
    ("record", {|{"rec":"zzz","seq":1}|});
    ("record", {|{"rec":5,"seq":1}|});
    ("record", {|{"rec":"submit","seq":1,"org":0,"release":0,"size":1}|});
    ("record", {|{"rec":"submit","seq":"x","org":0,"user":0,"release":0,"size":1}|});
    ("record", {|{"rec":"submit","seq":1,"org":0,"user":0,"release":0,"size":1,"cid":1.5}|});
    ("record", {|{"rec":"fault","seq":1,"time":0,"kind":"boom","machine":0}|});
    ("record", {|{"rec":"fault","seq":1,"time":0,"machine":0}|});
    ("record", {|{"rec":"fault","seq":1,"time":0,"kind":"fail"}|});
    ("record", {|{"rec":"endow","seq":1,"time":0,"org":0}|});
    ("record", {|{"rec":"endow","seq":1,"time":0,"kind":"leave","org":"x"}|});
    ("record", {|{"rec":"endow","seq":1,"kind":"leave","org":0}|});
    ("record", {|{"rec":"endow","seq":1,"time":0,"kind":"lend","org":0}|});
    ("record", {|{"rec":"mode","seq":1,"estimator":""}|});
    ("record", {|{"rec":"mode","seq":1}|});
    ("record", {|{"rec":"mode","seq":1,"estimator":3}|});
    ("record", {|{"rec":"mode","estimator":"ref"}|});
    ("config", "{}");
    ("config", "[]");
    ("config", {|{"machines":[1,"x"],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":2,"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"speeds":"x","horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"speeds":[1,"x"],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":5,"seed":0}|});
    ("config", {|{"machines":[1],"horizon":9,"seed":0}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":"x"}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"max_restarts":"x"}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"workers":1.5}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"groups":1.5}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"federated":1}|});
    ("config", {|{"machines":[1],"horizon":0,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"nope","seed":0}|});
    ("config", {|{"machines":[1,1],"horizon":9,"algorithm":"fifo","seed":0,"groups":3}|});
    ("config", {|{"machines":[1,0],"horizon":9,"algorithm":"fifo","seed":0,"groups":2}|});
    ("config", {|{"machines":[1],"speeds":[1.0,1.0],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"speeds":[0],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"max_restarts":-1}|});
    ("config", {|{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0,"workers":0}|});
    ("config", {|{"machines":[],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[0,0],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("config", {|{"machines":[1,-1],"horizon":9,"algorithm":"fifo","seed":0}|});
    ("stats", "{}");
    ("stats", "5");
    ("stats", {|{"instants":"many"}|});
    ( "stats",
      {|{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0}|}
    );
    ( "stats",
      {|{"instants":0,"completions":0,"fault_events":0,"kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":1.0}|}
    );
    (* Absent reads as 0 (pre-federation snapshots); a wrong type is an
       error. *)
    ( "stats",
      {|{"instants":0,"completions":0,"fault_events":0,"endow_events":"x","kills":0,"abandoned":0,"wasted":0,"releases":0,"rounds":0,"starts":0,"heap_pops":0}|}
    );
    ("snapshot", {|{"fairsched_snapshot":1,"last_seq":0,"records":[]}|});
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0},"records":[]}|}
    );
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0},"last_seq":0}|}
    );
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0},"last_seq":0,"records":5}|}
    );
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0},"last_seq":3,"records":[{"rec":"mode","seq":1}]}|}
    );
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":0,"algorithm":"fifo","seed":0},"last_seq":3,"records":[]}|}
    );
    ( "snapshot",
      {|{"fairsched_snapshot":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0},"last_seq":1,"records":[{"rec":"mode","seq":2,"estimator":"ref"}]}|}
    );
    ("snapshot", "{\"fairsched_snapshot\":1,");
    ("header", {|{"fairsched_wal":2,"config":{"machines":[1],"horizon":9,"algorithm":"fifo","seed":0}}|});
    ("header", {|{"fairsched_wal":1}|});
    ("header", "{\"fairsched_wal\":1,\"config\"");
    ("header", {|{"fairsched_wal":1,"config":{"machines":[1],"horizon":9,"algorithm":"fifo"}}|});
  ]

(* --- Encoders and decoders ----------------------------------------------- *)

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

let header_line c =
  let@ dir = Harness.with_tmpdir in
  let w = ok_or_fail "wal create" (W.create ~dir ~config:c ()) in
  W.close w;
  List.hd (String.split_on_char '\n' (read_file (W.wal_path ~dir)))

let snapshot_line s =
  let@ dir = Harness.with_tmpdir in
  ignore (ok_or_fail "write_snapshot" (W.write_snapshot ~dir s));
  strip_newline (read_file (W.snapshot_path ~dir))

(* Recover a state dir holding one file: the corruption reason on a
   refused boot. *)
let recover_one ~file line =
  let@ dir = Harness.with_tmpdir in
  write_file (Filename.concat dir file) (line ^ "\n");
  match W.recover ~dir with
  | Ok r -> Ok r
  | Error (W.Corrupt c) -> Error c.W.c_reason
  | Error e -> Error ("unexpected boot error: " ^ W.boot_error_to_string e)

let decode_snapshot line =
  Result.map
    (fun r ->
      {
        W.config = Option.get r.W.r_config;
        last_seq = r.W.r_last_seq;
        records = r.W.r_records;
      })
    (recover_one ~file:"snapshot.json" line)

let decode_header line =
  Result.map
    (fun r -> Option.get r.W.r_config)
    (recover_one ~file:"wal.ndjson" line)

let of_json_line decode line = Result.bind (Obs.Json.of_string line) decode

let ignore_ok r = Result.map ignore r

let decoder = function
  | "request" -> fun l -> ignore_ok (P.request_of_line l)
  | "response" -> fun l -> ignore_ok (P.response_of_line l)
  | "record" -> fun l -> ignore_ok (of_json_line W.record_of_json l)
  | "config" -> fun l -> ignore_ok (of_json_line Service.Config.of_json l)
  | "stats" -> fun l -> ignore_ok (of_json_line Kernel.Stats.of_json l)
  | "snapshot" -> fun l -> ignore_ok (decode_snapshot l)
  | "header" -> fun l -> ignore_ok (decode_header l)
  | kind -> failwith ("unknown decoder kind " ^ kind)

(* One golden table: named values, their encoder, decoder and equality. *)
type table =
  | Table : {
      file : string;
      values : (string * 'a) list;
      encode : 'a -> string;
      decode : string -> ('a, string) result;
      equal : 'a -> 'a -> bool;
    }
      -> table

let tables =
  [
    Table
      {
        file = "requests.tsv";
        values = requests;
        encode = (fun r -> strip_newline (P.request_to_line r));
        decode = P.request_of_line;
        equal = ( = );
      };
    Table
      {
        file = "responses.tsv";
        values = responses;
        encode = (fun r -> strip_newline (P.response_to_line r));
        decode = P.response_of_line;
        equal = ( = );
      };
    Table
      {
        file = "records.tsv";
        values = records;
        encode = (fun r -> Obs.Json.to_string (W.record_to_json r));
        decode = of_json_line W.record_of_json;
        equal = ( = );
      };
    Table
      {
        file = "configs.tsv";
        values = configs;
        encode = (fun c -> Obs.Json.to_string (Service.Config.to_json c));
        decode = of_json_line Service.Config.of_json;
        equal = ( = );
      };
    Table
      {
        file = "headers.tsv";
        values = configs;
        encode = header_line;
        decode = decode_header;
        (* the header is the durable identity: [workers] is not restored *)
        equal = Service.Config.equal;
      };
    Table
      {
        file = "stats.tsv";
        values = stats_values;
        encode = Kernel.Stats.to_json;
        decode = of_json_line Kernel.Stats.of_json;
        equal = ( = );
      };
    Table
      {
        file = "snapshots.tsv";
        values = snapshots;
        encode = snapshot_line;
        decode = decode_snapshot;
        equal =
          (fun a b ->
            Service.Config.equal a.W.config b.W.config
            && a.W.last_seq = b.W.last_seq && a.W.records = b.W.records);
      };
  ]

(* --- Fixture files --------------------------------------------------------- *)

let tsv_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")
  |> List.map (String.split_on_char '\t')

let write_segment dir =
  let w = ok_or_fail "wal create" (W.create ~dir ~config:segment_config ()) in
  let first, rest = List.partition (fun r -> W.seq_of r <= 4) segment_records in
  List.iter (W.append w) first;
  ok_or_fail "wal sync" (W.sync w);
  ignore
    (ok_or_fail "write_snapshot"
       (W.write_snapshot ~dir { W.config = segment_config; last_seq = 4; records = first }));
  W.close w;
  let w = ok_or_fail "wal create" (W.create ~dir ~config:segment_config ()) in
  List.iter (W.append w) rest;
  ok_or_fail "wal sync" (W.sync w);
  W.close w

let segment_files = [ "wal.ndjson"; "snapshot.json" ]

let regenerate out =
  List.iter
    (fun (Table t) ->
      write_file (Filename.concat out t.file)
        (String.concat ""
           (List.map (fun (name, v) -> name ^ "\t" ^ t.encode v ^ "\n") t.values)))
    tables;
  write_file (Filename.concat out "malformed.tsv")
    (String.concat ""
       (List.map
          (fun (kind, line) ->
            match decoder kind line with
            | Ok () -> failwith ("malformed line accepted: " ^ line)
            | Error e -> String.concat "\t" [ kind; line; e ] ^ "\n")
          malformed));
  let seg = Filename.concat (Filename.concat out "state") "wal-0" in
  (try Unix.mkdir (Filename.dirname seg) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir seg 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write_segment seg

(* --- Checks -------------------------------------------------------------- *)

let check_table (Table t) () =
  let rows = tsv_lines (Filename.concat fixtures t.file) in
  Alcotest.(check (list string))
    "fixture names" (List.map fst t.values)
    (List.map (function name :: _ -> name | [] -> "") rows);
  List.iter2
    (fun (name, v) row ->
      let line = match row with [ _; line ] -> line | _ -> Alcotest.failf "%s: bad row" name in
      Alcotest.(check string) (name ^ " encodes byte-identically") line (t.encode v);
      match t.decode line with
      | Ok v' -> Alcotest.(check bool) (name ^ " decodes equal") true (t.equal v v')
      | Error e -> Alcotest.failf "%s: %s" name e)
    t.values rows

let test_malformed () =
  let rows = tsv_lines (Filename.concat fixtures "malformed.tsv") in
  Alcotest.(check int) "every malformed input is pinned" (List.length malformed)
    (List.length rows);
  List.iter
    (function
      | [ kind; line; expected ] -> (
          match decoder kind line with
          | Ok () -> Alcotest.failf "%s accepted: %s" kind line
          | Error e -> Alcotest.(check string) (kind ^ " " ^ line) expected e)
      | row -> Alcotest.failf "bad malformed row: %s" (String.concat "|" row))
    rows

let copy_dir src dst =
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let test_segment () =
  let golden = Filename.concat (Filename.concat fixtures "state") "wal-0" in
  (* The segment written by today's encoders is byte-identical ... *)
  (let@ dir = Harness.with_tmpdir in
   write_segment dir;
   List.iter
     (fun f ->
       Alcotest.(check string) (f ^ " byte-identical")
         (read_file (Filename.concat golden f))
         (read_file (Filename.concat dir f)))
     segment_files);
  (* ... and the checked-in one recovers to the same records. *)
  let@ state = Harness.with_tmpdir in
  let seg = W.segment_dir ~dir:state ~group:0 in
  Unix.mkdir seg 0o755;
  copy_dir golden seg;
  Alcotest.(check (list int)) "segments" [ 0 ] (W.segments ~dir:state);
  match W.recover ~dir:seg with
  | Error e -> Alcotest.fail (W.boot_error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "config" true
        (Service.Config.equal segment_config (Option.get r.W.r_config));
      Alcotest.(check bool) "records" true (r.W.r_records = segment_records);
      Alcotest.(check int) "last seq" 8 r.W.r_last_seq

(* --- Generated round-trips ------------------------------------------------ *)

module G = QCheck.Gen

let small = G.int_range (-3) 60

(* (cid, cseq): both zero (omitted), one of them zero, or both set. *)
let client =
  G.(frequency
       [
         (2, return (0, 0));
         (1, map (fun c -> (0, c)) small);
         (1, map (fun c -> (c, 0)) small);
         (3, pair small small);
       ])

let trace_id = G.(frequency [ (1, return 0); (1, small) ])
let text = G.(string_size ~gen:char (int_bound 6))
let finite = G.(oneof [ float_range (-1e6) 1e6; oneofl [ 0.; 0.1; 1e300; -2.5e-7 ] ])

let fault_event =
  G.(oneof
       [
         map (fun m -> Faults.Event.Fail m) small;
         map (fun m -> Faults.Event.Recover m) small;
       ])

let endow_event =
  let machines = G.(list_size (int_bound 3) small) in
  G.(oneof
       [
         map2 (fun org machines -> Federation.Event.Join { org; machines }) small machines;
         map (fun org -> Federation.Event.Leave { org }) small;
         map3
           (fun org to_org machines -> Federation.Event.Lend { org; to_org; machines })
           small small machines;
         map2 (fun org machines -> Federation.Event.Reclaim { org; machines }) small machines;
       ])

let request =
  G.(oneof
       [
         (let* org = small and* user = small and* release = small and* size = small in
          let* cid, cseq = client and* trace = trace_id in
          return (P.Submit { org; user; release; size; cid; cseq; trace }));
         (let* time = small and* event = fault_event and* cid, cseq = client in
          let* trace = trace_id in
          return (P.Fault { time; event; cid; cseq; trace }));
         (let* time = small and* event = endow_event and* cid, cseq = client in
          let* trace = trace_id in
          return (P.Endow { time; event; cid; cseq; trace }));
         oneofl [ P.Status; P.Psi; P.Snapshot; P.Metrics ];
         map (fun detail -> P.Drain { detail }) bool;
         map (fun limit -> P.Trace { limit }) (int_range 1 5000);
       ])

let rec json depth =
  let leaf =
    G.(oneof
         [
           return Obs.Json.Null;
           map (fun b -> Obs.Json.Bool b) bool;
           map (fun i -> Obs.Json.Int i) small;
           map (fun f -> Obs.Json.Float f) finite;
           map (fun s -> Obs.Json.String s) text;
         ])
  in
  if depth = 0 then leaf
  else
    G.(frequency
         [
           (3, leaf);
           (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 3) (json (depth - 1))));
           ( 1,
             map (fun m -> Obs.Json.Obj m)
               (list_size (int_bound 3) (pair text (json (depth - 1)))) );
         ])

let stats =
  G.(map
       (fun l ->
         let s = Kernel.Stats.create () in
         (match l with
         | [ a; b; c; d; e; f; g; h; i; j; k ] ->
             s.instants <- a; s.completions <- b; s.fault_events <- c;
             s.endow_events <- d; s.kills <- e; s.abandoned <- f;
             s.wasted <- g; s.releases <- h; s.rounds <- i; s.starts <- j;
             s.heap_pops <- k
         | _ -> assert false);
         s)
       (list_repeat 11 (int_bound 1_000_000)))

let summary =
  G.(let* count = int_bound 1000 and* p50 = finite and* p90 = finite in
     let* p99 = finite and* max = finite in
     return { Obs.Metrics.count; p50; p90; p99; max })

let int_array = G.(array_size (int_bound 4) small)

let response =
  G.(oneof
       [
         (let* seq = small and* org = small and* index = small and* now = small in
          return (P.Submit_ok { seq; org; index; now }));
         map2 (fun seq now -> P.Fault_ok { seq; now }) small small;
         map2 (fun seq now -> P.Endow_ok { seq; now }) small small;
         (let* now = small and* waiting = int_array and* stats = stats in
          let* job_wait = opt summary and* estimator = text and* draining = bool in
          let* groups = oneof [ return 1; int_range 2 8 ] and* ack_ewma_ms = finite in
          return
            (P.Status_ok
               {
                 now; frontier = now + 1; horizon = 100; orgs = 3; machines = 4;
                 accepted = 20; rejected = 2; queue_depth = 1; queue_cap = 1024;
                 draining; waiting; stats; job_wait; estimator;
                 degraded = not draining; shed = 17; ack_ewma_ms; groups;
                 shards = groups; fsyncs = 9;
               }));
         map3
           (fun now psi_scaled parts -> P.Psi_ok { now; psi_scaled; parts })
           small int_array int_array;
         map2 (fun seq path -> P.Snapshot_ok { seq; path }) small text;
         (let* d_now = small and* d_psi_scaled = int_array and* d_parts = int_array in
          let row = tup5 small small small small small in
          let* d_stats = stats and* d_schedule = opt (list_size (int_bound 3) row) in
          return (P.Drain_ok { d_now; d_psi_scaled; d_parts; d_stats; d_schedule }));
         map (fun metrics -> P.Metrics_ok { metrics }) (json 2);
         map3
           (fun events dropped trace -> P.Trace_ok { events; dropped; trace })
           small small (json 2);
         (let* code = oneofl [ P.Parse; P.Bad_request; P.Backpressure; P.Draining; P.Wal_error; P.Unsupported ] in
          let* msg = text and* retry_after_ms = opt small in
          return (P.Error { code; msg; retry_after_ms }));
       ])

let record ~seq =
  G.(oneof
       [
         (let* org = small and* user = small and* release = small and* size = small in
          let* cid, cseq = client in
          return (W.Submit { seq; org; user; release; size; cid; cseq }));
         (let* time = small and* event = fault_event and* cid, cseq = client in
          return (W.Fault { seq; time; event; cid; cseq }));
         (let* time = small and* event = endow_event and* cid, cseq = client in
          return (W.Endow { seq; time; event; cid; cseq }));
         map
           (fun estimator -> W.Mode { seq; estimator })
           (string_size ~gen:printable (int_range 1 8));
       ])

let config =
  G.(let* machines = array_size (int_range 1 4) (int_range 1 3) in
     let orgs = Array.length machines in
     let total = Array.fold_left ( + ) 0 machines in
     let* speeds = opt (array_repeat total (float_range 0.1 4.)) in
     let* groups = int_range 1 orgs and* federated = bool in
     let* max_restarts = opt (int_bound 5) and* workers = opt (int_range 1 4) in
     let* horizon = int_range 1 10_000 and* seed = small in
     let* algorithm = oneofl [ "fifo"; "ref"; "fairshare" ] in
     return
       (config ?speeds ?max_restarts ?workers ~groups ~federated ~machines
          ~horizon ~algorithm ~seed ()))

let snapshot =
  G.(let* config = config and* n = int_bound 5 in
     let* records =
       flatten_l (List.init n (fun i -> record ~seq:((2 * i) + 1)))
     in
     let* gap = int_bound 3 in
     return { W.config; last_seq = (2 * n) + gap; records })

let roundtrip ?(count = 300) name gen print ~encode ~decode ~equal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make ~print gen) (fun v ->
         match decode (encode v) with
         | Ok v' -> equal v v'
         | Error e -> QCheck.Test.fail_reportf "%s" e))

let roundtrips =
  let json_print f v = Obs.Json.to_string (f v) in
  [
    roundtrip "request" request P.request_to_line ~encode:P.request_to_line
      ~decode:P.request_of_line ~equal:( = );
    roundtrip "response" response P.response_to_line ~encode:P.response_to_line
      ~decode:P.response_of_line ~equal:( = );
    roundtrip "wal record" (G.(small >>= fun seq -> record ~seq))
      (json_print W.record_to_json)
      ~encode:(json_print W.record_to_json)
      ~decode:(of_json_line W.record_of_json) ~equal:( = );
    roundtrip "config" config
      (json_print Service.Config.to_json)
      ~encode:(json_print Service.Config.to_json)
      ~decode:(of_json_line Service.Config.of_json) ~equal:( = );
    roundtrip "stats" stats Kernel.Stats.to_json ~encode:Kernel.Stats.to_json
      ~decode:(of_json_line Kernel.Stats.of_json) ~equal:( = );
    roundtrip ~count:60 "snapshot" snapshot snapshot_line ~encode:snapshot_line
      ~decode:decode_snapshot
      ~equal:(fun a b ->
        a.W.config = b.W.config && a.W.last_seq = b.W.last_seq
        && a.W.records = b.W.records);
  ]

let () =
  match Sys.argv with
  | [| _; "capture"; out |] -> regenerate out
  | _ ->
      Alcotest.run "wire"
        [
          ( "golden",
            List.map
              (fun (Table t as table) ->
                Alcotest.test_case (Filename.remove_extension t.file) `Quick
                  (check_table table))
              tables
            @ [
                Alcotest.test_case "malformed" `Quick test_malformed;
                Alcotest.test_case "wal-0 segment" `Quick test_segment;
              ] );
          ("roundtrip", roundtrips);
        ]
