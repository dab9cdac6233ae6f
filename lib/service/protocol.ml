let wire_limits = { Obs.Json.max_depth = 32; max_bytes = 1 lsl 20 }
let max_line = wire_limits.Obs.Json.max_bytes

type request =
  | Submit of {
      org : int;
      user : int;
      release : int;
      size : int;
      cid : int;
      cseq : int;
      trace : int;
    }
  | Fault of {
      time : int;
      event : Faults.Event.t;
      cid : int;
      cseq : int;
      trace : int;
    }
  | Endow of {
      time : int;
      event : Federation.Event.t;
      cid : int;
      cseq : int;
      trace : int;
    }
  | Status
  | Psi
  | Snapshot
  | Drain of { detail : bool }
  | Metrics
  | Trace of { limit : int }

let default_trace_limit = 3000

let stamp = function
  | Submit { cid; cseq; trace; _ }
  | Fault { cid; cseq; trace; _ }
  | Endow { cid; cseq; trace; _ } ->
      Some (cid, cseq, trace)
  | Status | Psi | Snapshot | Drain _ | Metrics | Trace _ -> None

let with_stamp ~cid ~cseq ~trace = function
  | Submit s -> Submit { s with cid; cseq; trace }
  | Fault f -> Fault { f with cid; cseq; trace }
  | Endow e -> Endow { e with cid; cseq; trace }
  | (Status | Psi | Snapshot | Drain _ | Metrics | Trace _) as req -> req

type status = {
  now : int;
  frontier : int;
  horizon : int;
  orgs : int;
  machines : int;
  accepted : int;
  rejected : int;
  queue_depth : int;
  queue_cap : int;
  draining : bool;
  waiting : int array;
  stats : Kernel.Stats.t;
  job_wait : Obs.Metrics.summary option;
  estimator : string;
  degraded : bool;
  shed : int;
  ack_ewma_ms : float;
  groups : int;
  shards : int;
  fsyncs : int;
}

type drain_report = {
  d_now : int;
  d_psi_scaled : int array;
  d_parts : int array;
  d_stats : Kernel.Stats.t;
  d_schedule : (int * int * int * int * int) list option;
}

type error_code =
  | Parse
  | Bad_request
  | Backpressure
  | Draining
  | Wal_error
  | Unsupported

type response =
  | Submit_ok of { seq : int; org : int; index : int; now : int }
  | Fault_ok of { seq : int; now : int }
  | Endow_ok of { seq : int; now : int }
  | Status_ok of status
  | Psi_ok of { now : int; psi_scaled : int array; parts : int array }
  | Snapshot_ok of { seq : int; path : string }
  | Drain_ok of drain_report
  | Metrics_ok of { metrics : Obs.Json.t }
  | Trace_ok of { events : int; dropped : int; trace : Obs.Json.t }
  | Error of { code : error_code; msg : string; retry_after_ms : int option }

let error_codes =
  [
    ("parse", Parse);
    ("bad-request", Bad_request);
    ("backpressure", Backpressure);
    ("draining", Draining);
    ("wal-error", Wal_error);
    ("unsupported", Unsupported);
  ]

let error_code_to_string code =
  fst (List.find (fun (_, c) -> c = code) error_codes)

(* --- Codecs ------------------------------------------------------------- *)

open Obs.Json.Codec

let unknown what name = Failed (Printf.sprintf "unknown %s %S" what name)

(* Omitted while both are zero, so clients that do not opt into idempotent
   retransmission produce the same bytes as before the fields existed. *)
let client =
  flat ~omit:(0, 0)
    (obj
       [ dft "cid" int 0; dft "cseq" int 0 ]
       (fun [ cid; cseq ] -> (cid, cseq))
       (fun (cid, cseq) -> [ cid; cseq ]))

(* Same omitted-when-zero discipline as [client]. *)
let trace = dft ~omit:true "trace" int 0

let fault_event ?(kind = string) ?(unknown = unknown "fault kind") () =
  variant ~unknown "kind" kind
    [
      case "fail" [ req "machine" int ]
        (fun [ m ] -> Faults.Event.Fail m)
        (function Faults.Event.Fail m -> Some [ m ] | _ -> None);
      case "recover" [ req "machine" int ]
        (fun [ m ] -> Faults.Event.Recover m)
        (function Faults.Event.Recover m -> Some [ m ] | _ -> None);
    ]

(* The machine list is omitted when empty: a readmit-all [Join] has none.
   The style is pinned so the WAL's [Endow] records report the same
   errors as the socket. *)
let endow_event =
  let machine_list =
    let e = Expected "a list of integers" in
    dft ~omit:true "machines" (list ~not_list:e (fails_as e int)) []
  in
  let open Federation.Event in
  variant ~style:(field_style "") ~unknown:(unknown "endow kind") "kind" string
    [
      case "join"
        [ req "org" int; machine_list ]
        (fun [ org; machines ] -> Join { org; machines })
        (function Join { org; machines } -> Some [ org; machines ] | _ -> None);
      case "leave" [ req "org" int ]
        (fun [ org ] -> Leave { org })
        (function Leave { org } -> Some [ org ] | _ -> None);
      case "lend"
        [ req "org" int; req "to_org" int; machine_list ]
        (fun [ org; to_org; machines ] -> Lend { org; to_org; machines })
        (function
          | Lend { org; to_org; machines } -> Some [ org; to_org; machines ]
          | _ -> None);
      case "reclaim"
        [ req "org" int; machine_list ]
        (fun [ org; machines ] -> Reclaim { org; machines })
        (function
          | Reclaim { org; machines } -> Some [ org; machines ] | _ -> None);
    ]

let request =
  variant ~unknown:(unknown "op") "op" string
    [
      case "submit"
        [
          req "org" int;
          dft "user" int 0;
          req "release" int;
          req "size" int;
          client;
          trace;
        ]
        (fun [ org; user; release; size; (cid, cseq); trace ] ->
          Submit { org; user; release; size; cid; cseq; trace })
        (function
          | Submit { org; user; release; size; cid; cseq; trace } ->
              Some [ org; user; release; size; (cid, cseq); trace ]
          | _ -> None);
      case "fault"
        [ req "time" int; flat (fault_event ()); client; trace ]
        (fun [ time; event; (cid, cseq); trace ] ->
          Fault { time; event; cid; cseq; trace })
        (function
          | Fault { time; event; cid; cseq; trace } ->
              Some [ time; event; (cid, cseq); trace ]
          | _ -> None);
      case "endow"
        [ req "time" int; flat endow_event; client; trace ]
        (fun [ time; event; (cid, cseq); trace ] ->
          Endow { time; event; cid; cseq; trace })
        (function
          | Endow { time; event; cid; cseq; trace } ->
              Some [ time; event; (cid, cseq); trace ]
          | _ -> None);
      case "status" []
        (fun _ -> Status)
        (function Status -> Some [] | _ -> None);
      case "psi" []
        (fun _ -> Psi)
        (function Psi -> Some [] | _ -> None);
      case "snapshot" []
        (fun _ -> Snapshot)
        (function Snapshot -> Some [] | _ -> None);
      case "drain"
        [ dft "detail" bool false ]
        (fun [ detail ] -> Drain { detail })
        (function Drain { detail } -> Some [ detail ] | _ -> None);
      case "metrics" []
        (fun _ -> Metrics)
        (function Metrics -> Some [] | _ -> None);
      case "trace"
        [
          dft "limit"
            (check (fun l -> l >= 1) (Expected ">= 1") int)
            default_trace_limit;
        ]
        (fun [ limit ] -> Trace { limit })
        (function Trace { limit } -> Some [ limit ] | _ -> None);
    ]

let stats = value Kernel.Stats.codec

(* The optional fields default so replies of older daemons still parse;
   [job_wait], present only with server metrics on, goes last. *)
let status =
  obj
    [
      req "now" int;
      req "frontier" int;
      req "horizon" int;
      req "orgs" int;
      req "machines" int;
      req "accepted" int;
      req "rejected" int;
      req "queue_depth" int;
      req "queue_cap" int;
      dft "draining" bool false;
      req "waiting" int_array;
      req "stats" stats;
      dft "estimator" string "";
      dft "degraded" bool false;
      dft "shed" int 0;
      dft "ack_ewma_ms" number 0.0;
      dft "groups" int 1;
      dft "shards" int 1;
      dft "fsyncs" int 0;
      opt "job_wait" (value Obs.Metrics.summary_codec);
    ]
    (fun [ now; frontier; horizon; orgs; machines; accepted; rejected;
           queue_depth; queue_cap; draining; waiting; stats; estimator;
           degraded; shed; ack_ewma_ms; groups; shards; fsyncs; job_wait ] ->
      {
        now;
        frontier;
        horizon;
        orgs;
        machines;
        accepted;
        rejected;
        queue_depth;
        queue_cap;
        draining;
        waiting;
        stats;
        job_wait;
        estimator;
        degraded;
        shed;
        ack_ewma_ms;
        groups;
        shards;
        fsyncs;
      })
    (fun s ->
      [
        s.now;
        s.frontier;
        s.horizon;
        s.orgs;
        s.machines;
        s.accepted;
        s.rejected;
        s.queue_depth;
        s.queue_cap;
        s.draining;
        s.waiting;
        s.stats;
        s.estimator;
        s.degraded;
        s.shed;
        s.ack_ewma_ms;
        s.groups;
        s.shards;
        s.fsyncs;
        s.job_wait;
      ])

let schedule_row =
  obj
    [
      req "org" int;
      req "index" int;
      req "start" int;
      req "machine" int;
      req "duration" int;
    ]
    (fun [ org; index; start; machine; duration ] ->
      (org, index, start, machine, duration))
    (fun (org, index, start, machine, duration) ->
      [ org; index; start; machine; duration ])

let drain =
  obj
    [
      req "now" int;
      req "psi_scaled" int_array;
      req "parts" int_array;
      req "stats" stats;
      opt "schedule" (list (value schedule_row));
    ]
    (fun [ d_now; d_psi_scaled; d_parts; d_stats; d_schedule ] ->
      { d_now; d_psi_scaled; d_parts; d_stats; d_schedule })
    (fun r -> [ r.d_now; r.d_psi_scaled; r.d_parts; r.d_stats; r.d_schedule ])

let ok_response =
  variant ~unknown:(unknown "response op") "op" string
    [
      case "submit"
        [ req "seq" int; req "org" int; req "index" int; req "now" int ]
        (fun [ seq; org; index; now ] -> Submit_ok { seq; org; index; now })
        (function
          | Submit_ok { seq; org; index; now } -> Some [ seq; org; index; now ]
          | _ -> None);
      case "fault"
        [ req "seq" int; req "now" int ]
        (fun [ seq; now ] -> Fault_ok { seq; now })
        (function Fault_ok { seq; now } -> Some [ seq; now ] | _ -> None);
      case "endow"
        [ req "seq" int; req "now" int ]
        (fun [ seq; now ] -> Endow_ok { seq; now })
        (function Endow_ok { seq; now } -> Some [ seq; now ] | _ -> None);
      case "status" [ flat status ]
        (fun [ s ] -> Status_ok s)
        (function Status_ok s -> Some [ s ] | _ -> None);
      case "psi"
        [ req "now" int; req "psi_scaled" int_array; req "parts" int_array ]
        (fun [ now; psi_scaled; parts ] -> Psi_ok { now; psi_scaled; parts })
        (function
          | Psi_ok { now; psi_scaled; parts } -> Some [ now; psi_scaled; parts ]
          | _ -> None);
      case "snapshot"
        [ req "seq" int; req "path" string ]
        (fun [ seq; path ] -> Snapshot_ok { seq; path })
        (function Snapshot_ok { seq; path } -> Some [ seq; path ] | _ -> None);
      case "drain" [ flat drain ]
        (fun [ r ] -> Drain_ok r)
        (function Drain_ok r -> Some [ r ] | _ -> None);
      case "metrics" [ req "metrics" any ]
        (fun [ metrics ] -> Metrics_ok { metrics })
        (function Metrics_ok { metrics } -> Some [ metrics ] | _ -> None);
      case "trace"
        [ req "events" int; dft "dropped" int 0; req "trace" any ]
        (fun [ events; dropped; trace ] -> Trace_ok { events; dropped; trace })
        (function
          | Trace_ok { events; dropped; trace } ->
              Some [ events; dropped; trace ]
          | _ -> None);
    ]

(* Errors carry no op: ["ok"] alone tells them apart. *)
let response =
  let ok_flag = Says "missing or not a boolean" in
  variant "ok" (fails_as ok_flag bool)
    [
      case true [ flat ok_response ] (fun [ r ] -> r) (function
        | Error _ -> None
        | r -> Some [ r ]);
      case false
        [
          req "code" (enum ~unknown:(unknown "error code") error_codes);
          req "msg" string;
          opt "retry_after_ms" int;
        ]
        (fun [ code; msg; retry_after_ms ] ->
          Error { code; msg; retry_after_ms })
        (function
          | Error { code; msg; retry_after_ms } ->
              Some [ code; msg; retry_after_ms ]
          | _ -> None);
    ]

(* --- Lines -------------------------------------------------------------- *)

let to_line codec v = Obs.Json.to_string (encode codec v) ^ "\n"

let of_line codec line =
  match Obs.Json.parse ~limits:wire_limits line with
  | Result.Error e -> Result.Error (Obs.Json.error_to_string e)
  | Ok j -> decode codec j

let request_to_line r = to_line request r
let request_of_line s = of_line request s
let response_to_line r = to_line response r
let response_of_line s = of_line response s
