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

let error_code_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad-request"
  | Backpressure -> "backpressure"
  | Draining -> "draining"
  | Wal_error -> "wal-error"
  | Unsupported -> "unsupported"

let error_code_of_string = function
  | "parse" -> Some Parse
  | "bad-request" -> Some Bad_request
  | "backpressure" -> Some Backpressure
  | "draining" -> Some Draining
  | "wal-error" -> Some Wal_error
  | "unsupported" -> Some Unsupported
  | _ -> None

(* --- JSON helpers ------------------------------------------------------ *)

open Obs.Json

let ( let* ) = Result.bind

let int_field j name =
  match member j name with
  | Some (Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Error (Printf.sprintf "field %S missing" name)

let opt_int_field j name ~default =
  match member j name with
  | None -> Ok default
  | Some (Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let bool_field j name ~default =
  match member j name with
  | None -> Ok default
  | Some (Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let string_field j name =
  match member j name with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "field %S missing" name)

let int_array_json a = List (Array.to_list (Array.map (fun v -> Int v) a))

let int_array_field j name =
  match member j name with
  | Some (List items) ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Int v :: rest -> go (v :: acc) rest
        | _ -> Error (Printf.sprintf "field %S must be a list of integers" name)
      in
      go [] items
  | Some _ | None ->
      Error (Printf.sprintf "field %S missing or not a list" name)

let float_field j name =
  match member j name with
  | Some v -> (
      match get_number v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S must be numeric" name))
  | None -> Error (Printf.sprintf "field %S missing" name)

(* One wire encoding for endowment events, shared by the [endow] request
   and the WAL's [Endow] record so the log and the socket cannot drift:
   kind join|leave|lend|reclaim, acting org, optional borrower, machine
   list omitted when empty (a readmit-all [Join] has no list). *)
let endow_event_fields event =
  let machines_field = function
    | [] -> []
    | ms -> [ ("machines", List (List.map (fun m -> Int m) ms)) ]
  in
  match event with
  | Federation.Event.Join { org; machines } ->
      (("kind", String "join") :: ("org", Int org) :: machines_field machines)
  | Federation.Event.Leave { org } ->
      [ ("kind", String "leave"); ("org", Int org) ]
  | Federation.Event.Lend { org; to_org; machines } ->
      ("kind", String "lend") :: ("org", Int org) :: ("to_org", Int to_org)
      :: machines_field machines
  | Federation.Event.Reclaim { org; machines } ->
      ("kind", String "reclaim") :: ("org", Int org)
      :: machines_field machines

let machine_list_field j =
  match member j "machines" with
  | None -> Ok []
  | Some (List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Int m :: rest -> go (m :: acc) rest
        | _ -> Error "field \"machines\" must be a list of integers"
      in
      go [] items
  | Some _ -> Error "field \"machines\" must be a list of integers"

let endow_event_of_json j =
  let* kind = string_field j "kind" in
  let* org = int_field j "org" in
  match kind with
  | "join" ->
      let* machines = machine_list_field j in
      Ok (Federation.Event.Join { org; machines })
  | "leave" -> Ok (Federation.Event.Leave { org })
  | "lend" ->
      let* to_org = int_field j "to_org" in
      let* machines = machine_list_field j in
      Ok (Federation.Event.Lend { org; to_org; machines })
  | "reclaim" ->
      let* machines = machine_list_field j in
      Ok (Federation.Event.Reclaim { org; machines })
  | k -> Error (Printf.sprintf "unknown endow kind %S" k)

let summary_json (s : Obs.Metrics.summary) =
  Obj
    [
      ("count", Int s.Obs.Metrics.count);
      ("p50", Float s.Obs.Metrics.p50);
      ("p90", Float s.Obs.Metrics.p90);
      ("p99", Float s.Obs.Metrics.p99);
      ("max", Float s.Obs.Metrics.max);
    ]

let summary_of_json j =
  let* count = int_field j "count" in
  let* p50 = float_field j "p50" in
  let* p90 = float_field j "p90" in
  let* p99 = float_field j "p99" in
  let* max = float_field j "max" in
  Ok { Obs.Metrics.count; p50; p90; p99; max }

(* --- Requests ----------------------------------------------------------- *)

(* Omitted when zero, so clients that do not opt into idempotent
   retransmission produce the same bytes as before the fields existed. *)
let client_fields cid cseq =
  if cid = 0 && cseq = 0 then []
  else [ ("cid", Int cid); ("cseq", Int cseq) ]

(* Same omitted-when-zero discipline as [client_fields]: requests without
   a trace id produce the same bytes as before the field existed. *)
let trace_field trace = if trace = 0 then [] else [ ("trace", Int trace) ]

let request_to_json = function
  | Submit { org; user; release; size; cid; cseq; trace } ->
      Obj
        ([
           ("op", String "submit");
           ("org", Int org);
           ("user", Int user);
           ("release", Int release);
           ("size", Int size);
         ]
        @ client_fields cid cseq @ trace_field trace)
  | Fault { time; event; cid; cseq; trace } ->
      let kind, machine =
        match event with
        | Faults.Event.Fail m -> ("fail", m)
        | Faults.Event.Recover m -> ("recover", m)
      in
      Obj
        ([
           ("op", String "fault");
           ("time", Int time);
           ("kind", String kind);
           ("machine", Int machine);
         ]
        @ client_fields cid cseq @ trace_field trace)
  | Endow { time; event; cid; cseq; trace } ->
      Obj
        ((("op", String "endow") :: ("time", Int time)
         :: endow_event_fields event)
        @ client_fields cid cseq @ trace_field trace)
  | Status -> Obj [ ("op", String "status") ]
  | Psi -> Obj [ ("op", String "psi") ]
  | Snapshot -> Obj [ ("op", String "snapshot") ]
  | Drain { detail } ->
      Obj [ ("op", String "drain"); ("detail", Bool detail) ]
  | Metrics -> Obj [ ("op", String "metrics") ]
  | Trace { limit } ->
      Obj [ ("op", String "trace"); ("limit", Int limit) ]

let request_of_json j =
  let* op = string_field j "op" in
  match op with
  | "submit" ->
      let* org = int_field j "org" in
      let* user = opt_int_field j "user" ~default:0 in
      let* release = int_field j "release" in
      let* size = int_field j "size" in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      let* trace = opt_int_field j "trace" ~default:0 in
      Ok (Submit { org; user; release; size; cid; cseq; trace })
  | "fault" ->
      let* time = int_field j "time" in
      let* kind = string_field j "kind" in
      let* machine = int_field j "machine" in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      let* trace = opt_int_field j "trace" ~default:0 in
      let* event =
        match kind with
        | "fail" -> Ok (Faults.Event.Fail machine)
        | "recover" -> Ok (Faults.Event.Recover machine)
        | k -> Error (Printf.sprintf "unknown fault kind %S" k)
      in
      Ok (Fault { time; event; cid; cseq; trace })
  | "endow" ->
      let* time = int_field j "time" in
      let* event = endow_event_of_json j in
      let* cid = opt_int_field j "cid" ~default:0 in
      let* cseq = opt_int_field j "cseq" ~default:0 in
      let* trace = opt_int_field j "trace" ~default:0 in
      Ok (Endow { time; event; cid; cseq; trace })
  | "status" -> Ok Status
  | "psi" -> Ok Psi
  | "snapshot" -> Ok Snapshot
  | "drain" ->
      let* detail = bool_field j "detail" ~default:false in
      Ok (Drain { detail })
  | "metrics" -> Ok Metrics
  | "trace" ->
      let* limit = opt_int_field j "limit" ~default:default_trace_limit in
      if limit < 1 then Error "field \"limit\" must be >= 1"
      else Ok (Trace { limit })
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* --- Responses ---------------------------------------------------------- *)

let status_json s =
  let fields =
    [
      ("ok", Bool true);
      ("op", String "status");
      ("now", Int s.now);
      ("frontier", Int s.frontier);
      ("horizon", Int s.horizon);
      ("orgs", Int s.orgs);
      ("machines", Int s.machines);
      ("accepted", Int s.accepted);
      ("rejected", Int s.rejected);
      ("queue_depth", Int s.queue_depth);
      ("queue_cap", Int s.queue_cap);
      ("draining", Bool s.draining);
      ("waiting", int_array_json s.waiting);
      ("stats", Kernel.Stats.json s.stats);
      ("estimator", String s.estimator);
      ("degraded", Bool s.degraded);
      ("shed", Int s.shed);
      ("ack_ewma_ms", Float s.ack_ewma_ms);
      ("groups", Int s.groups);
      ("shards", Int s.shards);
      ("fsyncs", Int s.fsyncs);
    ]
  in
  let fields =
    match s.job_wait with
    | None -> fields
    | Some sum -> fields @ [ ("job_wait", summary_json sum) ]
  in
  Obj fields

let status_of_json j =
  let* now = int_field j "now" in
  let* frontier = int_field j "frontier" in
  let* horizon = int_field j "horizon" in
  let* orgs = int_field j "orgs" in
  let* machines = int_field j "machines" in
  let* accepted = int_field j "accepted" in
  let* rejected = int_field j "rejected" in
  let* queue_depth = int_field j "queue_depth" in
  let* queue_cap = int_field j "queue_cap" in
  let* draining = bool_field j "draining" ~default:false in
  let* waiting = int_array_field j "waiting" in
  let* stats =
    match member j "stats" with
    | Some sj -> Kernel.Stats.of_json sj
    | None -> Error "field \"stats\" missing"
  in
  let* job_wait =
    match member j "job_wait" with
    | None -> Ok None
    | Some sj -> Result.map Option.some (summary_of_json sj)
  in
  let* estimator =
    match member j "estimator" with
    | None -> Ok ""
    | Some (String s) -> Ok s
    | Some _ -> Error "field \"estimator\" must be a string"
  in
  let* degraded = bool_field j "degraded" ~default:false in
  let* shed = opt_int_field j "shed" ~default:0 in
  let* ack_ewma_ms =
    match member j "ack_ewma_ms" with
    | None -> Ok 0.0
    | Some v -> (
        match get_number v with
        | Some f -> Ok f
        | None -> Error "field \"ack_ewma_ms\" must be numeric")
  in
  (* defaults keep pre-sharding daemons parseable *)
  let* groups = opt_int_field j "groups" ~default:1 in
  let* shards = opt_int_field j "shards" ~default:1 in
  let* fsyncs = opt_int_field j "fsyncs" ~default:0 in
  Ok
    (Status_ok
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

let schedule_rows_json rows =
  List
    (List.map
       (fun (org, index, start, machine, duration) ->
         Obj
           [
             ("org", Int org);
             ("index", Int index);
             ("start", Int start);
             ("machine", Int machine);
             ("duration", Int duration);
           ])
       rows)

let schedule_rows_of_json j =
  match j with
  | List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | row :: rest ->
            let* org = int_field row "org" in
            let* index = int_field row "index" in
            let* start = int_field row "start" in
            let* machine = int_field row "machine" in
            let* duration = int_field row "duration" in
            go ((org, index, start, machine, duration) :: acc) rest
      in
      go [] items
  | _ -> Error "field \"schedule\" must be a list"

let drain_json r =
  let fields =
    [
      ("ok", Bool true);
      ("op", String "drain");
      ("now", Int r.d_now);
      ("psi_scaled", int_array_json r.d_psi_scaled);
      ("parts", int_array_json r.d_parts);
      ("stats", Kernel.Stats.json r.d_stats);
    ]
  in
  let fields =
    match r.d_schedule with
    | None -> fields
    | Some rows -> fields @ [ ("schedule", schedule_rows_json rows) ]
  in
  Obj fields

let drain_of_json j =
  let* d_now = int_field j "now" in
  let* d_psi_scaled = int_array_field j "psi_scaled" in
  let* d_parts = int_array_field j "parts" in
  let* d_stats =
    match member j "stats" with
    | Some sj -> Kernel.Stats.of_json sj
    | None -> Error "field \"stats\" missing"
  in
  let* d_schedule =
    match member j "schedule" with
    | None -> Ok None
    | Some sj -> Result.map Option.some (schedule_rows_of_json sj)
  in
  Ok (Drain_ok { d_now; d_psi_scaled; d_parts; d_stats; d_schedule })

let response_to_json = function
  | Submit_ok { seq; org; index; now } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "submit");
          ("seq", Int seq);
          ("org", Int org);
          ("index", Int index);
          ("now", Int now);
        ]
  | Fault_ok { seq; now } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "fault");
          ("seq", Int seq);
          ("now", Int now);
        ]
  | Endow_ok { seq; now } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "endow");
          ("seq", Int seq);
          ("now", Int now);
        ]
  | Status_ok s -> status_json s
  | Psi_ok { now; psi_scaled; parts } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "psi");
          ("now", Int now);
          ("psi_scaled", int_array_json psi_scaled);
          ("parts", int_array_json parts);
        ]
  | Snapshot_ok { seq; path } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "snapshot");
          ("seq", Int seq);
          ("path", String path);
        ]
  | Drain_ok r -> drain_json r
  | Metrics_ok { metrics } ->
      Obj [ ("ok", Bool true); ("op", String "metrics"); ("metrics", metrics) ]
  | Trace_ok { events; dropped; trace } ->
      Obj
        [
          ("ok", Bool true);
          ("op", String "trace");
          ("events", Int events);
          ("dropped", Int dropped);
          ("trace", trace);
        ]
  | Error { code; msg; retry_after_ms } ->
      Obj
        ([
           ("ok", Bool false);
           ("code", String (error_code_to_string code));
           ("msg", String msg);
         ]
        @
        match retry_after_ms with
        | None -> []
        | Some ms -> [ ("retry_after_ms", Int ms) ])

let response_of_json j =
  let* ok =
    match member j "ok" with
    | Some (Bool b) -> Ok b
    | Some _ | None -> Error "field \"ok\" missing or not a boolean"
  in
  if not ok then
    let* code_s = string_field j "code" in
    let* msg = string_field j "msg" in
    let* retry_after_ms =
      match member j "retry_after_ms" with
      | None -> Ok None
      | Some (Int ms) -> Ok (Some ms)
      | Some _ -> Error "field \"retry_after_ms\" must be an integer"
    in
    match error_code_of_string code_s with
    | Some code -> Ok (Error { code; msg; retry_after_ms })
    | None -> Result.Error (Printf.sprintf "unknown error code %S" code_s)
  else
    let* op = string_field j "op" in
    match op with
    | "submit" ->
        let* seq = int_field j "seq" in
        let* org = int_field j "org" in
        let* index = int_field j "index" in
        let* now = int_field j "now" in
        Ok (Submit_ok { seq; org; index; now })
    | "fault" ->
        let* seq = int_field j "seq" in
        let* now = int_field j "now" in
        Ok (Fault_ok { seq; now })
    | "endow" ->
        let* seq = int_field j "seq" in
        let* now = int_field j "now" in
        Ok (Endow_ok { seq; now })
    | "status" -> status_of_json j
    | "psi" ->
        let* now = int_field j "now" in
        let* psi_scaled = int_array_field j "psi_scaled" in
        let* parts = int_array_field j "parts" in
        Ok (Psi_ok { now; psi_scaled; parts })
    | "snapshot" ->
        let* seq = int_field j "seq" in
        let* path = string_field j "path" in
        Ok (Snapshot_ok { seq; path })
    | "drain" -> drain_of_json j
    | "metrics" -> (
        match member j "metrics" with
        | Some metrics -> Ok (Metrics_ok { metrics })
        | None -> Error "field \"metrics\" missing")
    | "trace" -> (
        let* events = int_field j "events" in
        let* dropped = opt_int_field j "dropped" ~default:0 in
        match member j "trace" with
        | Some trace -> Ok (Trace_ok { events; dropped; trace })
        | None -> Error "field \"trace\" missing")
    | op -> Error (Printf.sprintf "unknown response op %S" op)

(* --- Lines -------------------------------------------------------------- *)

let to_line json = to_string json ^ "\n"

let of_line of_json line =
  match parse ~limits:wire_limits line with
  | Result.Error e -> Result.Error (error_to_string e)
  | Ok j -> of_json j

let request_to_line r = to_line (request_to_json r)
let request_of_line s = of_line request_of_json s
let response_to_line r = to_line (response_to_json r)
let response_of_line s = of_line response_of_json s
