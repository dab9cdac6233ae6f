(** The daemon's wire protocol: newline-delimited JSON, one request object
    per line, one response object per line, answered in order per
    connection.

    Requests carry an ["op"] discriminator; responses carry ["ok"]
    (boolean) and echo the op.  The full grammar is documented in
    DESIGN.md §12.  Both sides parse with {!Obs.Json.parse} under
    {!wire_limits}: socket bytes are untrusted, so depth and size are
    bounded and a malformed line yields an [Error {code = Parse; _}]
    response rather than a dead connection. *)

val wire_limits : Obs.Json.limits
(** 32 nesting levels, 1 MiB per line. *)

val max_line : int
(** Byte bound on one request line ([wire_limits.max_bytes]). *)

type request =
  | Submit of {
      org : int;
      user : int;
      release : int;
      size : int;
      cid : int;
          (** client identity for at-most-once retransmission; [0] opts
              out (no dedupe).  Omitted from the wire when 0. *)
      cseq : int;
          (** client-chosen sequence under [cid]; the server remembers
              the last applied [cseq] per [cid] and answers a replayed
              one with the cached ack instead of double-applying *)
      trace : int;
          (** client-issued trace id for cross-shard correlation: echoed
              into the router's and the owning shard's {!Obs.Trace} spans
              so one request can be followed through the merged Chrome
              trace.  [0] opts out and is omitted from the wire. *)
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
      (** an endowment event (consortium join/leave, machine lend/reclaim)
          fed to a federated daemon; on the wire: ["kind"]
          join|leave|lend|reclaim, ["org"], optional ["to_org"] (lend) and
          ["machines"] (omitted when empty — a readmit-all join) *)
  | Status
  | Psi
  | Snapshot  (** force a snapshot + WAL compaction now *)
  | Drain of { detail : bool }
      (** run to horizon and shut down; [detail] adds the full schedule *)
  | Metrics
      (** live scrape: the merged cross-domain {!Obs.Metrics.snapshot}
          of the running daemon, as JSON — no restart, no file *)
  | Trace of { limit : int }
      (** live scrape of the daemon's merged {!Obs.Trace} buffers as one
          Chrome trace document; [limit] bounds the event count so the
          response stays inside {!max_line} *)

val default_trace_limit : int
(** Event cap a [{"op":"trace"}] request gets when it names none (3000 —
    comfortably under {!max_line} once serialized). *)

val stamp : request -> (int * int * int) option
(** [(cid, cseq, trace)] of a feed request ([Submit]/[Fault]/[Endow]);
    [None] for control requests, which are never routed to a shard. *)

val with_stamp : cid:int -> cseq:int -> trace:int -> request -> request
(** Replace a feed request's stamp; control requests pass unchanged. *)

type status = {
  now : int;
  frontier : int;
  horizon : int;
  orgs : int;
  machines : int;
  accepted : int;  (** submissions + faults admitted since daemon start *)
  rejected : int;
  queue_depth : int;  (** admission queue occupancy *)
  queue_cap : int;
  draining : bool;
  waiting : int array;  (** released-unstarted jobs per organization *)
  stats : Kernel.Stats.t;
  job_wait : Obs.Metrics.summary option;
      (** submit-to-start latency histogram, when server metrics are on *)
  estimator : string;  (** live estimator spec (e.g. ["ref"], ["rand:0.1,0.95"]) *)
  degraded : bool;  (** true while overload has switched the estimator *)
  shed : int;  (** feed requests shed by overload protection since boot *)
  ack_ewma_ms : float;  (** smoothed submit-to-ack latency (worst shard) *)
  groups : int;  (** org-group partition size (1 = unsharded) *)
  shards : int;  (** worker domains executing the groups *)
  fsyncs : int;
      (** WAL fsyncs since boot, summed over segments; under group-commit
          this stays well below [accepted] (one fsync acks a batch) *)
}

type drain_report = {
  d_now : int;
  d_psi_scaled : int array;
  d_parts : int array;
  d_stats : Kernel.Stats.t;
  d_schedule : (int * int * int * int * int) list option;
      (** (org, index, start, machine, duration) rows, oldest first *)
}

type error_code =
  | Parse  (** malformed request line *)
  | Bad_request  (** admission rejected (org/size/release/machine/time) *)
  | Backpressure  (** admission queue full — retry later *)
  | Draining  (** daemon is shutting down; no further feeding *)
  | Wal_error  (** durability failure; the submission was NOT accepted *)
  | Unsupported  (** unknown op *)

type response =
  | Submit_ok of { seq : int; org : int; index : int; now : int }
  | Fault_ok of { seq : int; now : int }
  | Endow_ok of { seq : int; now : int }
  | Status_ok of status
  | Psi_ok of { now : int; psi_scaled : int array; parts : int array }
  | Snapshot_ok of { seq : int; path : string }
  | Drain_ok of drain_report
  | Metrics_ok of { metrics : Obs.Json.t }
      (** the merged registry dump ({!Obs.Metrics.to_json} shape: counter
          name to int, gauge to float, histogram to summary object) *)
  | Trace_ok of { events : int; dropped : int; trace : Obs.Json.t }
      (** [trace] is a complete Chrome trace document ([{"traceEvents":
          [...]}]) that {!Obs.Trace.validate} accepts; [dropped] counts
          ring-buffer evictions since tracing started *)
  | Error of { code : error_code; msg : string; retry_after_ms : int option }
      (** [retry_after_ms] is a server hint on [Backpressure]: how long a
          well-behaved client should wait before retrying *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

(** {2 Endowment-event wire encoding}

    Shared by the [endow] request and the WAL's [Endow] record so the
    socket and the log cannot drift. *)

val endow_event_fields : Federation.Event.t -> (string * Obs.Json.t) list
val endow_event_of_json : Obs.Json.t -> (Federation.Event.t, string) result

(** {2 Requests} *)

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result
val request_to_line : request -> string
(** One compact JSON document, newline-terminated. *)

val request_of_line : string -> (request, string) result
(** Parse one line (without requiring the trailing newline) under
    {!wire_limits}. *)

(** {2 Responses} *)

val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> (response, string) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
