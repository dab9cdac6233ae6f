(** Load generator: stream a synthetic trace at a daemon over the socket
    and measure what comes back.

    Jobs come from {!Workload.Scenario.submission_stream}, so a daemon
    configured with the matching {!Workload.Scenario.split_and_map}
    endowment accepts every submission — org assignment and FIFO ranks
    line up by construction.  The generator paces submissions at a target
    arrival rate (wall-clock) and records the submit-to-ack round trip in
    an {!Obs.Metrics} histogram (["loadgen.ack_latency_us"],
    microseconds), cleared at the start of every {!run} so each report
    covers its own run.  Submit-to-start latency is the {e server's}
    ["sim.job_wait"] histogram (simulated time), surfaced through the
    final STATUS response when the daemon runs with [--metrics].

    Submissions go through {!Client.Resilient}: jittered exponential
    backoff over [Backpressure] rejections and transient transport
    errors (reconnecting as needed), with (cid, cseq) stamping so a
    retransmission is never double-applied.  A SIGKILLed-and-restarted
    daemon therefore costs the run some retries, not lost acks.  A
    request whose retry budget runs out counts in [gave_up] and the run
    moves on to the next job.

    {b Multi-connection mode.}  With [connections > 1] the generator
    opens that many sockets, each driven by its own domain.  Jobs are
    assigned by {e org-group} (group [g] to connection [g mod N], under
    the same contiguous balanced partition the server uses when [groups]
    matches its [--groups]): the admission frontier is monotone per
    group, so splitting one group's stream across sockets would race the
    releases.  The target [rate] is divided across connections in
    proportion to their job counts; counters are summed and the latency
    histogram shared (it is domain-safe).

    {b Windowed (open-loop) mode.}  [window > 1] switches a connection
    from the resilient closed loop to a raw pipelined socket keeping up
    to [window] stamped submissions in flight.  One server fsync can
    then cover many acks — this is what makes [--commit-interval] group
    commit measurable.  Semantics become open-loop: [Backpressure]
    answers are counted and the job dropped (not retried); transport
    failures reconnect and retransmit every unacked request with its
    original (cid, cseq) stamp, so crashes still cost retries rather
    than double-applies. *)

type config = {
  addr : Addr.t;
  spec : Workload.Scenario.spec;
  seed : int;
  rate : float;  (** target submissions per wall-clock second; 0 = as fast as possible *)
  count : int;  (** number of submissions to attempt *)
  drain : bool;  (** send [drain] when done (shuts the daemon down) *)
  policy : Retry.policy;  (** retry/backoff budget for every request *)
  timeout_s : float;  (** per-phase socket deadline *)
  connections : int;  (** sockets (one domain each); 1 = the classic single-connection run *)
  groups : int;
      (** org-group partition to mirror when assigning jobs to
          connections; set to the server's [--groups] *)
  window : int;
      (** max unacked submissions in flight per connection; 1 = closed
          loop via {!Client.Resilient}, >1 = pipelined open loop *)
}

type report = {
  submitted : int;  (** distinct jobs attempted *)
  accepted : int;
  rejected : int;  (** protocol-level rejections other than backpressure *)
  backpressured : int;  (** backpressure responses absorbed by retrying *)
  retries : int;  (** re-sends after transient transport errors *)
  reconnects : int;  (** fresh connections made mid-run *)
  gave_up : int;  (** jobs abandoned with the retry budget exhausted *)
  errors : int;  (** transport failures that exhausted the budget *)
  server_shed : int option;
      (** daemon-reported shed count from the final STATUS, when reachable *)
  wall_seconds : float;
  achieved_rate : float;  (** accepted / wall_seconds *)
  ack_latency : Obs.Metrics.summary;  (** submit-to-ack, microseconds *)
  job_wait : Obs.Metrics.summary option;
      (** server-side submit-to-start (simulated time units) *)
}

val run : config -> (report, string) result
(** [Error] only for an empty submission stream; connection failures are
    absorbed by the retry policy and surface as [gave_up]/[errors] in the
    report. *)

val report_to_json : report -> Obs.Json.t
val pp_report : Format.formatter -> report -> unit
