type config = {
  addr : Addr.t;
  spec : Workload.Scenario.spec;
  seed : int;
  rate : float;
  count : int;
  drain : bool;
  policy : Retry.policy;
  timeout_s : float;
  connections : int;
  groups : int;
  window : int;
}

type report = {
  submitted : int;
  accepted : int;
  rejected : int;
  backpressured : int;
  retries : int;
  reconnects : int;
  gave_up : int;
  errors : int;
  server_shed : int option;
  wall_seconds : float;
  achieved_rate : float;
  ack_latency : Obs.Metrics.summary;
  job_wait : Obs.Metrics.summary option;
}

let empty_summary =
  { Obs.Metrics.count = 0; p50 = 0.; p90 = 0.; p99 = 0.; max = 0. }

let find_histogram name =
  List.find_map
    (function
      | n, Obs.Metrics.Histogram s when n = name -> Some s | _ -> None)
    (Obs.Metrics.snapshot ())

(* Owner of [o] under the contiguous balanced org partition — the same
   formula as Partition.make, restated here because the generator mirrors
   the server's partition without holding a service Config. *)
let group_of_org ~norgs ~groups o =
  let rec go g = if (g + 1) * norgs / groups > o then g else go (g + 1) in
  go 0

(* Per-connection counters, merged into the report after the joins. *)
type agg = {
  a_submitted : int;
  a_accepted : int;
  a_rejected : int;
  a_backpressured : int;
  a_retries : int;
  a_reconnects : int;
  a_gave_up : int;
  a_errors : int;
}

let zero_agg =
  {
    a_submitted = 0;
    a_accepted = 0;
    a_rejected = 0;
    a_backpressured = 0;
    a_retries = 0;
    a_reconnects = 0;
    a_gave_up = 0;
    a_errors = 0;
  }

let sum_agg a b =
  {
    a_submitted = a.a_submitted + b.a_submitted;
    a_accepted = a.a_accepted + b.a_accepted;
    a_rejected = a.a_rejected + b.a_rejected;
    a_backpressured = a.a_backpressured + b.a_backpressured;
    a_retries = a.a_retries + b.a_retries;
    a_reconnects = a.a_reconnects + b.a_reconnects;
    a_gave_up = a.a_gave_up + b.a_gave_up;
    a_errors = a.a_errors + b.a_errors;
  }

let submit_of_job ~cid ~cseq ~trace (j : Core.Job.t) =
  Protocol.Submit
    {
      org = j.Core.Job.org;
      user = j.Core.Job.user;
      release = j.Core.Job.release;
      size = j.Core.Job.size;
      cid;
      cseq;
      trace;
    }

(* --- Closed loop: one Resilient client, one request in flight ----------- *)

let closed_loop cfg ~hist ~rng ~t0 ~rate (jobs : Core.Job.t array) =
  let conn =
    Client.Resilient.create ~policy:cfg.policy ~timeout_s:cfg.timeout_s ~rng
      cfg.addr
  in
  Fun.protect
    ~finally:(fun () -> Client.Resilient.close conn)
    (fun () ->
      let submitted = ref 0 in
      let accepted = ref 0 in
      let rejected = ref 0 in
      let errors = ref 0 in
      let pace () =
        if rate > 0. then begin
          let due = t0 +. (float_of_int !submitted /. rate) in
          let slack = due -. Unix.gettimeofday () in
          if slack > 0. then Unix.sleepf slack
        end
      in
      (* Backpressure and transient transport failures are absorbed by
         the resilient client within its budget — the queue bound turns
         overload into client-side waiting, not loss.  A job whose
         budget runs out is abandoned and the run continues. *)
      Array.iter
        (fun j ->
          pace ();
          incr submitted;
          let sent_at = Obs.Clock.now_ns () in
          let outcome =
            Client.Resilient.call conn (submit_of_job ~cid:0 ~cseq:0 ~trace:0 j)
          in
          Obs.Metrics.observe hist (Obs.Clock.elapsed sent_at *. 1e6);
          match outcome with
          | Ok (Protocol.Submit_ok _) -> incr accepted
          | Ok (Protocol.Error { code = Protocol.Backpressure; _ }) ->
              (* budget exhausted while still backpressured *)
              ()
          | Ok _ -> incr rejected
          | Error _ -> incr errors)
        jobs;
      let stats = Client.Resilient.stats conn in
      {
        a_submitted = !submitted;
        a_accepted = !accepted;
        a_rejected = !rejected;
        a_backpressured = stats.Client.Resilient.backpressured;
        a_retries = stats.Client.Resilient.retries;
        a_reconnects = stats.Client.Resilient.reconnects;
        a_gave_up = stats.Client.Resilient.gave_up;
        a_errors = !errors;
      })

(* --- Open loop: one raw socket, up to [window] unacked requests ----------
   A closed loop serializes on the server's fsync, which makes group
   commit invisible (every batch has one ack to cover).  The windowed
   mode keeps [window] stamped submissions in flight so a single fsync
   can ack many, at the price of open-loop semantics: a [Backpressure]
   answer is counted and the job dropped, not retried.  Transport
   failures reconnect and retransmit every unacked request with its
   original (cid, cseq) stamp — server dedupe makes that at-most-once. *)

let open_loop cfg ~hist ~cid ~t0 ~rate (jobs : Core.Job.t array) =
  let njobs = Array.length jobs in
  let submitted = ref 0 in
  let accepted = ref 0 in
  let rejected = ref 0 in
  let backpressured = ref 0 in
  let errors = ref 0 in
  let reconnects = ref 0 in
  let retries = ref 0 in
  let gave_up = ref 0 in
  (* oldest first; responses arrive in per-connection request order *)
  let pending : (string * float) Queue.t = Queue.create () in
  let rbuf = Buffer.create 4096 in
  let timeout = if cfg.timeout_s > 0. then cfg.timeout_s else 5.0 in
  let connect () =
    let rec attempt n =
      let fd = Unix.socket (Addr.domain cfg.addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Addr.to_sockaddr cfg.addr) with
      | () ->
          (match cfg.addr with
          | Addr.Tcp _ -> (
              try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
          | Addr.Unix_sock _ -> ());
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
          Some fd
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if n >= cfg.policy.Retry.max_attempts then None
          else begin
            Unix.sleepf (cfg.policy.Retry.base_delay_ms /. 1000.);
            attempt (n + 1)
          end
    in
    attempt 1
  in
  let write_all fd line =
    let b = Bytes.unsafe_of_string line in
    let n = String.length line in
    let rec go off =
      if off < n then
        let w = Unix.write fd b off (n - off) in
        if w = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
        else go (off + w)
    in
    go 0
  in
  (* On any transport failure: fresh socket, retransmit the window. *)
  let rec reestablish () =
    Buffer.clear rbuf;
    incr reconnects;
    match connect () with
    | None ->
        gave_up := !gave_up + Queue.length pending + (njobs - !submitted);
        Queue.clear pending;
        None
    | Some fd -> (
        retries := !retries + Queue.length pending;
        match Queue.iter (fun (line, _) -> write_all fd line) pending with
        | () -> Some fd
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            reestablish ())
  in
  let pace () =
    if rate > 0. then begin
      let due = t0 +. (float_of_int !submitted /. rate) in
      let slack = due -. Unix.gettimeofday () in
      if slack > 0. then Unix.sleepf slack
    end
  in
  let handle_response line =
    match Queue.take_opt pending with
    | None -> incr errors  (* response with nothing in flight *)
    | Some (_, sent_at) -> (
        Obs.Metrics.observe hist
          ((Unix.gettimeofday () -. sent_at) *. 1e6);
        match Protocol.response_of_line line with
        | Ok (Protocol.Submit_ok _) -> incr accepted
        | Ok (Protocol.Error { code = Protocol.Backpressure; _ }) ->
            incr backpressured
        | Ok _ -> incr rejected
        | Error _ -> incr errors)
  in
  (* Split off complete lines; feed each to handle_response. *)
  let consume data n =
    Buffer.add_subbytes rbuf data 0 n;
    let s = Buffer.contents rbuf in
    let len = String.length s in
    let pos = ref 0 in
    (try
       while true do
         let i = String.index_from s !pos '\n' in
         handle_response (String.sub s !pos (i - !pos));
         pos := i + 1
       done
     with Not_found -> ());
    Buffer.clear rbuf;
    Buffer.add_substring rbuf s !pos (len - !pos)
  in
  let chunk = Bytes.create 65536 in
  let rec loop fd =
    if !submitted >= njobs && Queue.is_empty pending then
      (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      (* fill the window *)
      let sent_error = ref false in
      while
        (not !sent_error)
        && !submitted < njobs
        && Queue.length pending < cfg.window
      do
        pace ();
        let j = jobs.(!submitted) in
        incr submitted;
        let line =
          (* same trace-id scheme as Client.Resilient.stamp: the open
             loop bypasses the resilient client, so it stamps its own *)
          let trace = (cid lsl 20) lor (!submitted land 0xFFFFF) in
          Protocol.request_to_line
            (submit_of_job ~cid ~cseq:!submitted ~trace j)
        in
        Queue.push (line, Unix.gettimeofday ()) pending;
        match write_all fd line with
        | () -> ()
        | exception Unix.Unix_error _ -> sent_error := true
      done;
      if !sent_error then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match reestablish () with None -> () | Some fd' -> loop fd'
      end
      else
        (* read one chunk of acks *)
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            (* server closed; if work remains this is a failure *)
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if !submitted < njobs || not (Queue.is_empty pending) then (
              match reestablish () with None -> () | Some fd' -> loop fd')
        | n ->
            consume chunk n;
            loop fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop fd
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            (match reestablish () with None -> () | Some fd' -> loop fd')
    end
  in
  (match connect () with
  | None -> gave_up := njobs
  | Some fd -> loop fd);
  {
    a_submitted = !submitted;
    a_accepted = !accepted;
    a_rejected = !rejected;
    a_backpressured = !backpressured;
    a_retries = !retries;
    a_reconnects = !reconnects;
    a_gave_up = !gave_up;
    a_errors = !errors;
  }

let run cfg =
  let horizon = cfg.spec.Workload.Scenario.horizon in
  let jobs =
    Workload.Scenario.submission_stream cfg.spec ~seed:cfg.seed
    |> Seq.take_while (fun (j : Core.Job.t) -> j.Core.Job.release < horizon)
    |> Seq.take cfg.count
    |> List.of_seq
  in
  let total = List.length jobs in
  if total = 0 then Error "empty submission stream"
  else begin
    let nconn = max 1 cfg.connections in
    let groups = max 1 cfg.groups in
    let norgs = cfg.spec.Workload.Scenario.norgs in
    (* Jobs are assigned whole org-groups (group g -> connection
       g mod N): the admission frontier is monotone per group, so
       interleaving one group's stream over two sockets would race the
       releases and shower the slower socket with Bad_release rejects.
       This mirrors the server's partition when [groups] matches its
       [--groups]. *)
    let per_conn = Array.make nconn [] in
    List.iter
      (fun (j : Core.Job.t) ->
        let c = group_of_org ~norgs ~groups j.Core.Job.org mod nconn in
        per_conn.(c) <- j :: per_conn.(c))
      jobs;
    let per_conn = Array.map (fun l -> Array.of_list (List.rev l)) per_conn in
    Obs.Metrics.set_enabled true;
    let hist = Obs.Metrics.histogram "loadgen.ack_latency_us" in
    (* the report describes this run alone, not every run before it in
       the same process *)
    Obs.Metrics.clear hist;
    (* The retry jitter stream must not perturb the workload: the job
       stream consumes [seed] directly, the clients a derived stream. *)
    let rngs =
      Array.init nconn (fun c ->
          Fstats.Rng.split (Fstats.Rng.create ~seed:(cfg.seed + (7919 * c))))
    in
    let t0 = Unix.gettimeofday () in
    let run_conn c =
      let jobs_c = per_conn.(c) in
      let rate_c =
        if cfg.rate > 0. then
          cfg.rate *. float_of_int (Array.length jobs_c) /. float_of_int total
        else 0.
      in
      if cfg.window <= 1 then
        closed_loop cfg ~hist ~rng:rngs.(c) ~t0 ~rate:rate_c jobs_c
      else
        let cid = 1 + ((cfg.seed * 65599) + c) land 0xFFFFFF in
        open_loop cfg ~hist ~cid ~t0 ~rate:rate_c jobs_c
    in
    let agg =
      if nconn = 1 then run_conn 0
      else
        Array.init nconn (fun c -> Domain.spawn (fun () -> run_conn c))
        |> Array.map Domain.join
        |> Array.fold_left sum_agg zero_agg
    in
    let wall_seconds = Unix.gettimeofday () -. t0 in
    (* Status and drain from a fresh control connection after the load
       connections settle. *)
    let rng = Fstats.Rng.split (Fstats.Rng.create ~seed:(cfg.seed + 1)) in
    let ctl =
      Client.Resilient.create ~policy:cfg.policy ~timeout_s:cfg.timeout_s ~rng
        cfg.addr
    in
    Fun.protect
      ~finally:(fun () -> Client.Resilient.close ctl)
      (fun () ->
        let errors = ref agg.a_errors in
        let job_wait, server_shed =
          match Client.Resilient.call ctl Protocol.Status with
          | Ok (Protocol.Status_ok st) ->
              (st.Protocol.job_wait, Some st.Protocol.shed)
          | Ok _ | Error _ -> (None, None)
        in
        if cfg.drain then (
          match Client.Resilient.call ctl (Protocol.Drain { detail = false }) with
          | Ok _ -> ()
          | Error _ -> incr errors);
        let ack_latency =
          Option.value
            (find_histogram "loadgen.ack_latency_us")
            ~default:empty_summary
        in
        Ok
          {
            submitted = agg.a_submitted;
            accepted = agg.a_accepted;
            rejected = agg.a_rejected;
            backpressured = agg.a_backpressured;
            retries = agg.a_retries;
            reconnects = agg.a_reconnects;
            gave_up = agg.a_gave_up;
            errors = !errors;
            server_shed;
            wall_seconds;
            achieved_rate =
              (if wall_seconds > 0. then
                 float_of_int agg.a_accepted /. wall_seconds
               else 0.);
            ack_latency;
            job_wait;
          })
  end

let summary_json (s : Obs.Metrics.summary) =
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int s.Obs.Metrics.count);
      ("p50", Obs.Json.Float s.Obs.Metrics.p50);
      ("p90", Obs.Json.Float s.Obs.Metrics.p90);
      ("p99", Obs.Json.Float s.Obs.Metrics.p99);
      ("max", Obs.Json.Float s.Obs.Metrics.max);
    ]

let report_to_json r =
  let open Obs.Json in
  Obj
    (List.concat
       [
         [
           ("submitted", Int r.submitted);
           ("accepted", Int r.accepted);
           ("rejected", Int r.rejected);
           ("backpressured", Int r.backpressured);
           ("retries", Int r.retries);
           ("reconnects", Int r.reconnects);
           ("gave_up", Int r.gave_up);
           ("errors", Int r.errors);
         ];
         (match r.server_shed with
         | None -> []
         | Some n -> [ ("server_shed", Int n) ]);
         [
           ("wall_seconds", Float r.wall_seconds);
           ("achieved_rate", Float r.achieved_rate);
           ("ack_latency_us", summary_json r.ack_latency);
         ];
         (match r.job_wait with
         | None -> []
         | Some s -> [ ("job_wait", summary_json s) ]);
       ])

let pp_summary ppf (s : Obs.Metrics.summary) =
  Format.fprintf ppf "p50 %.0f  p90 %.0f  p99 %.0f  max %.0f (n=%d)"
    s.Obs.Metrics.p50 s.Obs.Metrics.p90 s.Obs.Metrics.p99 s.Obs.Metrics.max
    s.Obs.Metrics.count

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>submitted %d  accepted %d  rejected %d  backpressured %d  errors %d@,\
     retries %d  reconnects %d  gave up %d%s@,\
     wall %.2fs  rate %.0f/s@,\
     ack latency (us): %a@]"
    r.submitted r.accepted r.rejected r.backpressured r.errors r.retries
    r.reconnects r.gave_up
    (match r.server_shed with
    | None -> ""
    | Some n -> Printf.sprintf "  server shed %d" n)
    r.wall_seconds r.achieved_rate pp_summary r.ack_latency;
  match r.job_wait with
  | None -> ()
  | Some s ->
      Format.fprintf ppf "@,@[job wait (sim time): %a@]" pp_summary s
