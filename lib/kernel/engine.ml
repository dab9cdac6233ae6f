type fault_outcome =
  | Applied
  | Killed of { wasted : int; resubmitted : bool }

type endow_outcome = { e_kills : int; e_wasted : int; e_abandoned : int }

let no_endow_effect = { e_kills = 0; e_wasted = 0; e_abandoned = 0 }

(* Process-wide observability handles, shared by every kernel instance
   (the driver loop and each sub-coalition sim); per-domain shards keep the
   parallel REF stages from contending.  All of it is a no-op until
   `--metrics`/`--trace` (or a test) enables collection. *)
let m_round_latency = Obs.Metrics.histogram "kernel.round_latency_ns"
let m_round_starts = Obs.Metrics.histogram "kernel.round_starts"

type 'job model = {
  next_completion : unit -> int;
  pop_completion : time:int -> bool;
  apply_fault : time:int -> Faults.Event.t -> fault_outcome;
  apply_endow : time:int -> Federation.Event.t -> endow_outcome;
  admit : time:int -> 'job -> unit;
  round : time:int -> int;
}

type 'job t = {
  release_time : 'job -> int;
  jobs : 'job array;  (* static stream, release-sorted *)
  mutable next_job : int;
  pushed_jobs : 'job Queue.t;  (* dynamic stream, fed in release order *)
  faults : Faults.Event.timed array;
  mutable next_fault : int;
  pushed_faults : Faults.Event.timed Queue.t;
  endowments : Federation.Event.timed array;
  mutable next_endow : int;
  pushed_endows : Federation.Event.timed Queue.t;
  mutable pending_checkpoints : int list;
  mutable now : int;
  stats : Stats.t;
}

let create ?(faults = []) ?(endowments = []) ?machines ?(checkpoints = [])
    ~release_time jobs =
  (match machines with
  | Some m -> (
      match Faults.Event.validate ~machines:m faults with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Kernel.Engine: bad fault trace: " ^ msg))
  | None -> ());
  {
    release_time;
    jobs;
    next_job = 0;
    pushed_jobs = Queue.create ();
    faults = Array.of_list (List.sort Faults.Event.compare_timed faults);
    next_fault = 0;
    pushed_faults = Queue.create ();
    endowments =
      Array.of_list (List.sort Federation.Event.compare_timed endowments);
    next_endow = 0;
    pushed_endows = Queue.create ();
    pending_checkpoints = List.sort_uniq Stdlib.compare checkpoints;
    now = 0;
    stats = Stats.create ();
  }

let push_job t job = Queue.add job t.pushed_jobs
let push_fault t ev = Queue.add ev t.pushed_faults
let push_endow t ev = Queue.add ev t.pushed_endows
let now t = t.now
let stats t = t.stats

(* Next times of the three fed streams, each the earlier of its static
   array and its pushed queue; [max_int] stands for "none", so a query
   allocates nothing. *)
let static_release t =
  if t.next_job < Array.length t.jobs then t.release_time t.jobs.(t.next_job)
  else max_int

let pushed_release t =
  if Queue.is_empty t.pushed_jobs then max_int
  else t.release_time (Queue.peek t.pushed_jobs)

let static_fault t =
  if t.next_fault < Array.length t.faults then
    t.faults.(t.next_fault).Faults.Event.time
  else max_int

let pushed_fault t =
  if Queue.is_empty t.pushed_faults then max_int
  else (Queue.peek t.pushed_faults).Faults.Event.time

let static_endow t =
  if t.next_endow < Array.length t.endowments then
    t.endowments.(t.next_endow).Federation.Event.time
  else max_int

let pushed_endow t =
  if Queue.is_empty t.pushed_endows then max_int
  else (Queue.peek t.pushed_endows).Federation.Event.time

let imin (a : int) b = if a <= b then a else b

let next_event_time t model =
  let tau =
    imin
      (imin
         (imin (static_release t) (pushed_release t))
         (imin (static_fault t) (pushed_fault t)))
      (imin (imin (static_endow t) (pushed_endow t)) (model.next_completion ()))
  in
  if tau = max_int || tau >= t.now then tau else t.now

(* Phase 1: completions. *)
let drain_completions t model ~time =
  while model.pop_completion ~time do
    t.stats.Stats.completions <- t.stats.Stats.completions + 1
  done

(* Phase 2: faults.  Both streams are time-sorted; the merge prefers the
   static trace on ties (only one stream is populated in every current
   client, so the tie rule is a determinism guarantee, not a semantic
   choice). *)
let account_fault t outcome =
  t.stats.Stats.fault_events <- t.stats.Stats.fault_events + 1;
  match outcome with
  | Applied -> ()
  | Killed { wasted; resubmitted } ->
      t.stats.Stats.kills <- t.stats.Stats.kills + 1;
      t.stats.Stats.wasted <- t.stats.Stats.wasted + wasted;
      if not resubmitted then
        t.stats.Stats.abandoned <- t.stats.Stats.abandoned + 1

let rec drain_faults t model ~time =
  let ts = static_fault t and tp = pushed_fault t in
  if ts <= time && ts <= tp then begin
    let ev = t.faults.(t.next_fault) in
    t.next_fault <- t.next_fault + 1;
    account_fault t (model.apply_fault ~time ev.Faults.Event.event);
    drain_faults t model ~time
  end
  else if tp <= time then begin
    let ev = Queue.pop t.pushed_faults in
    account_fault t (model.apply_fault ~time ev.Faults.Event.event);
    drain_faults t model ~time
  end

(* Phase 3: endowments — after faults (a machine that fails and is lent at
   the same instant hands its borrower a down machine) and before releases
   (a job released the instant its org joins is admitted); same merge rule
   as faults. *)
let account_endow t (o : endow_outcome) =
  t.stats.Stats.endow_events <- t.stats.Stats.endow_events + 1;
  t.stats.Stats.kills <- t.stats.Stats.kills + o.e_kills;
  t.stats.Stats.wasted <- t.stats.Stats.wasted + o.e_wasted;
  t.stats.Stats.abandoned <- t.stats.Stats.abandoned + o.e_abandoned

let rec drain_endows t model ~time =
  let ts = static_endow t and tp = pushed_endow t in
  if ts <= time && ts <= tp then begin
    let ev = t.endowments.(t.next_endow) in
    t.next_endow <- t.next_endow + 1;
    account_endow t (model.apply_endow ~time ev.Federation.Event.event);
    drain_endows t model ~time
  end
  else if tp <= time then begin
    let ev = Queue.pop t.pushed_endows in
    account_endow t (model.apply_endow ~time ev.Federation.Event.event);
    drain_endows t model ~time
  end

(* Phase 4: releases; same merge rule as faults. *)
let rec drain_releases t model ~time =
  let ts = static_release t and tp = pushed_release t in
  if ts <= time && ts <= tp then begin
    let job = t.jobs.(t.next_job) in
    t.next_job <- t.next_job + 1;
    t.stats.Stats.releases <- t.stats.Stats.releases + 1;
    model.admit ~time job;
    drain_releases t model ~time
  end
  else if tp <= time then begin
    let job = Queue.pop t.pushed_jobs in
    t.stats.Stats.releases <- t.stats.Stats.releases + 1;
    model.admit ~time job;
    drain_releases t model ~time
  end

let drain_events t model ~time =
  if time < t.now then invalid_arg "Kernel.Engine: time moved backwards";
  t.now <- time;
  t.stats.Stats.instants <- t.stats.Stats.instants + 1;
  if Obs.Trace.enabled () then begin
    Obs.Trace.span ~cat:"kernel" "kernel.completions" (fun () ->
        drain_completions t model ~time);
    Obs.Trace.span ~cat:"kernel" "kernel.faults" (fun () ->
        drain_faults t model ~time);
    Obs.Trace.span ~cat:"kernel" "kernel.endowments" (fun () ->
        drain_endows t model ~time);
    Obs.Trace.span ~cat:"kernel" "kernel.releases" (fun () ->
        drain_releases t model ~time)
  end
  else begin
    drain_completions t model ~time;
    drain_faults t model ~time;
    drain_endows t model ~time;
    drain_releases t model ~time
  end

let run_round t model ~time =
  let timed = Obs.Metrics.enabled () in
  let t0 = if timed then Obs.Clock.now_ns () else 0L in
  let n =
    if Obs.Trace.enabled () then
      Obs.Trace.span ~cat:"kernel" "kernel.round" (fun () -> model.round ~time)
    else model.round ~time
  in
  if timed then begin
    Obs.Metrics.observe m_round_latency
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
    Obs.Metrics.observe m_round_starts (float_of_int n)
  end;
  t.stats.Stats.rounds <- t.stats.Stats.rounds + 1;
  t.stats.Stats.starts <- t.stats.Stats.starts + n

let process_instant t model ~time =
  drain_events t model ~time;
  run_round t model ~time

let fire_checkpoints t ~on_checkpoint bound =
  let rec go () =
    match t.pending_checkpoints with
    | c :: rest when c <= bound ->
        t.pending_checkpoints <- rest;
        on_checkpoint ~at:c;
        go ()
    | _ -> ()
  in
  go ()

let run t model ~horizon ?(on_checkpoint = fun ~at:_ -> ()) () =
  (* A checkpoint past the horizon snaps to it: utilities are only defined
     up to the evaluation end. *)
  t.pending_checkpoints <-
    List.sort_uniq Stdlib.compare
      (List.map (fun c -> Stdlib.min c horizon) t.pending_checkpoints);
  let rec loop () =
    let tau = next_event_time t model in
    if tau < horizon then begin
      fire_checkpoints t ~on_checkpoint tau;
      process_instant t model ~time:tau;
      loop ()
    end
  in
  loop ();
  fire_checkpoints t ~on_checkpoint horizon

let run_below t model ~time =
  let rec loop () =
    let tau = next_event_time t model in
    if tau < time then begin
      process_instant t model ~time:tau;
      loop ()
    end
  in
  loop ()

let advance_to t model ~time =
  let rec loop () =
    let tau = next_event_time t model in
    if tau <= time then begin
      process_instant t model ~time:tau;
      loop ()
    end
    else t.now <- Stdlib.max t.now time
  in
  loop ()
