(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(* Time from a job's release to its first (or restarted) start, in simulated
   time units — observed at every slot grant the session makes. *)
let m_job_wait = Obs.Metrics.histogram "sim.job_wait"

(* Slot grants and work units lost to machine failures, across every live
   session (the sharded daemon sums its per-group engines through these). *)
let m_starts = Obs.Metrics.counter "sim.starts_total"
let m_wasted = Obs.Metrics.counter "sim.wasted_units"

type t = {
  instance : Instance.t;
  cluster : Cluster.t;
  trackers : Utility.Tracker.t array;
  policy : Algorithms.Policy.t;
  engine : Job.t Kernel.Engine.t;
  model : Job.t Kernel.Engine.model;
  (* Live consortium ownership (home/owner/presence/activity), replayed in
     lockstep with the endowment stream; inert without one. *)
  ownership : Federation.Event.Ownership.t;
}

let machine_owners instance =
  let owners = Array.make (Instance.total_machines instance) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun u m ->
      for _ = 1 to m do
        owners.(!pos) <- u;
        incr pos
      done)
    instance.Instance.machines;
  owners

let create ?(record = true) ?(checkpoints = []) ?workers ?(faults = [])
    ?(endowments = []) ?federated ?max_restarts ~instance ~rng
    (maker : Algorithms.Policy.maker) =
  let k = Instance.organizations instance in
  let nmachines = Instance.total_machines instance in
  let homes = machine_owners instance in
  (match Federation.Event.validate ~orgs:k ~homes endowments with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sim: bad endowment trace: " ^ msg));
  (* Federated construction also without a static trace when asked (the
     online service feeds endowment events after boot). *)
  let federated =
    match federated with Some f -> f | None -> endowments <> []
  in
  let cluster =
    Cluster.create ~record ?max_restarts
      ?speeds:instance.Instance.speeds
      ~machine_owners:homes
      ~norgs:k ()
  in
  let ownership = Federation.Event.Ownership.create ~homes ~orgs:k in
  let trackers = Array.init k (fun _ -> Utility.Tracker.create ()) in
  let view = { Algorithms.Policy.instance; cluster; trackers } in
  let policy =
    let construct () =
      match workers with
      | None -> maker instance ~rng
      | Some w ->
          Core.Domain_pool.with_default_workers (Some w) (fun () ->
              maker instance ~rng)
    in
    if federated then Federation.Mode.with_enabled true construct
    else construct ()
  in
  let engine =
    Kernel.Engine.create ~faults ~endowments ~machines:nmachines ~checkpoints
      ~release_time:(fun (j : Job.t) -> j.Job.release)
      instance.Instance.jobs
  in
  let model =
    {
      Kernel.Engine.next_completion =
        (fun () -> Cluster.next_completion cluster);
      pop_completion =
        (fun ~time ->
          match Cluster.pop_completion_le cluster time with
          | Some c ->
              Utility.Tracker.on_complete
                trackers.(c.Cluster.job.Job.org)
                ~key:c.Cluster.job.Job.index
                ~size:(c.Cluster.finish - c.Cluster.start);
              policy.Algorithms.Policy.on_complete view ~time c;
              true
          | None -> false);
      apply_fault =
        (fun ~time ev ->
          let outcome =
            match ev with
            | Faults.Event.Fail m -> (
                match Cluster.fail_machine cluster ~time m with
                | Some kill ->
                    (* Strategy-proofness under churn (Theorem 4.1): the
                       killed piece is retracted — lost work counts toward
                       nobody's ψsp. *)
                    Utility.Tracker.on_abort
                      trackers.(kill.Cluster.k_job.Job.org)
                      ~key:kill.Cluster.k_job.Job.index;
                    policy.Algorithms.Policy.on_kill view ~time kill;
                    Obs.Metrics.add m_wasted kill.Cluster.k_wasted;
                    Kernel.Engine.Killed
                      {
                        wasted = kill.Cluster.k_wasted;
                        resubmitted = kill.Cluster.k_resubmitted;
                      }
                | None -> Kernel.Engine.Applied)
            | Faults.Event.Recover m ->
                ignore (Cluster.recover_machine cluster m);
                Kernel.Engine.Applied
          in
          policy.Algorithms.Policy.on_fault view ~time ev;
          outcome);
      apply_endow =
        (fun ~time ev ->
          let changes =
            match Federation.Event.Ownership.apply ownership ev with
            | Ok changes -> changes
            | Error msg -> invalid_arg ("Sim: bad endowment event: " ^ msg)
          in
          let outcome =
            List.fold_left
              (fun (acc : Kernel.Engine.endow_outcome) change ->
                match change with
                | Federation.Event.Ownership.Activate u ->
                    Cluster.resume_org cluster u;
                    acc
                | Federation.Event.Ownership.Deactivate u ->
                    Cluster.suspend_org cluster u;
                    acc
                | Federation.Event.Ownership.Admit { machine; org } ->
                    Cluster.admit_machine cluster ~org machine;
                    acc
                | Federation.Event.Ownership.Transfer { machine; org } ->
                    Cluster.transfer_machine cluster ~org machine;
                    acc
                | Federation.Event.Ownership.Retire m -> (
                    match Cluster.retire_machine cluster ~time m with
                    | None -> acc
                    | Some kill ->
                        (* Same retraction as a fault kill: the piece lost
                           to a retirement counts toward nobody's ψsp. *)
                        Utility.Tracker.on_abort
                          trackers.(kill.Cluster.k_job.Job.org)
                          ~key:kill.Cluster.k_job.Job.index;
                        policy.Algorithms.Policy.on_kill view ~time kill;
                        Obs.Metrics.add m_wasted kill.Cluster.k_wasted;
                        {
                          Kernel.Engine.e_kills =
                            acc.Kernel.Engine.e_kills + 1;
                          e_wasted =
                            acc.Kernel.Engine.e_wasted
                            + kill.Cluster.k_wasted;
                          e_abandoned =
                            (acc.Kernel.Engine.e_abandoned
                            + if kill.Cluster.k_resubmitted then 0 else 1);
                        }))
              Kernel.Engine.no_endow_effect changes
          in
          policy.Algorithms.Policy.on_endow view ~time ev;
          outcome);
      admit =
        (fun ~time job ->
          Cluster.release cluster job;
          policy.Algorithms.Policy.on_release view ~time job);
      round =
        (fun ~time ->
          let n = ref 0 in
          while Cluster.free_count cluster > 0 && Cluster.has_waiting cluster
          do
            let org = policy.Algorithms.Policy.select view ~time in
            let machine =
              policy.Algorithms.Policy.pick_machine view ~time ~org
            in
            let placement =
              Cluster.start_front cluster ~org ~time ?machine ()
            in
            Utility.Tracker.on_start trackers.(org)
              ~key:placement.Schedule.job.Job.index ~start:time;
            Obs.Metrics.observe m_job_wait
              (float_of_int (time - placement.Schedule.job.Job.release));
            Obs.Metrics.incr m_starts;
            policy.Algorithms.Policy.on_start view ~time placement;
            incr n
          done;
          !n);
    }
  in
  { instance; cluster; trackers; policy; engine; model; ownership }

let instance t = t.instance
let cluster t = t.cluster
let policy_name t = t.policy.Algorithms.Policy.name
let horizon t = t.instance.Instance.horizon
let now t = Kernel.Engine.now t.engine

let feed_job t job = Kernel.Engine.push_job t.engine job
let feed_fault t ev = Kernel.Engine.push_fault t.engine ev
let feed_endow t ev = Kernel.Engine.push_endow t.engine ev
let ownership t = t.ownership

let advance_below t ~time = Kernel.Engine.run_below t.engine t.model ~time
let catch_up t = t.policy.Algorithms.Policy.catch_up ()

let run_to_horizon t ?on_checkpoint () =
  Kernel.Engine.run t.engine t.model ~horizon:(horizon t) ?on_checkpoint ()

let psi_scaled t ~at =
  Array.map (fun tr -> Utility.Tracker.value_scaled tr ~at) t.trackers

let parts_at t ~at =
  Array.map (fun tr -> Utility.Tracker.parts tr ~at) t.trackers

let engine_stats t = Kernel.Engine.stats t.engine

let stats t =
  let acc = Kernel.Stats.copy (Kernel.Engine.stats t.engine) in
  (match t.policy.Algorithms.Policy.stats with
  | Some policy_stats -> Kernel.Stats.add acc (policy_stats ())
  | None -> ());
  acc

let schedule t = Cluster.to_schedule t.cluster

let wasted_total t =
  let acc = ref 0 in
  for u = 0 to Cluster.norgs t.cluster - 1 do
    acc := !acc + Cluster.wasted_work t.cluster u
  done;
  !acc
