(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

type t = {
  members : Shapley.Coalition.t;
  cluster : Cluster.t;
  trackers : Utility.Tracker.t array;
      (* indexed by global org id; non-members share one inert tracker that
         is never written (only members' jobs enter the sim) *)
  (* The coalition value 2·v(C, t) = a·t² + b·t + c between state changes:
     the sum of the members' tracker polynomials, updated on every path
     that changes a member's tracker (DESIGN.md §13). *)
  mutable poly_a : int;
  mutable poly_b : int;
  mutable poly_c : int;
  mutable latest_start : int;
      (* max start of any member piece, min_int before the first: value
         reads before it would miscount a running piece *)
  local_of_global : int array;  (* global machine id -> local id, or -1 *)
  (* Federated mode: the sim hosts the full global machine universe under
     identity ids and replays the endowment stream against its own
     ownership state, so which machines the coalition can use varies with
     time (a machine is visible iff its *current* owner is a member).
     [None] = the static consortium of the paper. *)
  ownership : Federation.Event.Ownership.t option;
  pending : Instant.t;
  engine : Job.t Kernel.Engine.t;
  model : Job.t Kernel.Engine.model;
  (* The selection rule is a per-call argument of [advance_to] /
     [schedule_round], but the kernel's round closure is built once; it
     reads the rule through this field. *)
  mutable current_select : t -> time:int -> int;
}

(* Every tracker change goes through [unfold] / [refold]: the member's
   polynomial leaves the aggregate before the change and re-enters after,
   so the aggregate stays the members' sum in O(1). *)
let unfold t tr =
  t.poly_a <- t.poly_a - Utility.Tracker.coeff_a tr;
  t.poly_b <- t.poly_b - Utility.Tracker.coeff_b tr;
  t.poly_c <- t.poly_c - Utility.Tracker.coeff_c tr

let refold t tr =
  t.poly_a <- t.poly_a + Utility.Tracker.coeff_a tr;
  t.poly_b <- t.poly_b + Utility.Tracker.coeff_b tr;
  t.poly_c <- t.poly_c + Utility.Tracker.coeff_c tr

let track_start t ~org ~key ~start =
  let tr = t.trackers.(org) in
  unfold t tr;
  Utility.Tracker.on_start tr ~key ~start;
  refold t tr;
  if start > t.latest_start then t.latest_start <- start

let track_complete (t : t) (c : Cluster.completion) =
  let tr = t.trackers.(c.Cluster.job.Job.org) in
  unfold t tr;
  Utility.Tracker.on_complete tr ~key:c.Cluster.job.Job.index
    ~size:(c.Cluster.finish - c.Cluster.start);
  refold t tr

(* A killed piece vanishes from ψsp (Theorem 4.1). *)
let track_kill t (k : Cluster.kill) =
  let tr = t.trackers.(k.Cluster.k_job.Job.org) in
  unfold t tr;
  Utility.Tracker.on_abort tr ~key:k.Cluster.k_job.Job.index;
  refold t tr

(* Retire one machine from a federated sim's cluster, retracting the killed
   piece from ψsp like a fault does (Theorem 4.1), and fold the kill into
   the endowment outcome. *)
let sim_retire t ~time (acc : Kernel.Engine.endow_outcome) m =
  match Cluster.retire_machine t.cluster ~time m with
  | None -> acc
  | Some k ->
      track_kill t k;
      {
        Kernel.Engine.e_kills = acc.Kernel.Engine.e_kills + 1;
        e_wasted = acc.Kernel.Engine.e_wasted + k.Cluster.k_wasted;
        e_abandoned =
          (acc.Kernel.Engine.e_abandoned
          + if k.Cluster.k_resubmitted then 0 else 1);
      }

(* Replay one endowment event against the sim's own ownership state and
   mirror the changes into its cluster.  The invariant is: a machine is
   present in the sim's cluster iff it is present in the consortium and its
   current owner is a member — so a transfer in/out of the member set
   becomes an admit/retire here, and everything else is invisible. *)
let apply_endow_global t own ~time ev =
  match Federation.Event.Ownership.apply own ev with
  | Error msg -> invalid_arg ("Coalition_sim: bad endowment event: " ^ msg)
  | Ok changes ->
      List.fold_left
        (fun acc change ->
          match change with
          | Federation.Event.Ownership.Activate u ->
              if Shapley.Coalition.mem t.members u then
                Cluster.resume_org t.cluster u;
              acc
          | Federation.Event.Ownership.Deactivate u ->
              if Shapley.Coalition.mem t.members u then
                Cluster.suspend_org t.cluster u;
              acc
          | Federation.Event.Ownership.Admit { machine = m; org } ->
              if Shapley.Coalition.mem t.members org then
                Cluster.admit_machine t.cluster ~org m;
              acc
          | Federation.Event.Ownership.Retire m ->
              if Cluster.machine_present t.cluster m then sim_retire t ~time acc m
              else acc
          | Federation.Event.Ownership.Transfer { machine = m; org } ->
              let visible = Cluster.machine_present t.cluster m in
              let member = Shapley.Coalition.mem t.members org in
              if visible && member then begin
                Cluster.transfer_machine t.cluster ~org m;
                acc
              end
              else if visible then sim_retire t ~time acc m
              else if member then begin
                Cluster.admit_machine t.cluster ~org m;
                acc
              end
              else acc)
        Kernel.Engine.no_endow_effect changes

let create ?max_restarts ?record ?(federated = false) ~instance ~members () =
  if members = Shapley.Coalition.empty then
    invalid_arg "Coalition_sim.create: empty coalition";
  let norgs = Instance.organizations instance in
  let machines = instance.Instance.machines in
  (* The driver lays machines out org-contiguously ascending.  A static
     coalition hosts its members' machines in that order, compacted;
     federated mode hosts the full global universe under identity ids
     (ownership moves at runtime, so the compaction is impossible) and
     keeps non-member machines absent.  [hosted.(l)] is local machine [l]'s
     global id. *)
  let nglobal = Array.fold_left ( + ) 0 machines in
  let local_of_global = Array.make nglobal (-1) in
  let hosted = Array.make nglobal 0 and owners = Array.make nglobal 0 in
  let n = ref 0 and g = ref 0 in
  for u = 0 to norgs - 1 do
    for _ = 1 to machines.(u) do
      if federated || Shapley.Coalition.mem members u then begin
        local_of_global.(!g) <- !n;
        hosted.(!n) <- !g;
        owners.(!n) <- u;
        incr n
      end;
      incr g
    done
  done;
  if !n = 0 then invalid_arg "Coalition_sim.create: coalition owns no machine";
  let machine_owners = Array.sub owners 0 !n in
  let speeds =
    Option.map
      (fun sp -> Array.init !n (fun l -> sp.(hosted.(l))))
      instance.Instance.speeds
  in
  let rec t =
    {
      members;
      cluster =
        Cluster.create ?record ?speeds ?max_restarts ~machine_owners ~norgs ();
      trackers =
        (let inert = Utility.Tracker.create () in
         Array.init norgs (fun u ->
             if Shapley.Coalition.mem members u then Utility.Tracker.create ()
             else inert));
      poly_a = 0;
      poly_b = 0;
      poly_c = 0;
      latest_start = min_int;
      local_of_global;
      ownership =
        (if federated then
           Some
             (Federation.Event.Ownership.create ~homes:machine_owners
                ~orgs:norgs)
         else None);
      pending = Instant.create ~norgs;
      engine =
        Kernel.Engine.create
          ~release_time:(fun (j : Job.t) -> j.Job.release)
          [||];
      model =
        {
          Kernel.Engine.next_completion =
            (fun () -> Cluster.next_completion t.cluster);
          pop_completion =
            (fun ~time ->
              match Cluster.pop_completion_le t.cluster time with
              | Some c ->
                  track_complete t c;
                  true
              | None -> false);
          apply_fault =
            (fun ~time ev ->
              match ev with
              | Faults.Event.Fail m -> (
                  match Cluster.fail_machine t.cluster ~time m with
                  | Some k ->
                      track_kill t k;
                      Kernel.Engine.Killed
                        {
                          wasted = k.Cluster.k_wasted;
                          resubmitted = k.Cluster.k_resubmitted;
                        }
                  | None -> Kernel.Engine.Applied)
              | Faults.Event.Recover m ->
                  ignore (Cluster.recover_machine t.cluster m);
                  Kernel.Engine.Applied);
          apply_endow =
            (fun ~time ev ->
              match t.ownership with
              | None -> Kernel.Engine.no_endow_effect
              | Some own -> apply_endow_global t own ~time ev);
          admit = (fun ~time:_ job -> Cluster.release t.cluster job);
          round =
            (fun ~time ->
              let n = ref 0 in
              while
                Cluster.free_count t.cluster > 0
                && Cluster.has_waiting t.cluster
              do
                let org = t.current_select t ~time in
                let placement = Cluster.start_front t.cluster ~org ~time () in
                track_start t ~org ~key:placement.Schedule.job.Job.index
                  ~start:time;
                Instant.bump t.pending ~time ~org;
                incr n
              done;
              !n);
        };
      current_select =
        (fun _ ~time:_ ->
          invalid_arg "Coalition_sim: scheduling round without a select rule");
    }
  in
  if federated then
    (* Non-members' machines start absent; lends make them appear. *)
    Array.iteri
      (fun m h ->
        if not (Shapley.Coalition.mem members h) then
          ignore (Cluster.retire_machine t.cluster ~time:0 m))
      machine_owners;
  t

let members t = t.members
let now t = Kernel.Engine.now t.engine
let stats t = Kernel.Engine.stats t.engine

let add_release t (job : Job.t) =
  if not (Shapley.Coalition.mem t.members job.Job.org) then
    invalid_arg "Coalition_sim.add_release: job of a non-member";
  Kernel.Engine.push_job t.engine job

let add_fault t (ev : Faults.Event.timed) =
  let g = Faults.Event.machine ev.Faults.Event.event in
  if g < 0 || g >= Array.length t.local_of_global then
    invalid_arg "Coalition_sim.add_fault: machine id out of range";
  let m = t.local_of_global.(g) in
  if m >= 0 then
    let event =
      match ev.Faults.Event.event with
      | Faults.Event.Fail _ -> Faults.Event.Fail m
      | Faults.Event.Recover _ -> Faults.Event.Recover m
    in
    Kernel.Engine.push_fault t.engine { ev with Faults.Event.event }

let add_endow t (ev : Federation.Event.timed) =
  if t.ownership = None then
    invalid_arg "Coalition_sim.add_endow: sim is not federated";
  Kernel.Engine.push_endow t.engine ev

let next_event_time t = Kernel.Engine.next_event_time t.engine t.model

let step_releases_and_completions t ~time =
  Kernel.Engine.drain_events t.engine t.model ~time

let schedule_round t ~time ~select =
  t.current_select <- select;
  Kernel.Engine.run_round t.engine t.model ~time

let advance_to t ~time ~select =
  t.current_select <- select;
  Kernel.Engine.advance_to t.engine t.model ~time

let value_scaled t ~at =
  assert (at >= t.latest_start);
  (((t.poly_a * at) + t.poly_b) * at) + t.poly_c

let value_scaled_fold t ~at =
  Shapley.Coalition.fold
    (fun u acc -> acc + Utility.Tracker.value_scaled_fold t.trackers.(u) ~at)
    t.members 0

let utility_scaled t ~org ~at = Utility.Tracker.value_scaled t.trackers.(org) ~at
let pending t = t.pending
let waiting_orgs t = Cluster.waiting_orgs t.cluster
let sole_waiting t = Cluster.sole_waiting t.cluster
let fifo_org t = Cluster.fifo_org t.cluster
let has_waiting t = Cluster.has_waiting t.cluster
let free_count t = Cluster.free_count t.cluster
let front t org = Cluster.front t.cluster org

let schedule t =
  Schedule.of_placements
    ~machines:(Cluster.machines t.cluster)
    (Cluster.placements t.cluster)

let fifo_value ~instance ~members ~at =
  if
    Shapley.Coalition.fold (fun u acc -> acc + instance.Instance.machines.(u))
      members 0
    = 0
  then 0.
  else begin
    let t = create ~instance ~members () in
    Array.iter
      (fun (j : Job.t) ->
        if Shapley.Coalition.mem members j.Job.org then add_release t j)
      instance.Instance.jobs;
    advance_to t ~time:at ~select:(fun t ~time:_ -> fifo_org t);
    float_of_int (value_scaled t ~at) /. 2.
  end
