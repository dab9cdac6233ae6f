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

let global_homes instance =
  let norgs = Instance.organizations instance in
  let acc = ref [] in
  for u = norgs - 1 downto 0 do
    acc :=
      List.rev_append (List.init instance.Instance.machines.(u) (fun _ -> u))
        !acc
  done;
  Array.of_list !acc

let create ?max_restarts ?(federated = false) ~instance ~members () =
  if members = Shapley.Coalition.empty then
    invalid_arg "Coalition_sim.create: empty coalition";
  let norgs = Instance.organizations instance in
  let nglobal = Array.fold_left ( + ) 0 instance.Instance.machines in
  let machine_owners =
    if federated then global_homes instance
    else
      Shapley.Coalition.fold
        (fun u acc ->
          List.rev_append
            (List.init instance.Instance.machines.(u) (fun _ -> u))
            acc)
        members []
      |> List.rev |> Array.of_list
  in
  if Array.length machine_owners = 0 then
    invalid_arg "Coalition_sim.create: coalition owns no machine";
  (* Related machines: carry over the members' machine speeds, flattened in
     the same member-ascending order as [machine_owners] (federated mode
     hosts everyone's machines, so the global array carries over as is). *)
  let speeds =
    if federated then instance.Instance.speeds
    else
      match instance.Instance.speeds with
      | None -> None
      | Some _ ->
          Some
            (Shapley.Coalition.fold
               (fun u acc ->
                 Array.to_list (Instance.speeds_of_org instance u) :: acc)
               members []
            |> List.rev |> List.concat |> Array.of_list)
  in
  (* The driver lays machines out org-contiguously ascending; a coalition
     keeps the member orgs' blocks in the same order, so a global machine id
     maps to (member prefix count) + (slot within the owner's block).  In
     federated mode the map is the identity: ownership moves at runtime, so
     the compile-time compaction is impossible — non-member machines are
     instead kept absent. *)
  let local_of_global =
    if federated then Array.init nglobal Fun.id
    else begin
      let local_of_global = Array.make nglobal (-1) in
      let next_local = ref 0 and next_global = ref 0 in
      for u = 0 to norgs - 1 do
        let c = instance.Instance.machines.(u) in
        if Shapley.Coalition.mem members u then begin
          for s = 0 to c - 1 do
            local_of_global.(!next_global + s) <- !next_local + s
          done;
          next_local := !next_local + c
        end;
        next_global := !next_global + c
      done;
      local_of_global
    end
  in
  let rec t =
    {
      members;
      cluster = Cluster.create ?speeds ?max_restarts ~machine_owners ~norgs ();
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

let federated t = t.ownership <> None

let visible_machines t = Cluster.present_count t.cluster

let next_event t = Kernel.Engine.next_event t.engine t.model

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

let coeff_a t = t.poly_a
let coeff_b t = t.poly_b
let coeff_c t = t.poly_c

let utility_scaled t ~org ~at = Utility.Tracker.value_scaled t.trackers.(org) ~at
let pending t = t.pending
let waiting_orgs t = Cluster.waiting_orgs t.cluster
let sole_waiting t = Cluster.sole_waiting t.cluster
let fifo_org t = Cluster.fifo_org t.cluster
let has_waiting t = Cluster.has_waiting t.cluster
let free_count t = Cluster.free_count t.cluster
