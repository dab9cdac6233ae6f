(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

let default_shares instance =
  Array.init (Instance.organizations instance) (fun u ->
      Instance.share instance u)

let argmin_ratio ~waiting ~consumption ~shares =
  match waiting with
  | [] -> invalid_arg "fair_share: nothing waiting"
  | first :: rest ->
      let ratio u = consumption u /. shares.(u) in
      List.fold_left (fun best u -> if ratio u < ratio best then u else best)
        first rest

(* FAIRSHARE consumption: completed work + elapsed-and-committed slots of
   running jobs.  Tracked incrementally: [sum_starts] is Σ start over
   running jobs, so elapsed(t) = running·t − sum_starts; the committed
   current slot adds +1 per running job, which also makes consumption react
   within a single instant (see the selection convention in DESIGN.md). *)
type usage = { mutable completed : int; mutable sum_starts : int }

let fair_share_impl ~name ~shares_of instance ~rng:_ =
  let shares = shares_of instance in
  Array.iter
    (fun s -> if s <= 0. then invalid_arg "fair_share: non-positive share")
    shares;
  let k = Instance.organizations instance in
  let usage = Array.init k (fun _ -> { completed = 0; sum_starts = 0 }) in
  let consumption view ~time u =
    let running = Cluster.running_count view.Policy.cluster u in
    float_of_int
      (usage.(u).completed
      + (running * (time + 1))
      - usage.(u).sum_starts)
  in
  Policy.make ~name
    ~on_start:(fun _view ~time:_ p ->
      let u = p.Schedule.job.Job.org in
      usage.(u).sum_starts <- usage.(u).sum_starts + p.Schedule.start)
    ~on_complete:(fun _view ~time:_ c ->
      let u = c.Cluster.job.Job.org in
      usage.(u).completed <- usage.(u).completed + (c.Cluster.finish - c.Cluster.start);
      usage.(u).sum_starts <- usage.(u).sum_starts - c.Cluster.start)
    ~on_kill:(fun _view ~time:_ k ->
      (* A killed attempt is consumption all the same: the machine was
         occupied for [k_wasted] slots (unlike ψsp, FAIRSHARE charges CPU
         time whether or not it produced anything). *)
      let u = k.Cluster.k_job.Job.org in
      usage.(u).completed <- usage.(u).completed + k.Cluster.k_wasted;
      usage.(u).sum_starts <- usage.(u).sum_starts - k.Cluster.k_start)
    ~select:(fun view ~time ->
      argmin_ratio
        ~waiting:(Cluster.waiting_orgs view.Policy.cluster)
        ~consumption:(consumption view ~time)
        ~shares)
    ()

let fair_share instance ~rng =
  fair_share_impl ~name:"fairshare" ~shares_of:default_shares instance ~rng

let ut_fair_share instance ~rng:_ =
  let shares = default_shares instance in
  let pending = Instant.create ~norgs:(Instance.organizations instance) in
  Policy.make ~name:"utfairshare"
    ~on_start:(fun _view ~time p ->
      Instant.bump pending ~time ~org:p.Schedule.job.Job.org)
    ~select:(fun view ~time ->
      argmin_ratio
        ~waiting:(Cluster.waiting_orgs view.Policy.cluster)
        ~consumption:(fun u ->
          float_of_int
            (Policy.utility_plus_pending_scaled view ~pending ~org:u ~time))
        ~shares)
    ()

let curr_fair_share instance ~rng:_ =
  let shares = default_shares instance in
  Policy.make ~name:"currfairshare"
    ~select:(fun view ~time:_ ->
      argmin_ratio
        ~waiting:(Cluster.waiting_orgs view.Policy.cluster)
        ~consumption:(fun u ->
          float_of_int (Cluster.running_count view.Policy.cluster u))
        ~shares)
    ()
