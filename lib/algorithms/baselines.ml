(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

let fifo _instance ~rng:_ =
  Policy.make ~name:"fifo"
    ~select:(fun view ~time:_ -> Cluster.fifo_org view.Policy.cluster)
    ()

let fifo_select_sim sim ~time:_ = Coalition_sim.fifo_org sim

let random_greedy _instance ~rng =
  let rng = Fstats.Rng.split rng in
  Policy.make ~name:"random"
    ~select:(fun view ~time:_ ->
      let orgs = Array.of_list (Cluster.waiting_orgs view.Policy.cluster) in
      Fstats.Rng.choose rng orgs)
    ()

let round_robin instance ~rng:_ =
  let k = Instance.organizations instance in
  let cursor = ref (k - 1) in
  Policy.make ~name:"roundrobin"
    ~select:(fun view ~time:_ ->
      let rec go tried u =
        if tried > k then invalid_arg "roundrobin: nothing waiting"
        else if Cluster.waiting_count view.Policy.cluster u > 0 then begin
          cursor := u;
          u
        end
        else go (tried + 1) ((u + 1) mod k)
      in
      go 0 ((!cursor + 1) mod k))
    ()

let longest_queue _instance ~rng:_ =
  Policy.make ~name:"longest-queue"
    ~select:(fun view ~time:_ ->
      match Cluster.waiting_orgs view.Policy.cluster with
      | [] -> invalid_arg "longest-queue: nothing waiting"
      | orgs ->
          List.fold_left
            (fun best u ->
              if
                Cluster.waiting_count view.Policy.cluster u
                > Cluster.waiting_count view.Policy.cluster best
              then u
              else best)
            (List.hd orgs) (List.tl orgs))
    ()
