open Core

(* Figure 2's schedule (reconstructed so that every number quoted in the
   caption matches): three machines, all jobs released at 0.

     M1: J1(0,3)  J4(3,6)  J8(9,3)
     M2: J2(0,4)  J6(4,6)  J9(10,4)
     M3: J3(0,3)  J5(3,3)  J7(6,3)  J(2)1(9,5)

   Organization 1 owns J1..J9; organization 2 owns the 5-unit job started at
   t = 9, which is why J9 only starts at 10. *)
let o1_pieces =
  [ (0, 3); (0, 4); (0, 3); (3, 6); (3, 3); (4, 6); (6, 3); (9, 3); (10, 4) ]

let figure2_schedule () = o1_pieces

type fig2 = {
  psi_o1_at_13 : float;
  psi_o1_at_14 : float;
  flow_time_at_14 : int;
  gain_without_competitor : float;
  loss_delaying_j6 : float;
  loss_dropping_j9 : float;
}

let psi pieces ~at =
  float_of_int (Utility.Psp.of_pieces_scaled pieces ~at) /. 2.

let figure2 () =
  let at13 = psi o1_pieces ~at:13 in
  let at14 = psi o1_pieces ~at:14 in
  (* All jobs released at 0, so flow time = Σ completions. *)
  let flow = List.fold_left (fun acc (s, p) -> acc + s + p) 0 o1_pieces in
  let without_competitor =
    List.map (fun (s, p) -> if (s, p) = (10, 4) then (9, p) else (s, p)) o1_pieces
  in
  let delayed_j6 =
    List.map (fun (s, p) -> if (s, p) = (4, 6) then (5, p) else (s, p)) o1_pieces
  in
  let dropped_j9 = List.filter (fun (s, p) -> (s, p) <> (10, 4)) o1_pieces in
  {
    psi_o1_at_13 = at13;
    psi_o1_at_14 = at14;
    flow_time_at_14 = flow;
    gain_without_competitor = psi without_competitor ~at:14 -. at14;
    loss_delaying_j6 = at14 -. psi delayed_j6 ~at:14;
    loss_dropping_j9 = at14 -. psi dropped_j9 ~at:14;
  }

type utilization_row = {
  m : int;
  p : int;
  greedy_worst : float;
  greedy_best : float;
  optimal : float;
  ratio : float;
}

let utilization_sweep params =
  List.map
    (fun (m, p) ->
      let instance = Sim.Utilization.figure7_instance ~m ~p in
      (* Worst greedy: serve organization 0 (the short jobs) first — FCFS
         with ties to the lowest id does exactly that.  Best greedy: serve
         the long jobs first. *)
      let worst =
        Sim.Utilization.run_utilization ~instance ~seed:1 Algorithms.Baselines.fifo
      in
      let longs_first _instance ~rng:_ =
        Algorithms.Policy.make ~name:"longs-first"
          ~select:(fun view ~time:_ ->
            match Cluster.waiting_orgs view.Algorithms.Policy.cluster with
            | orgs when List.mem 1 orgs -> 1
            | u :: _ -> u
            | [] -> invalid_arg "longs-first: nothing waiting")
          ()
      in
      let best =
        Sim.Utilization.run_utilization ~instance ~seed:1 longs_first
      in
      let optimal =
        float_of_int
          (Sim.Utilization.optimal_busy_time ~instance
             ~upto:instance.Instance.horizon)
        /. float_of_int (Instance.total_machines instance * instance.Instance.horizon)
      in
      { m; p; greedy_worst = worst; greedy_best = best; optimal;
        ratio = worst /. optimal })
    params

(* Proposition 5.5: organizations a, b, c with one machine each; a and b
   release two unit jobs each at t = 0; c has none.  Values at t = 2 are
   computed by running the FCFS greedy schedule of each coalition (for unit
   jobs every greedy schedule has the same value — Proposition 5.4). *)
let prop55_instance =
  lazy
    (let jobs =
       [
         Job.make ~org:0 ~index:0 ~release:0 ~size:1 ();
         Job.make ~org:0 ~index:1 ~release:0 ~size:1 ();
         Job.make ~org:1 ~index:0 ~release:0 ~size:1 ();
         Job.make ~org:1 ~index:1 ~release:0 ~size:1 ();
       ]
     in
     Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:2)

let coalition_value mask =
  Algorithms.Coalition_sim.fifo_value
    ~instance:(Lazy.force prop55_instance)
    ~members:mask ~at:2

let prop55_values () =
  let grand = Shapley.Coalition.grand ~players:3 in
  List.filter_map
    (fun mask ->
      if mask = Shapley.Coalition.empty then None
      else Some (mask, coalition_value mask))
    (Shapley.Coalition.subcoalitions grand)

let prop55_is_supermodular () =
  let game = Shapley.Game.make ~players:3 coalition_value in
  Shapley.Game.is_supermodular game
