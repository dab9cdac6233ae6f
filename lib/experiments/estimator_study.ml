open Core

type row = {
  n : int;
  trials : int;
  violations : int;
  allowed_rate : float;
  mean_max_abs_err : float;
  tolerance : float;
}

type config = {
  players : int;
  jobs_per_org : int;
  at : int;
  epsilon : float;
  confidence : float;
  sample_counts : int list;
  trials : int;
  seed : int;
}

let default_config ?(trials = 200) () =
  {
    players = 4;
    jobs_per_org = 8;
    at = 12;
    epsilon = 0.25;
    confidence = 0.8;
    sample_counts = [ 5; 15; 75 ];
    trials;
    seed = 31337;
  }

(* The scheduling game: org u owns one machine and [jobs_per_org] unit jobs
   with staggered releases; v(C) = ψsp value of C's greedy schedule at
   [at].  Unit jobs make the value rule-independent (Prop. 5.4). *)
let game config =
  let rng = Fstats.Rng.create ~seed:config.seed in
  let jobs =
    List.concat_map
      (fun org ->
        List.init config.jobs_per_org (fun i ->
            Job.make ~org ~index:i
              ~release:(Fstats.Rng.int rng (config.at - 2))
              ~size:1 ()))
      (List.init config.players Fun.id)
  in
  let instance =
    Instance.make
      ~machines:(Array.make config.players 1)
      ~jobs
      ~horizon:(config.at + 1)
  in
  let value mask =
    Algorithms.Coalition_sim.fifo_value ~instance ~members:mask ~at:config.at
  in
  Shapley.Game.memoize (Shapley.Game.make ~players:config.players value)

let run config =
  let g = game config in
  let exact = Shapley.Exact.subsets g in
  let v_grand =
    Shapley.Game.value g (Shapley.Coalition.grand ~players:config.players)
  in
  let tolerance = config.epsilon /. float_of_int config.players *. v_grand in
  let hoeffding_n =
    Shapley.Sample.sample_count ~players:config.players
      ~epsilon:config.epsilon ~confidence:config.confidence
  in
  let rng = Fstats.Rng.create ~seed:(config.seed lxor 0xe57) in
  List.map
    (fun n ->
      let violations = ref 0 in
      let err_sum = ref 0. in
      for _ = 1 to config.trials do
        let est = Shapley.Sample.estimate ~n ~rng:(Fstats.Rng.split rng) g in
        let max_err = ref 0. in
        Array.iteri
          (fun u e -> max_err := Float.max !max_err (Float.abs (e -. exact.(u))))
          est;
        err_sum := !err_sum +. !max_err;
        if !max_err > tolerance then incr violations
      done;
      {
        n;
        trials = config.trials;
        violations = !violations;
        allowed_rate = 1. -. config.confidence;
        mean_max_abs_err = !err_sum /. float_of_int config.trials;
        tolerance;
      })
    (config.sample_counts @ [ hoeffding_n ])

let pp ppf rows =
  Format.fprintf ppf "  %-8s %-8s %-12s %-14s %-14s@." "N" "trials"
    "violations" "mean max err" "tolerance";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8d %-8d %-12s %-14.1f %-14.1f@." r.n r.trials
        (Printf.sprintf "%d (<= %.0f%%)" r.violations (100. *. r.allowed_rate))
        r.mean_max_abs_err r.tolerance)
    rows
