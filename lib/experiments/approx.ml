open Core

(* The approximation-tier study (DESIGN.md §13): where exact REF stops being
   feasible and how far the sampled estimator drifts from it.

   Two sweeps:

   - [audit] (small k, exact feasible): one scheduling game per k — unit
     jobs, so by Proposition 5.4 the coalition value is rule-independent and
     the FPRAS guarantee of Theorem 5.6 applies.  Exact Shapley via the
     subset sum, sampled via the Hoeffding-sized permutation estimate; the
     row records both wall times and the measured max |φ̂ − φ| against the
     bound ε/k · v(grand).

   - [scaling] (large k): a full online simulation with the RAND policy at
     sample counts the paper uses (N = 15/75 tier), at k far beyond REF's
     2^k wall.  Exact REF runs alongside while k stays within its practical
     range, so the rows show the crossover; beyond it [exact_ms] is [None]
     (2^k sub-schedules would not fit time or memory — at k = 50 that is
     ~10^15 simulations). *)

type audit_row = {
  k : int;
  n : int;  (* Hoeffding sample count for (epsilon, confidence) *)
  epsilon : float;
  confidence : float;
  exact_ms : float;
  sampled_ms : float;
  max_abs_err : float;
  tolerance : float;  (* ε/k · v(grand) *)
  within_bound : bool;
}

type scaling_row = {
  s_k : int;
  s_n : int;  (* sampled joining orders *)
  s_jobs : int;
  s_events : int;
  rand_ms : float;
  exact_ms_opt : float option;  (* REF on the same workload, while feasible *)
}

let ms f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, (Unix.gettimeofday () -. t0) *. 1000.)

(* Unit-job scheduling game at horizon [at]: org u owns one machine and
   [jobs_per_org] unit jobs with staggered releases (same construction as
   Estimator_study, parameterized by k). *)
let unit_game ~k ~jobs_per_org ~at ~seed =
  let rng = Fstats.Rng.create ~seed in
  let jobs =
    List.concat_map
      (fun org ->
        List.init jobs_per_org (fun i ->
            Job.make ~org ~index:i
              ~release:(Fstats.Rng.int rng (Stdlib.max 1 (at - 2)))
              ~size:1 ()))
      (List.init k Fun.id)
  in
  let instance =
    Instance.make ~machines:(Array.make k 1) ~jobs ~horizon:(at + 1)
  in
  let value mask =
    Algorithms.Coalition_sim.fifo_value ~instance ~members:mask ~at
  in
  Shapley.Game.memoize (Shapley.Game.make ~players:k value)

let audit_one ~k ~jobs_per_org ~at ~epsilon ~confidence ~seed =
  let g = unit_game ~k ~jobs_per_org ~at ~seed in
  let n = Shapley.Sample.sample_count ~players:k ~epsilon ~confidence in
  let exact, exact_ms = ms (fun () -> Shapley.Exact.subsets g) in
  let rng = Fstats.Rng.create ~seed:(seed lxor 0xe57) in
  let est, sampled_ms = ms (fun () -> Shapley.Sample.estimate ~n ~rng g) in
  let v_grand = Shapley.Game.value g (Shapley.Coalition.grand ~players:k) in
  let tolerance = epsilon /. float_of_int k *. v_grand in
  let max_abs_err =
    snd
      (Array.fold_left
         (fun (u, m) e ->
           (u + 1, Float.max m (Float.abs (e -. exact.(u)))))
         (0, 0.) est)
  in
  {
    k;
    n;
    epsilon;
    confidence;
    exact_ms;
    sampled_ms;
    max_abs_err;
    tolerance;
    within_bound = max_abs_err <= tolerance;
  }

let audit ?(ks = [ 4; 5; 6; 8 ]) ?(jobs_per_org = 8) ?(at = 12)
    ?(epsilon = 0.5) ?(confidence = 0.9) ~seed () =
  List.map
    (fun k -> audit_one ~k ~jobs_per_org ~at ~epsilon ~confidence ~seed)
    ks

(* Synthetic k-org workload for the online scaling sweep: one machine per
   org, unit jobs with bursty staggered releases — enough contention that
   the policy is consulted at every instant. *)
let scaling_instance ~k ~jobs_per_org ~horizon ~seed =
  let rng = Fstats.Rng.create ~seed:(seed + k) in
  let jobs =
    List.concat_map
      (fun org ->
        List.init jobs_per_org (fun i ->
            Job.make ~org ~index:i
              ~release:(Fstats.Rng.int rng (Stdlib.max 1 (horizon / 2)))
              ~size:(1 + Fstats.Rng.int rng 3)
              ()))
      (List.init k Fun.id)
  in
  Instance.make ~machines:(Array.make k 1) ~jobs ~horizon

(* REF's practical range on this workload shape; beyond it the exact column
   is reported as infeasible rather than attempted. *)
let exact_feasible_k = 8

let scaling_one ~k ~n ~jobs_per_org ~horizon ~seed =
  let instance = scaling_instance ~k ~jobs_per_org ~horizon ~seed in
  let run maker =
    let rng = Fstats.Rng.create ~seed:(seed lxor 0x5ca1e) in
    Sim.Driver.run ~record:false ~workers:1 ~instance ~rng maker
  in
  let rand_res = run (Algorithms.Rand.rand ~n) in
  let exact_ms_opt =
    if k <= exact_feasible_k then
      Some ((run Algorithms.Reference.reference).Sim.Driver.wall_seconds *. 1000.)
    else None
  in
  {
    s_k = k;
    s_n = n;
    s_jobs = Array.length instance.Instance.jobs;
    s_events = rand_res.Sim.Driver.events;
    rand_ms = rand_res.Sim.Driver.wall_seconds *. 1000.;
    exact_ms_opt;
  }

let scaling ?(ks = [ 6; 8; 12; 24; 50 ]) ?(n = 15) ?(jobs_per_org = 6)
    ?(horizon = 400) ~seed () =
  List.map (fun k -> scaling_one ~k ~n ~jobs_per_org ~horizon ~seed) ks

let pp_audit ppf rows =
  Format.fprintf ppf "  %-4s %-8s %-10s %-10s %-12s %-12s %-6s@." "k" "N"
    "exact ms" "rand ms" "max err" "tolerance" "ok";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-4d %-8d %-10.1f %-10.1f %-12.2f %-12.2f %-6s@."
        r.k r.n r.exact_ms r.sampled_ms r.max_abs_err r.tolerance
        (if r.within_bound then "yes" else "NO"))
    rows

let pp_scaling ppf rows =
  Format.fprintf ppf "  %-4s %-6s %-8s %-8s %-10s %-10s@." "k" "N" "jobs"
    "events" "rand ms" "exact ms";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-4d %-6d %-8d %-8d %-10.1f %-10s@." r.s_k r.s_n
        r.s_jobs r.s_events r.rand_ms
        (match r.exact_ms_opt with
        | Some m -> Printf.sprintf "%.1f" m
        | None -> "infeasible"))
    rows
