type row = { label : string; per_algorithm : (string * float * float) list }

let evaluate_set ~label ~algorithms ~instances ~seed make_instance =
  let summaries = List.map (fun (name, _) -> (name, Fstats.Summary.create ())) algorithms in
  for i = 1 to instances do
    let instance = make_instance ~seed:(seed + (7919 * i)) in
    let _, evals =
      Sim.Fairness.evaluate ~instance ~seed:(seed lxor (i * 131))
        (List.map snd algorithms)
    in
    List.iter2
      (fun (name, _) (e : Sim.Fairness.evaluation) ->
        Fstats.Summary.add (List.assoc name summaries) e.Sim.Fairness.ratio)
      algorithms evals
  done;
  {
    label;
    per_algorithm =
      List.map
        (fun (name, s) ->
          (name, Fstats.Summary.mean s, Fstats.Summary.stddev s))
        summaries;
  }

let lpc = Workload.Traces.lpc_egee

let rand_sample_sweep ?(samples = [ 5; 15; 75 ]) ?(instances = 5)
    ?(horizon = 50_000) ~seed () =
  let make_instance ~seed =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon lpc)
      ~seed
  in
  List.map
    (fun n ->
      evaluate_set
        ~label:(Printf.sprintf "N=%d" n)
        ~algorithms:
          [ (Printf.sprintf "rand-%d" n, Algorithms.Rand.rand ~n) ]
        ~instances ~seed make_instance)
    samples

let endowment_sweep ?(instances = 5) ?(horizon = 50_000) ~seed () =
  let algorithms =
    [
      ("rand-15", Algorithms.Rand.rand15);
      ("directcontr", Algorithms.Direct_contr.direct_contr);
      ("fairshare", Algorithms.Fair_share.fair_share);
      ("roundrobin", Algorithms.Baselines.round_robin);
    ]
  in
  List.map
    (fun (label, endowment) ->
      let make_instance ~seed =
        Workload.Scenario.instance
          (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon ~endowment
             lpc)
          ~seed
      in
      evaluate_set ~label ~algorithms ~instances ~seed make_instance)
    [
      ("zipf(1.0)", Workload.Scenario.Zipf 1.0);
      ("uniform", Workload.Scenario.Uniform);
    ]

let load_sweep ?(loads = [ 0.3; 0.6; 0.9; 1.2 ]) ?(instances = 5)
    ?(horizon = 50_000) ~seed () =
  let algorithms =
    [
      ("rand-15", Algorithms.Rand.rand15);
      ("fairshare", Algorithms.Fair_share.fair_share);
      ("roundrobin", Algorithms.Baselines.round_robin);
    ]
  in
  List.map
    (fun load ->
      let make_instance ~seed =
        Workload.Scenario.instance
          (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon ~load lpc)
          ~seed
      in
      evaluate_set
        ~label:(Printf.sprintf "load=%.1f" load)
        ~algorithms ~instances ~seed make_instance)
    loads

let concept_sweep ?(instances = 5) ?(horizon = 50_000) ~seed () =
  let make_instance ~seed =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:4 ~machines:12 ~horizon lpc)
      ~seed
  in
  [
    evaluate_set ~label:"vs shapley"
      ~algorithms:
        [
          ("ref-banzhaf", Algorithms.Reference.banzhaf);
          ("rand-15", Algorithms.Rand.rand15);
          ("fairshare", Algorithms.Fair_share.fair_share);
        ]
      ~instances ~seed make_instance;
  ]

let decay_sweep ?(half_lives = [ 2_000.; 10_000.; 50_000. ]) ?(instances = 5)
    ?(horizon = 200_000) ~seed () =
  let make_instance ~seed =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon lpc)
      ~seed
  in
  let base =
    evaluate_set ~label:"no decay"
      ~algorithms:
        [
          ("fairshare", Algorithms.Fair_share.fair_share);
          ("directcontr", Algorithms.Direct_contr.direct_contr);
        ]
      ~instances ~seed make_instance
  in
  base
  :: List.map
       (fun hl ->
         evaluate_set
           ~label:(Printf.sprintf "hl=%g" hl)
           ~algorithms:
             [
               ("fairshare", Algorithms.Decayed.fair_share ~half_life:hl);
               ("directcontr", Algorithms.Decayed.direct_contr ~half_life:hl);
             ]
           ~instances ~seed make_instance)
       half_lives

type manipulation_row = {
  scheduler : string;
  psi_merged : float;
  psi_split : float;
  done_merged : int;
  done_split : int;
  splitting_pays : bool;
}

let manipulation_sweep () =
  let competitor =
    List.init 20 (fun i ->
        Core.Job.make ~org:1 ~index:i ~release:(i * 5) ~size:6 ())
  in
  let horizon = 200 in
  let run_with maker jobs0 =
    let instance =
      Core.Instance.make ~machines:[| 1; 1 |] ~jobs:(jobs0 @ competitor)
        ~horizon
    in
    let r = Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:7) maker in
    let finish =
      List.fold_left
        (fun acc (p : Core.Schedule.placement) ->
          if p.Core.Schedule.job.Core.Job.org = 0 then
            Stdlib.max acc (Core.Schedule.completion p)
          else acc)
        0
        (Core.Schedule.placements r.Sim.Driver.schedule)
    in
    ((Sim.Driver.utilities r).(0), finish)
  in
  let merged = [ Core.Job.make ~org:0 ~index:0 ~release:0 ~size:60 () ] in
  let split =
    List.init 12 (fun i -> Core.Job.make ~org:0 ~index:i ~release:0 ~size:5 ())
  in
  let flow_maker =
    Algorithms.Ref_generic.make_with
      (fun inst ->
        Utility.Functions.neg_flow_time
          ~all_jobs:(Array.to_list inst.Core.Instance.jobs))
      ~name:"ref-flow" ()
  in
  List.map
    (fun (scheduler, maker) ->
      let psi_merged, done_merged = run_with maker merged in
      let psi_split, done_split = run_with maker split in
      {
        scheduler;
        psi_merged;
        psi_split;
        done_merged;
        done_split;
        (* Splitting pays when it completes the same work strictly sooner. *)
        splitting_pays = done_split < done_merged;
      })
    [
      ("ref (psp)", Algorithms.Reference.reference);
      ("ref (flow time)", flow_maker);
    ]

let pp_manipulation ppf rows =
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-18s merged: psi=%-8.0f done@@%-4d | split: psi=%-8.0f done@@%-4d          | splitting pays? %b@."
        r.scheduler r.psi_merged r.done_merged r.psi_split r.done_split
        r.splitting_pays)
    rows

let pp_rows ppf rows =
  List.iter
    (fun row ->
      Format.fprintf ppf "%-12s" row.label;
      List.iter
        (fun (name, mean, std) ->
          Format.fprintf ppf " | %s: %10.2f ± %-10.2f" name mean std)
        row.per_algorithm;
      Format.fprintf ppf "@.")
    rows
