(* Differential property test of the REF engine: the domain-parallel
   size-staged engine must be BIT-identical to strictly sequential
   execution — same schedule, same utility vectors, zero Δψ between the two
   runs — for both fairness concepts and for the generic Fig. 1 REF, with
   and without machine speeds.
   This is the determinism guarantee of DESIGN.md, "Performance
   engineering", checked end-to-end through the driver.

   The same file pins the lazy φ of DESIGN.md §8: the engine's two-pass
   walk over the dense value array is bit-identical to a transcription of
   the canonical walk, and a forced choice (one waiting organization)
   computes no contribution at all. *)

open Core

(* Random instances: k in 2..6, optionally related machines. *)
let instance_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 6 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* related = bool in
      let* speeds =
        let total = Array.fold_left ( + ) 0 machines in
        array_size (return total) (oneofl [ 0.5; 1.0; 2.0 ])
      in
      let* njobs = int_range 1 20 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 40 in
           let* size = int_range 1 6 in
           return (org, release, size))
      in
      return (machines, related, speeds, jobs))
  in
  let make (machines, related, speeds, jobs) =
    let jobs =
      List.map
        (fun (org, release, size) -> Job.make ~org ~index:0 ~release ~size ())
        jobs
    in
    if related then Instance.make_related ~speeds ~machines ~jobs ~horizon:120
    else Instance.make ~machines ~jobs ~horizon:120
  in
  let arb =
    QCheck.make
      ~print:(fun raw ->
        Format.asprintf "%a" Instance.pp_detailed (make raw))
      gen
  in
  (arb, make)

let run ~workers maker instance =
  Sim.Driver.run ~workers ~instance ~rng:(Fstats.Rng.create ~seed:3) maker

let same_schedule a b =
  (* The recorded placement lists must match exactly (machine ids
     included); placements are already sorted by (start, machine). *)
  Schedule.machines a = Schedule.machines b
  && Schedule.placements a = Schedule.placements b

let identical_runs maker instance =
  let seq = run ~workers:1 maker instance in
  let par = run ~workers:4 maker instance in
  let delta, ratio = Sim.Fairness.delta_ratio ~reference:seq par in
  seq.Sim.Driver.utilities_scaled = par.Sim.Driver.utilities_scaled
  && seq.Sim.Driver.parts = par.Sim.Driver.parts
  && seq.Sim.Driver.events = par.Sim.Driver.events
  && same_schedule seq.Sim.Driver.schedule par.Sim.Driver.schedule
  && delta = 0
  && ratio = 0.

let differential_property ?(count = 40) maker ~name =
  let arb, make = instance_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "parallel REF bit-identical to sequential (%s)" name)
    ~count arb
    (fun raw -> identical_runs maker (make raw))

let ref_concept concept = Algorithms.Reference.make ~concept ()

(* Deterministic spot checks at a larger scale than the random draws — the
   exact configuration the ref_scaling bench times. *)
let test_scenario_identical () =
  List.iter
    (fun k ->
      let instance =
        Workload.Scenario.instance
          (Workload.Scenario.default ~norgs:k ~machines:8 ~horizon:6_000
             Workload.Traces.lpc_egee)
          ~seed:21
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d scenario" k)
        true
        (identical_runs Algorithms.Reference.reference instance))
    [ 3; 5 ]

(* --- lazy φ: the dense walk against the canonical one --------------------- *)

(* A transcription of the canonical walk: the mask first, then the
   decreasing submask walk, members ascending; sub-coalition values from
   [coalition_value_scaled], the grand coalition's from the direct fold
   over the driver's trackers (the engine reads their polynomials).
   Banzhaf shares are rescaled to the coalition value. *)
let canonical_phi2 ~concept st (view : Algorithms.Policy.view) ~time =
  let k = Instance.organizations view.Algorithms.Policy.instance in
  let grand = Shapley.Coalition.grand ~players:k in
  let top =
    Array.fold_left
      (fun acc tr -> acc + Utility.Tracker.value_scaled_fold tr ~at:time)
      0 view.Algorithms.Policy.trackers
  in
  let v2 sub =
    if sub = grand then top
    else Algorithms.Reference.coalition_value_scaled st ~mask:sub ~time
  in
  let weight size =
    match concept with
    | Algorithms.Reference.Shapley_value ->
        Numeric.Combinatorics.shapley_weight_float ~players:k
          ~subset:(size - 1)
    | Algorithms.Reference.Banzhaf_value -> 1. /. float_of_int (1 lsl (k - 1))
  in
  let phi = Array.make k 0. in
  let sub = ref grand in
  while !sub <> 0 do
    let s = !sub in
    let w = weight (Shapley.Coalition.size s) in
    Shapley.Coalition.iter_members
      (fun u ->
        phi.(u) <-
          phi.(u)
          +. (w *. float_of_int (v2 s - v2 (Shapley.Coalition.remove s u))))
      s;
    sub := (s - 1) land grand
  done;
  (match concept with
  | Algorithms.Reference.Shapley_value -> ()
  | Algorithms.Reference.Banzhaf_value ->
      let total = Array.fold_left ( +. ) 0. phi in
      if total <> 0. then begin
        let factor = float_of_int top /. total in
        Array.iteri (fun u x -> phi.(u) <- x *. factor) phi
      end);
  phi

(* Runs REF with every [select] first comparing the engine's contributions
   with the canonical walk's, bit for bit; returns (checks, mismatches). *)
let dense_walk_agrees ~workers ~concept instance =
  let checks = ref 0 and mismatches = ref 0 in
  let maker instance ~rng =
    let policy, st =
      Algorithms.Reference.make_with_internals ~concept ~workers () instance
        ~rng
    in
    let select view ~time =
      let got = Algorithms.Reference.contributions_scaled st ~view ~time in
      let want = canonical_phi2 ~concept st view ~time in
      incr checks;
      if
        not
          (Array.for_all2
             (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
             got want)
      then incr mismatches;
      policy.Algorithms.Policy.select view ~time
    in
    { policy with Algorithms.Policy.select }
  in
  ignore
    (Sim.Driver.run ~workers ~instance ~rng:(Fstats.Rng.create ~seed:3) maker);
  (!checks, !mismatches)

let dense_walk_property ~concept ~name =
  let arb, make = instance_gen in
  QCheck.Test.make
    ~name:(Printf.sprintf "dense φ walk bit-identical to canonical (%s)" name)
    ~count:30 arb
    (fun raw ->
      let instance = make raw in
      (* k <= 5 keeps the per-decision canonical walk cheap *)
      QCheck.assume (Instance.organizations instance <= 5);
      List.for_all
        (fun workers ->
          let checks, mismatches =
            dense_walk_agrees ~workers ~concept instance
          in
          checks > 0 && mismatches = 0)
        [ 1; 2 ])

(* --- lazy φ: forced choices compute nothing ----------------------------- *)

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect f ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())

(* The φ computations one run records: REF's walks, RAND's estimates. *)
let phi_work maker instance =
  with_metrics (fun () ->
      ignore
        (Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:5) maker);
      Obs.Metrics.counter_value (Obs.Metrics.counter "ref.phi_walks")
      + Obs.Metrics.counter_value (Obs.Metrics.counter "rand.estimates"))

let test_forced_choices_compute_nothing () =
  let jobs orgs =
    List.concat_map
      (fun org ->
        List.init 6 (fun i ->
            Job.make ~org ~index:i ~release:(3 * i) ~size:(2 + (i mod 3)) ()))
      orgs
  in
  let machines = [| 1; 2; 1 |] in
  (* Only organization 0 ever submits, so every decision — in the real
     cluster and in every sub-coalition — has one waiting organization. *)
  let lone = Instance.make ~machines ~jobs:(jobs [ 0 ]) ~horizon:80 in
  let contested = Instance.make ~machines ~jobs:(jobs [ 0; 1; 2 ]) ~horizon:80 in
  List.iter
    (fun (name, maker) ->
      Alcotest.(check int) (name ^ ": lone submitter") 0 (phi_work maker lone);
      Alcotest.(check bool)
        (name ^ ": contested instance computes φ")
        true
        (phi_work maker contested > 0))
    [
      ("ref", Algorithms.Reference.make ~workers:1 ());
      ("ref workers=2", Algorithms.Reference.make ~workers:2 ());
      ("ref-banzhaf", Algorithms.Reference.banzhaf);
      ("rand-15", Algorithms.Rand.rand15);
    ]

let () =
  Alcotest.run "parallel-ref"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            differential_property
              (ref_concept Algorithms.Reference.Shapley_value)
              ~name:"shapley";
            differential_property
              (ref_concept Algorithms.Reference.Banzhaf_value)
              ~name:"banzhaf";
            (* The generic Fig. 1 REF runs on the same coalition engine. *)
            differential_property ~count:20 Algorithms.Ref_generic.ref_psp
              ~name:"ref-generic-psp";
          ] );
      ( "scenario",
        [
          Alcotest.test_case "bench-scale instances" `Quick
            test_scenario_identical;
        ] );
      ( "lazy-phi",
        List.map QCheck_alcotest.to_alcotest
          [
            dense_walk_property ~concept:Algorithms.Reference.Shapley_value
              ~name:"shapley";
            dense_walk_property ~concept:Algorithms.Reference.Banzhaf_value
              ~name:"banzhaf";
          ]
        @ [
            Alcotest.test_case "forced choices compute nothing" `Quick
              test_forced_choices_compute_nothing;
          ] );
    ]
