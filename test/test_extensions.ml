(* Tests for the model extensions: related machines (speeds threaded through
   the whole fairness pipeline) and rigid parallel jobs. *)

open Core
module Rigid = Extensions.Rigid

(* --- Related machines --------------------------------------------------- *)

let related_instance () =
  let jobs =
    List.init 10 (fun i ->
        Job.make ~org:(i mod 2) ~index:0 ~release:i ~size:8 ())
  in
  Instance.make_related
    ~speeds:[| 2.0; 1.0; 0.5 |]
    ~machines:[| 2; 1 |] ~jobs ~horizon:100

let test_speed_accessors () =
  let i = related_instance () in
  Alcotest.(check (float 1e-9)) "machine 0" 2.0 (Instance.machine_speed i 0);
  Alcotest.(check (float 1e-9)) "machine 2" 0.5 (Instance.machine_speed i 2);
  Alcotest.(check (array (float 1e-9)))
    "org 0 speeds" [| 2.0; 1.0 |]
    (Instance.speeds_of_org i 0);
  Alcotest.(check (array (float 1e-9)))
    "org 1 speeds" [| 0.5 |]
    (Instance.speeds_of_org i 1);
  let identical = Instance.make ~machines:[| 2 |] ~jobs:[] ~horizon:5 in
  Alcotest.(check (float 1e-9)) "identical default" 1.0
    (Instance.machine_speed identical 1)

let test_speed_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Instance.make: speeds length must match machine count")
    (fun () ->
      ignore
        (Instance.make_related ~speeds:[| 1.0 |] ~machines:[| 2 |] ~jobs:[]
           ~horizon:5));
  Alcotest.check_raises "non-positive speed"
    (Invalid_argument "Instance.make: speed <= 0") (fun () ->
      ignore
        (Instance.make_related ~speeds:[| 1.0; 0.0 |] ~machines:[| 2 |]
           ~jobs:[] ~horizon:5))

let test_cluster_durations () =
  let c =
    Cluster.create ~record:true
      ~speeds:[| 2.0; 0.5 |]
      ~machine_owners:[| 0; 0 |] ~norgs:1 ()
  in
  Cluster.release c (Job.make ~org:0 ~index:0 ~release:0 ~size:10 ());
  Cluster.release c (Job.make ~org:0 ~index:1 ~release:0 ~size:10 ());
  let fast = Cluster.start_front c ~org:0 ~time:0 ~machine:0 () in
  let slow = Cluster.start_front c ~org:0 ~time:0 ~machine:1 () in
  Alcotest.(check int) "fast wall time" 5 fast.Schedule.duration;
  Alcotest.(check int) "slow wall time" 20 slow.Schedule.duration;
  Alcotest.(check int) "completion uses duration" 5
    (Schedule.completion fast);
  Alcotest.(check int) "heap ordered by wall finish" 5
    (Cluster.next_completion c);
  Alcotest.(check (option int)) "fastest free none" None
    (Cluster.fastest_free_machine c)

let test_driver_on_related () =
  (* Driver utilities must equal ψsp recomputed from the recorded schedule
     (both duration-aware). *)
  let instance = related_instance () in
  List.iter
    (fun name ->
      let r =
        Sim.Driver.run ~instance
          ~rng:(Fstats.Rng.create ~seed:3)
          (Algorithms.Registry.find_exn name)
      in
      let sched = r.Sim.Driver.schedule in
      Alcotest.(check bool)
        (name ^ " feasible") true
        (Result.is_ok (Schedule.check_feasible sched));
      Array.iteri
        (fun org v ->
          Alcotest.(check int)
            (Printf.sprintf "%s org %d utility" name org)
            (Utility.Psp.of_schedule_scaled sched ~org
               ~at:instance.Instance.horizon)
            v)
        r.Sim.Driver.utilities_scaled)
    [ "ref"; "rand-15"; "fairshare"; "directcontr"; "fifo" ]

let test_gadget_sweep () =
  List.iter
    (fun (r : Sim.Related.gadget_row) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "work ratio 1/%d" r.Sim.Related.ratio)
        (1. /. float_of_int r.Sim.Related.ratio)
        r.Sim.Related.work_ratio)
    (Sim.Related.gadget_sweep ~ratios:[ 1; 2; 5; 10 ] ~work:30 ())

let test_executed_work () =
  let instance = Sim.Related.speed_gadget ~ratio:4 ~work:10 in
  let r =
    Sim.Driver.run ~instance
      ~rng:(Fstats.Rng.create ~seed:1)
      Sim.Related.pin_fastest
  in
  Alcotest.(check (float 1e-9))
    "all 40 units executed by the fast machine" 40.
    (Sim.Related.executed_work r.Sim.Driver.schedule ~instance ~upto:10)

(* --- Rigid parallel jobs -------------------------------------------------- *)

let rigid ~org ~index ~release ~size ~width =
  { Rigid.job = Job.make ~org ~index ~release ~size (); width }

let test_rigid_validation () =
  Alcotest.check_raises "width too big"
    (Invalid_argument "Rigid.make_instance: width out of range") (fun () ->
      ignore
        (Rigid.make_instance ~machines:2
           ~jobs:[ rigid ~org:0 ~index:0 ~release:0 ~size:1 ~width:3 ]
           ~horizon:10))

let test_rigid_simulation () =
  (* 3 machines; a 2-wide job and two 1-wide jobs at t=0, then another
     2-wide at t=1. *)
  let jobs =
    [
      rigid ~org:0 ~index:0 ~release:0 ~size:4 ~width:2;
      rigid ~org:1 ~index:0 ~release:0 ~size:3 ~width:1;
      rigid ~org:1 ~index:1 ~release:0 ~size:3 ~width:1;
      rigid ~org:2 ~index:0 ~release:1 ~size:2 ~width:2;
    ]
  in
  let instance = Rigid.make_instance ~machines:3 ~jobs ~horizon:12 in
  List.iter
    (fun policy ->
      let run = Rigid.simulate instance policy in
      Alcotest.(check bool)
        (Rigid.policy_name policy ^ " greedy & feasible")
        true
        (Result.is_ok (Rigid.check_rigid_greedy instance run));
      Alcotest.(check int)
        (Rigid.policy_name policy ^ " all work done")
        (8 + 3 + 3 + 4) run.Rigid.busy_time)
    [ Rigid.Fifo_fit; Rigid.Widest_fit; Rigid.Narrowest_fit ]

let test_rigid_starvation () =
  List.iter
    (fun (r : Rigid.gadget_row) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "1/m for m=%d" r.Rigid.m)
        (1. /. float_of_int r.Rigid.m)
        r.Rigid.ratio;
      Alcotest.(check (float 1e-9))
        "wide-first saturates" 1.0 r.Rigid.wide_first)
    (Rigid.gadget_sweep ~ms:[ 2; 3; 8 ] ~size:20)

let test_rigid_greedy_validator_catches () =
  let jobs = [ rigid ~org:0 ~index:0 ~release:0 ~size:2 ~width:1 ] in
  let instance = Rigid.make_instance ~machines:2 ~jobs ~horizon:10 in
  (* Hand-build a lazy run: the job starts at 5 though machines idle. *)
  let lazy_run =
    {
      Rigid.placements = [ (List.hd instance.Rigid.jobs, 5) ];
      busy_time = 2;
      utilization = 0.1;
      killed = 0;
      abandoned = 0;
      wasted = 0;
      stats = Kernel.Stats.create ();
    }
  in
  Alcotest.(check bool)
    "non-greedy detected" true
    (Result.is_error (Rigid.check_rigid_greedy instance lazy_run))

(* --- Preemptive slot scheduler --------------------------------------------- *)

let test_preemptive_conservation () =
  (* All work completes when capacity suffices, parts are conserved, and a
     lone organization gets everything. *)
  let jobs =
    List.init 6 (fun i -> Job.make ~org:0 ~index:i ~release:0 ~size:5 ())
  in
  let instance = Instance.make ~machines:[| 2 |] ~jobs ~horizon:40 in
  let run = Extensions.Preemptive.simulate ~instance Extensions.Preemptive.Equal_share in
  Alcotest.(check int) "all jobs complete" 6 run.Extensions.Preemptive.completed_jobs;
  Alcotest.(check int) "all parts executed" 30 run.Extensions.Preemptive.parts.(0)

let test_preemptive_equal_share_balances () =
  (* Two identical saturated orgs on one machine: equal shares of parts. *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 10 (fun i -> Job.make ~org ~index:i ~release:0 ~size:10 ()))
      [ 0; 1 ]
  in
  let instance = Instance.make ~machines:[| 1; 0 |] ~jobs ~horizon:100 in
  let run =
    Extensions.Preemptive.simulate ~instance Extensions.Preemptive.Equal_share
  in
  let p = run.Extensions.Preemptive.parts in
  Alcotest.(check bool)
    (Printf.sprintf "balanced parts %d vs %d" p.(0) p.(1))
    true
    (abs (p.(0) - p.(1)) <= 2);
  Alcotest.(check int) "capacity exhausted" 100 (p.(0) + p.(1))

let test_preemptive_delta_ratio () =
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:3 ~machines:6 ~horizon:10_000
         Workload.Traces.lpc_egee)
      ~seed:5
  in
  let reference =
    Sim.Driver.run ~record:false ~instance
      ~rng:(Fstats.Rng.create ~seed:1)
      Algorithms.Reference.reference
  in
  let run =
    Extensions.Preemptive.simulate ~instance
      Extensions.Preemptive.Utility_balance
  in
  let delta, ratio = Extensions.Preemptive.delta_ratio ~reference run in
  Alcotest.(check bool) "delta non-negative" true (delta >= 0);
  Alcotest.(check bool) "ratio finite" true (Float.is_finite ratio);
  (* Preemption respects the same capacity: parts cannot exceed m·T. *)
  Alcotest.(check bool) "parts bounded" true
    (Array.fold_left ( + ) 0 run.Extensions.Preemptive.parts <= 6 * 10_000)

let () =
  Alcotest.run "extensions"
    [
      ( "related-machines",
        [
          Alcotest.test_case "speed accessors" `Quick test_speed_accessors;
          Alcotest.test_case "speed validation" `Quick test_speed_validation;
          Alcotest.test_case "cluster durations" `Quick test_cluster_durations;
          Alcotest.test_case "driver + algorithms on related" `Quick
            test_driver_on_related;
          Alcotest.test_case "gadget: 1/ratio work loss" `Quick
            test_gadget_sweep;
          Alcotest.test_case "executed work" `Quick test_executed_work;
        ] );
      ( "preemptive",
        [
          Alcotest.test_case "conservation" `Quick
            test_preemptive_conservation;
          Alcotest.test_case "equal share balances" `Quick
            test_preemptive_equal_share_balances;
          Alcotest.test_case "delta ratio" `Quick test_preemptive_delta_ratio;
        ] );
      ( "rigid-jobs",
        [
          Alcotest.test_case "validation" `Quick test_rigid_validation;
          Alcotest.test_case "simulation invariants" `Quick
            test_rigid_simulation;
          Alcotest.test_case "starvation gadget 1/m" `Quick
            test_rigid_starvation;
          Alcotest.test_case "greedy validator" `Quick
            test_rigid_greedy_validator_catches;
        ] );
    ]
