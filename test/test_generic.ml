(* Tests for the generic-utility machinery (Functions, Ref_generic) and the
   Gantt renderer. *)

open Core

(* --- Utility.Functions ---------------------------------------------------- *)

let sample_schedule () =
  let j1 = Job.make ~org:0 ~index:0 ~release:0 ~size:3 () in
  let j2 = Job.make ~org:0 ~index:1 ~release:1 ~size:2 () in
  let j3 = Job.make ~org:1 ~index:0 ~release:0 ~size:4 () in
  let s =
    Schedule.of_placements ~machines:2
      [
        Schedule.placement ~job:j1 ~start:0 ~machine:0 ();
        Schedule.placement ~job:j2 ~start:3 ~machine:0 ();
        Schedule.placement ~job:j3 ~start:0 ~machine:1 ();
      ]
  in
  (s, [ j1; j2; j3 ])

let test_functions () =
  let s, all_jobs = sample_schedule () in
  let eval (u : Utility.Functions.t) org =
    u.Utility.Functions.eval s ~org ~at:10
  in
  Alcotest.(check (float 1e-9))
    "psp equals module"
    (Utility.Psp.of_schedule s ~org:0 ~at:10)
    (eval Utility.Functions.psp 0);
  Alcotest.(check (float 1e-9)) "throughput org0" 2.
    (eval Utility.Functions.throughput 0);
  Alcotest.(check (float 1e-9)) "cpu time org0" 5.
    (eval Utility.Functions.cpu_time 0);
  Alcotest.(check (float 1e-9)) "neg waiting org0" (-2.)
    (eval Utility.Functions.neg_waiting 0);
  let neg_flow = Utility.Functions.neg_flow_time ~all_jobs in
  Alcotest.(check (float 1e-9)) "neg flow org0" (-.float_of_int (3 + 4))
    (neg_flow.Utility.Functions.eval s ~org:0 ~at:10);
  Alcotest.(check bool) "registry" true
    (Utility.Functions.by_name "psp" <> None);
  Alcotest.(check bool) "unknown" true
    (Utility.Functions.by_name "nope" = None)

(* --- Ref_generic ------------------------------------------------------------ *)

let random_instance ~seed =
  let rng = Fstats.Rng.create ~seed in
  let jobs =
    List.init
      (8 + Fstats.Rng.int rng 10)
      (fun _ ->
        Job.make
          ~org:(Fstats.Rng.int rng 3)
          ~index:0
          ~release:(Fstats.Rng.int rng 15)
          ~size:(1 + Fstats.Rng.int rng 5)
          ())
  in
  Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:60

let run instance name =
  Sim.Driver.run ~instance
    ~rng:(Fstats.Rng.create ~seed:1)
    (Algorithms.Registry.find_exn name)

let test_ref_generic_structural () =
  for seed = 1 to 5 do
    let instance = random_instance ~seed in
    let r = run instance "ref-generic-psp" in
    let sched = r.Sim.Driver.schedule in
    Alcotest.(check bool) "feasible" true
      (Result.is_ok (Schedule.check_feasible sched));
    Alcotest.(check bool) "fifo" true
      (Result.is_ok (Schedule.check_fifo sched));
    Alcotest.(check bool) "greedy" true
      (Result.is_ok
         (Schedule.check_greedy sched
            ~all_jobs:(Array.to_list instance.Instance.jobs)
            ~upto:instance.Instance.horizon))
  done

let test_ref_generic_close_to_ref () =
  (* The literal Fig. 1 implementation and the ψsp-specialized REF agree up
     to tie-breaking: the utility vectors stay within 1% (L1) of the total
     value. *)
  for seed = 1 to 6 do
    let instance = random_instance ~seed:(100 + seed) in
    let a = run instance "ref" and b = run instance "ref-generic-psp" in
    let ua = a.Sim.Driver.utilities_scaled
    and ub = b.Sim.Driver.utilities_scaled in
    let v = Array.fold_left ( + ) 0 ua in
    let gap = ref 0 in
    Array.iteri (fun i x -> gap := !gap + abs (x - ub.(i))) ua;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: gap %d vs v %d" seed !gap v)
      true
      (float_of_int !gap <= 0.01 *. float_of_int v +. 4.)
  done

let test_ref_generic_other_utility_runs () =
  (* The general algorithm with a different utility still yields a valid
     greedy schedule (the fairness target changes, not feasibility). *)
  let instance = random_instance ~seed:42 in
  let maker =
    Algorithms.Ref_generic.make ~utility:Utility.Functions.cpu_time ()
  in
  let r =
    Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:1) maker
  in
  Alcotest.(check bool) "feasible" true
    (Result.is_ok (Schedule.check_feasible r.Sim.Driver.schedule));
  Alcotest.(check bool) "greedy" true
    (Result.is_ok
       (Schedule.check_greedy r.Sim.Driver.schedule
          ~all_jobs:(Array.to_list instance.Instance.jobs)
          ~upto:instance.Instance.horizon))

let test_ref_generic_federated () =
  (* Lends and reclaims move machines between the sub-coalitions' what-if
     schedules (federated simulators); the driver's schedule stays a
     feasible greedy one and is bit-identical across worker counts. *)
  let module FE = Federation.Event in
  let federation =
    Federation.Model.scripted
      [
        { FE.time = 5; event = FE.Lend { org = 0; to_org = 1; machines = [ 0 ] } };
        { FE.time = 12; event = FE.Lend { org = 2; to_org = 0; machines = [ 2 ] } };
        { FE.time = 20; event = FE.Reclaim { org = 0; machines = [ 0 ] } };
        { FE.time = 33; event = FE.Reclaim { org = 2; machines = [ 2 ] } };
      ]
  in
  for seed = 1 to 4 do
    let instance = random_instance ~seed:(200 + seed) in
    let run workers =
      Sim.Driver.run ~workers ~federation ~instance
        ~rng:(Fstats.Rng.create ~seed:1)
        (Algorithms.Registry.find_exn "ref-generic-psp")
    in
    let seq = run 1 and par = run 2 in
    let sched = seq.Sim.Driver.schedule in
    Alcotest.(check bool) "feasible" true
      (Result.is_ok (Schedule.check_feasible sched));
    Alcotest.(check bool) "greedy" true
      (Result.is_ok
         (Schedule.check_greedy sched
            ~all_jobs:(Array.to_list instance.Instance.jobs)
            ~upto:instance.Instance.horizon));
    (* The driver applies each event once; the sub-coalitions' sims add
       their own replays to the merged counters. *)
    Alcotest.(check bool) "sub-coalitions replay the endowments" true
      (seq.Sim.Driver.stats.Kernel.Stats.endow_events > List.length federation);
    Alcotest.(check (array int)) "utilities across workers"
      seq.Sim.Driver.utilities_scaled par.Sim.Driver.utilities_scaled;
    Alcotest.(check bool) "placements across workers" true
      (Schedule.placements sched = Schedule.placements par.Sim.Driver.schedule)
  done

(* --- Gantt -------------------------------------------------------------------- *)

let test_gantt () =
  let s, _ = sample_schedule () in
  let out = Gantt.render ~width:20 s in
  let lines = String.split_on_char '\n' out in
  (* two machine rows + axis row + trailing newline *)
  Alcotest.(check int) "rows" 4 (List.length lines);
  let m0 = List.nth lines 0 in
  Alcotest.(check bool) "row labelled" true
    (String.length m0 > 3 && String.sub m0 0 2 = "m0");
  (* Machine 0 runs org 0 jobs back-to-back for 5 slots then idles. *)
  Alcotest.(check bool) "contains org glyph" true
    (String.contains m0 '0');
  let m1 = List.nth lines 1 in
  Alcotest.(check bool) "machine 1 runs org 1" true (String.contains m1 '1');
  Alcotest.(check bool) "idle glyph present" true (String.contains m1 '-')

let test_org_glyph () =
  Alcotest.(check char) "digit" '7' (Gantt.org_glyph 7);
  Alcotest.(check char) "letter" 'a' (Gantt.org_glyph 10);
  Alcotest.(check char) "wraps" 'z' (Gantt.org_glyph 35);
  Alcotest.(check char) "negative" '?' (Gantt.org_glyph (-1))

let () =
  Alcotest.run "generic"
    [
      ("functions", [ Alcotest.test_case "catalogue" `Quick test_functions ]);
      ( "ref-generic",
        [
          Alcotest.test_case "structural invariants" `Quick
            test_ref_generic_structural;
          Alcotest.test_case "agrees with specialized REF" `Quick
            test_ref_generic_close_to_ref;
          Alcotest.test_case "alternative utility runs" `Quick
            test_ref_generic_other_utility_runs;
          Alcotest.test_case "federated, identical across workers" `Quick
            test_ref_generic_federated;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "render" `Quick test_gantt;
          Alcotest.test_case "glyphs" `Quick test_org_glyph;
        ] );
    ]
