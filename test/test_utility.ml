(* Tests for ψsp (Theorem 4.1 / Equation 3), its axioms, the incremental
   tracker, and the classic metrics. *)

open Core
module Psp = Utility.Psp
module Tracker = Utility.Tracker
module Metrics = Utility.Metrics

(* --- Closed form ------------------------------------------------------- *)

let test_piece_values () =
  (* A unit job in slot s is worth (t - s) at time t. *)
  Alcotest.(check int) "unit at 0, t=5" (2 * 5) (Psp.piece_scaled ~start:0 ~size:1 ~at:5);
  Alcotest.(check int) "unit at 4, t=5" 2 (Psp.piece_scaled ~start:4 ~size:1 ~at:5);
  (* Not yet started / started at t: worth 0. *)
  Alcotest.(check int) "future job" 0 (Psp.piece_scaled ~start:5 ~size:3 ~at:5);
  (* Completed job (s=0, p=3, t=13): 3·(13-1) = 36. *)
  Alcotest.(check int) "fig2 J1" (2 * 36) (Psp.piece_scaled ~start:0 ~size:3 ~at:13);
  (* Running job: only executed parts count: (s=10, p=4, t=13) → 3·(13-11)=6. *)
  Alcotest.(check int) "fig2 J9 partial" (2 * 6)
    (Psp.piece_scaled ~start:10 ~size:4 ~at:13);
  (* Explicit sum-of-parts cross-check: Σ_{i=s}^{min(s+p-1,t-1)} (t-i). *)
  let brute ~start ~size ~at =
    let total = ref 0 in
    for i = start to Stdlib.min (start + size - 1) (at - 1) do
      if i >= 0 then total := !total + (at - i)
    done;
    2 * !total
  in
  for start = 0 to 6 do
    for size = 1 to 6 do
      for at = 0 to 12 do
        Alcotest.(check int)
          (Printf.sprintf "brute s=%d p=%d t=%d" start size at)
          (brute ~start ~size ~at)
          (Psp.piece_scaled ~start ~size ~at)
      done
    done
  done

let test_figure2 () =
  let pieces = Experiments.Worked_examples.figure2_schedule () in
  Alcotest.(check int) "psi at 13" (2 * 262) (Psp.of_pieces_scaled pieces ~at:13);
  Alcotest.(check int) "psi at 14" (2 * 297) (Psp.of_pieces_scaled pieces ~at:14)

(* --- Axioms (Section 4) -------------------------------------------------- *)

let piece_gen =
  QCheck.map
    (fun (s, p) -> (s, p))
    QCheck.(pair (int_range 0 50) (int_range 1 20))

let qcheck_strategy_resistance =
  (* ψ(σ ∪ {(s,p1)}) + ψ(σ ∪ {(s+p1,p2)}) = ψ(σ ∪ {(s,p1+p2)}) + ψ(σ):
     merging or splitting jobs never changes the utility, at any time. *)
  QCheck.Test.make ~name:"strategy-resistance (merge/split)" ~count:2000
    QCheck.(triple piece_gen (int_range 1 20) (int_range 0 100))
    (fun ((s, p1), p2, at) ->
      Psp.piece_scaled ~start:s ~size:p1 ~at
      + Psp.piece_scaled ~start:(s + p1) ~size:p2 ~at
      = Psp.piece_scaled ~start:s ~size:(p1 + p2) ~at)

let qcheck_start_anonymity =
  (* Delaying a completed job of size p by one slot costs exactly p,
     independently of the job's identity or the rest of the schedule. *)
  QCheck.Test.make ~name:"start-time anonymity" ~count:2000 piece_gen
    (fun (s, p) ->
      let at = s + p + 2 in
      Psp.piece_scaled ~start:s ~size:p ~at
      - Psp.piece_scaled ~start:(s + 1) ~size:p ~at
      = 2 * p)

let qcheck_task_anonymity =
  (* Adding a (s,p) piece increases ψ by an amount independent of the rest
     of the schedule (additivity over pieces). *)
  QCheck.Test.make ~name:"task-count anonymity (additivity)" ~count:500
    QCheck.(pair (small_list piece_gen) piece_gen)
    (fun (sigma, (s, p)) ->
      let at = 100 in
      Psp.of_pieces_scaled ((s, p) :: sigma) ~at
      - Psp.of_pieces_scaled sigma ~at
      = Psp.piece_scaled ~start:s ~size:p ~at)

let qcheck_delay_never_profits =
  QCheck.Test.make ~name:"delaying is never profitable" ~count:1000
    QCheck.(triple piece_gen (int_range 1 10) (int_range 0 120))
    (fun ((s, p), d, at) ->
      Psp.piece_scaled ~start:s ~size:p ~at
      >= Psp.piece_scaled ~start:(s + d) ~size:p ~at)

let test_prop42_flow_time_equivalence () =
  (* For equal-size jobs all completed before t:
     ψsp = constant − p · flow_time. *)
  let rng = Fstats.Rng.create ~seed:20 in
  for _ = 1 to 200 do
    let p = 1 + Fstats.Rng.int rng 5 in
    let n = 1 + Fstats.Rng.int rng 6 in
    let jobs =
      List.init n (fun i ->
          let release = Fstats.Rng.int rng 10 in
          let start = release + Fstats.Rng.int rng 10 in
          (i, release, start))
    in
    let at = 200 in
    let pieces = List.map (fun (_, _, s) -> (s, p)) jobs in
    let psi = float_of_int (Psp.of_pieces_scaled pieces ~at) /. 2. in
    let flow =
      List.fold_left (fun acc (_, r, s) -> acc + (s + p - r)) 0 jobs
    in
    let releases = List.map (fun (_, r, _) -> r) jobs in
    let expected =
      Psp.flow_time_equiv_constant ~sizes:p ~count:n ~releases ~at
      -. (float_of_int p *. float_of_int flow)
    in
    Alcotest.(check (float 1e-6)) "prop 4.2 identity" expected psi
  done

(* --- Tracker ------------------------------------------------------------- *)

let test_tracker_matches_closed_form () =
  (* Simulate random start/complete event sequences and compare the tracker
     against the closed form at every step. *)
  let rng = Fstats.Rng.create ~seed:21 in
  for _ = 1 to 100 do
    let tracker = Tracker.create () in
    let started = ref [] in
    (* (key, start, size) *)
    let active = ref [] in
    let now = ref 0 in
    let key = ref 0 in
    for _ = 1 to 30 do
      now := !now + Fstats.Rng.int rng 5;
      (* Complete any active pieces whose end has passed. *)
      let due, still =
        List.partition (fun (_, s, p) -> s + p <= !now) !active
      in
      List.iter (fun (k, _, p) -> Tracker.on_complete tracker ~key:k ~size:p) due;
      active := still;
      (* Maybe start a new piece now. *)
      if Fstats.Rng.bool rng then begin
        let p = 1 + Fstats.Rng.int rng 6 in
        incr key;
        Tracker.on_start tracker ~key:!key ~start:!now;
        started := (!key, !now, p) :: !started;
        active := (!key, !now, p) :: !active
      end;
      (* The tracker treats still-running pieces as running; the closed form
         must see the same truncation, so evaluate both at [!now]. *)
      let expected =
        List.fold_left
          (fun acc (k, s, p) ->
            let running =
              List.exists (fun (k', _, _) -> k' = k) !active
            in
            let visible = if running then Stdlib.min p (!now - s) else p in
            if visible <= 0 then acc
            else acc + Psp.piece_scaled ~start:s ~size:visible ~at:!now)
          0 !started
      in
      Alcotest.(check int) "tracker = closed form" expected
        (Tracker.value_scaled tracker ~at:!now)
    done
  done

let test_tracker_parts_and_errors () =
  let t = Tracker.create () in
  Tracker.on_start t ~key:1 ~start:0;
  Tracker.on_start t ~key:2 ~start:3;
  Alcotest.(check int) "parts mid-run" (5 + 2) (Tracker.parts t ~at:5);
  Alcotest.(check int) "active" 2 (Tracker.active_count t);
  Tracker.on_complete t ~key:1 ~size:5;
  Alcotest.(check int) "parts after completion" (5 + 2) (Tracker.parts t ~at:5);
  Alcotest.check_raises "unknown key"
    (Invalid_argument "Tracker.on_complete: unknown key") (fun () ->
      Tracker.on_complete t ~key:99 ~size:1);
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Tracker.on_start: duplicate active key") (fun () ->
      Tracker.on_start t ~key:2 ~start:4)

(* The O(1) coefficients, [value_scaled] and [parts] must equal the direct
   folds at every [at] at or after the latest start, after any stream of
   starts, completions and aborts.  Ops: (kind, time step, size); a
   completion or abort picks a running piece by position, and is skipped
   when none runs. *)
let qcheck_tracker_coeffs =
  QCheck.Test.make ~name:"O(1) coefficients = direct fold" ~count:500
    QCheck.(
      small_list
        (triple (int_range 0 2) (int_range 0 4)
           (pair (int_range 1 8) (int_range 0 7))))
    (fun ops ->
      let t = Tracker.create () in
      let now = ref 0 and latest = ref 0 and next_key = ref 0 in
      let running = ref [] in
      let agrees () =
        let a = Tracker.coeff_a t
        and b = Tracker.coeff_b t
        and c = Tracker.coeff_c t in
        List.for_all
          (fun d ->
            let at = !latest + d in
            let fold = Tracker.value_scaled_fold t ~at in
            (((a * at) + b) * at) + c = fold
            && Tracker.value_scaled t ~at = fold
            && Tracker.parts t ~at = Tracker.parts_fold t ~at)
          [ 0; 1; 2; 5; 13 ]
      in
      List.for_all
        (fun (kind, step, (size, pick)) ->
          now := !now + step;
          (match (kind, !running) with
          | 0, _ | _, [] ->
              Tracker.on_start t ~key:!next_key ~start:!now;
              running := !next_key :: !running;
              incr next_key;
              latest := !now
          | _, keys ->
              let key = List.nth keys (pick mod List.length keys) in
              running := List.filter (( <> ) key) keys;
              if kind = 1 then Tracker.on_complete t ~key ~size
              else Tracker.on_abort t ~key);
          agrees ())
        ops)

(* --- Metrics --------------------------------------------------------------- *)

let test_metrics () =
  let j1 = Job.make ~org:0 ~index:0 ~release:0 ~size:3 () in
  let j2 = Job.make ~org:0 ~index:1 ~release:1 ~size:2 () in
  let j3 = Job.make ~org:1 ~index:0 ~release:2 ~size:4 () in
  let placements =
    [
      Schedule.placement ~job:j1 ~start:0 ~machine:0 ();
      Schedule.placement ~job:j2 ~start:3 ~machine:0 ();
      Schedule.placement ~job:j3 ~start:2 ~machine:1 ();
    ]
  in
  let s = Schedule.of_placements ~machines:2 placements in
  let all_jobs = [ j1; j2; j3 ] in
  (* Flow at 10: j1: 3-0=3; j2: 5-1=4; j3: 6-2=4. *)
  Alcotest.(check int) "flow time" 11 (Metrics.flow_time s ~all_jobs ~at:10);
  (* Flow at 4: j1 complete (3); j2 running: 4-1=3; j3 running: 4-2=2. *)
  Alcotest.(check int) "flow time online" 8 (Metrics.flow_time s ~all_jobs ~at:4);
  Alcotest.(check int) "flow completed only" 3
    (Metrics.flow_time_completed s ~at:4);
  Alcotest.(check int) "waiting time" (0 + 2 + 0) (Metrics.waiting_time s ~at:10);
  Alcotest.(check int) "throughput at 5" 2 (Metrics.throughput s ~at:5);
  Alcotest.(check int) "org flow" 7
    (Metrics.org_flow_time s ~all_jobs ~org:0 ~at:10);
  (* Unstarted jobs accrue flow: drop j2's placement. *)
  let s2 =
    Schedule.of_placements ~machines:2
      [ List.nth placements 0; List.nth placements 2 ]
  in
  Alcotest.(check int) "unstarted job accrues" (3 + 9 + 4)
    (Metrics.flow_time s2 ~all_jobs ~at:10);
  Alcotest.(check int) "work upper bound caps by released work" 6
    (Metrics.work_upper_bound ~all_jobs ~machines:2 ~upto:3);
  Alcotest.(check int) "work upper bound caps by capacity" 5
    (Metrics.work_upper_bound ~all_jobs ~machines:1 ~upto:5)

let test_jain_index () =
  Alcotest.(check (float 1e-9)) "equal allocations" 1.
    (Metrics.jain_index [ 3.; 3.; 3. ]);
  Alcotest.(check (float 1e-9)) "one takes all" 0.25
    (Metrics.jain_index [ 8.; 0.; 0.; 0. ]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Metrics.jain_index []);
  Alcotest.(check (float 1e-9)) "all zero" 0. (Metrics.jain_index [ 0.; 0. ]);
  Alcotest.(check bool) "bounded" true
    (let v = Metrics.jain_index [ 1.; 2.; 3.; 4. ] in
     v > 0.25 && v < 1.)

let () =
  Alcotest.run "utility"
    [
      ( "psp",
        [
          Alcotest.test_case "piece values" `Quick test_piece_values;
          Alcotest.test_case "figure 2" `Quick test_figure2;
          Alcotest.test_case "prop 4.2 flow-time link" `Quick
            test_prop42_flow_time_equivalence;
        ] );
      ( "axioms",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_strategy_resistance; qcheck_start_anonymity;
            qcheck_task_anonymity; qcheck_delay_never_profits;
          ] );
      ( "tracker",
        [
          Alcotest.test_case "matches closed form" `Quick
            test_tracker_matches_closed_form;
          Alcotest.test_case "parts & errors" `Quick
            test_tracker_parts_and_errors;
          QCheck_alcotest.to_alcotest qcheck_tracker_coeffs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "jain index" `Quick test_jain_index;
        ] );
    ]
