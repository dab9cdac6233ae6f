(* Tests for the scheduling core: heap, jobs, instances, schedules,
   clusters. *)

open Core

let job ?(org = 0) ?(index = 0) ?(release = 0) ~size () =
  Job.make ~org ~index ~release ~size ()

(* --- Heap ----------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.add h ~prio:p p) [ 5; 1; 9; 3; 7; 3; 0 ];
  Alcotest.(check (option int)) "min" (Some 0) (Heap.min_prio h);
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (p, _) ->
        popped := p :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int))
    "sorted drain" [ 0; 1; 3; 3; 5; 7; 9 ]
    (List.rev !popped)

let test_heap_pop_le () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.add h ~prio:p p) [ 4; 8; 2 ];
  Alcotest.(check (option (pair int int))) "pop_le hits" (Some (2, 2))
    (Heap.pop_le h 3);
  Alcotest.(check (option (pair int int))) "pop_le misses" None
    (Heap.pop_le h 3);
  Alcotest.(check int) "size" 2 (Heap.size h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let qcheck_int_heap =
  QCheck.Test.make ~name:"int heap drains any input sorted" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      let h = Int_heap.create () in
      List.iter (Int_heap.push h) xs;
      let rec drain acc =
        if Int_heap.is_empty h then List.rev acc
        else drain (Int_heap.pop h :: acc)
      in
      drain [] = List.sort compare xs)

let qcheck_heap =
  QCheck.Test.make ~name:"heap drains any input sorted" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.add h ~prio:p ()) prios;
      let rec drain acc =
        match Heap.pop h with Some (p, ()) -> drain (p :: acc) | None -> acc
      in
      let drained = List.rev (drain []) in
      drained = List.sort Stdlib.compare prios)

(* --- Job & Instance -------------------------------------------------------- *)

let test_job_validation () =
  Alcotest.check_raises "negative release"
    (Invalid_argument "Job.make: negative release") (fun () ->
      ignore (Job.make ~org:0 ~index:0 ~release:(-1) ~size:1 ()));
  Alcotest.check_raises "zero size" (Invalid_argument "Job.make: size < 1")
    (fun () -> ignore (Job.make ~org:0 ~index:0 ~release:0 ~size:0 ()))

let test_instance_reindexing () =
  (* Jobs given out of order are sorted by release and re-indexed FIFO. *)
  let jobs =
    [
      job ~org:0 ~index:99 ~release:10 ~size:1 ();
      job ~org:0 ~index:42 ~release:5 ~size:2 ();
      job ~org:1 ~index:7 ~release:0 ~size:3 ();
    ]
  in
  let i = Instance.make ~machines:[| 1; 1 |] ~jobs ~horizon:100 in
  let org0 = Instance.jobs_of_org i 0 in
  Alcotest.(check (list int))
    "org 0 re-indexed in release order" [ 0; 1 ]
    (List.map (fun (j : Job.t) -> j.Job.index) org0);
  Alcotest.(check (list int))
    "org 0 releases ascending" [ 5; 10 ]
    (List.map (fun (j : Job.t) -> j.Job.release) org0);
  Alcotest.(check int) "job count" 3 (Instance.job_count i);
  Alcotest.(check int) "total work" 6 (Instance.total_work i);
  Alcotest.(check (float 1e-9)) "share" 0.5 (Instance.share i 0)

let test_instance_validation () =
  Alcotest.check_raises "org out of range"
    (Invalid_argument "Instance.make: job organization out of range")
    (fun () ->
      ignore
        (Instance.make ~machines:[| 1 |]
           ~jobs:[ job ~org:3 ~size:1 () ]
           ~horizon:10));
  Alcotest.check_raises "release at horizon"
    (Invalid_argument "Instance.make: job released at or after the horizon")
    (fun () ->
      ignore
        (Instance.make ~machines:[| 1 |]
           ~jobs:[ job ~release:10 ~size:1 () ]
           ~horizon:10));
  Alcotest.check_raises "no machines"
    (Invalid_argument "Instance.make: no machines at all") (fun () ->
      ignore (Instance.make ~machines:[| 0; 0 |] ~jobs:[] ~horizon:10))

(* --- Schedule --------------------------------------------------------------- *)

let sched machines placements = Schedule.of_placements ~machines placements

let pl ~job:j ~start ~machine = Schedule.placement ~job:j ~start ~machine ()

let test_schedule_metrics () =
  let j1 = job ~org:0 ~index:0 ~size:3 () in
  let j2 = job ~org:1 ~index:0 ~size:5 () in
  let s = sched 2 [ pl ~job:j1 ~start:0 ~machine:0; pl ~job:j2 ~start:2 ~machine:1 ] in
  Alcotest.(check int) "busy upto 4" (3 + 2) (Schedule.busy_time s ~upto:4);
  Alcotest.(check (float 1e-9))
    "utilization" (5. /. 8.)
    (Schedule.utilization s ~upto:4);
  Alcotest.(check int) "makespan" 7 (Schedule.makespan s);
  Alcotest.(check int) "job count" 2 (Schedule.job_count s);
  Alcotest.(check bool) "find" true (Schedule.find s j2 <> None)

let ok = Alcotest.result Alcotest.unit Alcotest.string

let test_schedule_validators () =
  let j1 = job ~org:0 ~index:0 ~size:3 () in
  let j2 = job ~org:0 ~index:1 ~size:3 () in
  (* Overlap on one machine. *)
  let bad =
    sched 1 [ pl ~job:j1 ~start:0 ~machine:0; pl ~job:j2 ~start:2 ~machine:0 ]
  in
  Alcotest.(check bool)
    "overlap detected" true
    (Result.is_error (Schedule.check_feasible bad));
  (* Start before release. *)
  let early = job ~org:0 ~index:0 ~release:5 ~size:1 () in
  let bad = sched 1 [ pl ~job:early ~start:3 ~machine:0 ] in
  Alcotest.(check bool)
    "early start detected" true
    (Result.is_error (Schedule.check_feasible bad));
  (* FIFO violation: index 1 before index 0. *)
  let bad =
    sched 2 [ pl ~job:j1 ~start:5 ~machine:0; pl ~job:j2 ~start:0 ~machine:1 ]
  in
  Alcotest.(check bool)
    "fifo violation detected" true
    (Result.is_error (Schedule.check_fifo bad));
  (* A clean schedule passes everything. *)
  let good =
    sched 2 [ pl ~job:j1 ~start:0 ~machine:0; pl ~job:j2 ~start:0 ~machine:1 ]
  in
  Alcotest.check ok "feasible" (Ok ()) (Schedule.check_feasible good);
  Alcotest.check ok "fifo" (Ok ()) (Schedule.check_fifo good);
  Alcotest.check ok "greedy" (Ok ())
    (Schedule.check_greedy good ~all_jobs:[ j1; j2 ] ~upto:10)

let test_schedule_greedy_check () =
  let j1 = job ~org:0 ~index:0 ~release:0 ~size:2 () in
  let j2 = job ~org:0 ~index:1 ~release:0 ~size:2 () in
  (* Machine 1 idles while j2 waits: not greedy. *)
  let lazy_schedule =
    sched 2 [ pl ~job:j1 ~start:0 ~machine:0; pl ~job:j2 ~start:3 ~machine:1 ]
  in
  Alcotest.(check bool)
    "idle-while-waiting detected" true
    (Result.is_error
       (Schedule.check_greedy lazy_schedule ~all_jobs:[ j1; j2 ] ~upto:10));
  (* A job that never starts while machines idle: also not greedy. *)
  let partial = sched 2 [ pl ~job:j1 ~start:0 ~machine:0 ] in
  Alcotest.(check bool)
    "unstarted job detected" true
    (Result.is_error
       (Schedule.check_greedy partial ~all_jobs:[ j1; j2 ] ~upto:10));
  (* FIFO blocking excuses idleness: j2 waits on j1's start, not machines. *)
  let j_blocked = job ~org:0 ~index:1 ~release:0 ~size:1 () in
  let fifo_wait =
    sched 2
      [ pl ~job:j1 ~start:0 ~machine:0; pl ~job:j_blocked ~start:0 ~machine:1 ]
  in
  Alcotest.check ok "fifo-simultaneous ok" (Ok ())
    (Schedule.check_greedy fifo_wait ~all_jobs:[ j1; j_blocked ] ~upto:10)

(* --- Cluster ----------------------------------------------------------------- *)

let test_cluster_flow () =
  let c = Cluster.create ~machine_owners:[| 0; 0; 1 |] ~norgs:2 () in
  Alcotest.(check int) "machines" 3 (Cluster.machines c);
  Alcotest.(check int) "free" 3 (Cluster.free_count c);
  Alcotest.(check bool) "nothing waiting" false (Cluster.has_waiting c);
  Alcotest.(check int) "no sole waiter" (-1) (Cluster.sole_waiting c);
  let j1 = job ~org:0 ~index:0 ~size:4 () in
  let j2 = job ~org:0 ~index:1 ~size:2 () in
  let j3 = job ~org:1 ~index:0 ~size:3 () in
  Cluster.release c j1;
  Cluster.release c j2;
  Alcotest.(check int) "sole waiter" 0 (Cluster.sole_waiting c);
  Cluster.release c j3;
  Alcotest.(check (list int)) "waiting orgs" [ 0; 1 ] (Cluster.waiting_orgs c);
  Alcotest.(check int) "two waiters" (-1) (Cluster.sole_waiting c);
  Cluster.suspend_org c 0;
  Alcotest.(check int) "suspended org skipped" 1 (Cluster.sole_waiting c);
  Cluster.resume_org c 0;
  Alcotest.(check int) "queue length" 2 (Cluster.waiting_count c 0);
  let p1 = Cluster.start_front c ~org:0 ~time:0 () in
  Alcotest.(check bool) "front is FIFO" true (Job.equal p1.Schedule.job j1);
  let _ = Cluster.start_front c ~org:0 ~time:0 () in
  let _ = Cluster.start_front c ~org:1 ~time:1 () in
  Alcotest.(check int) "all busy" 0 (Cluster.free_count c);
  Alcotest.(check int) "running org0" 2 (Cluster.running_count c 0);
  Alcotest.(check int) "next completion" 2 (Cluster.next_completion c);
  (match Cluster.pop_completion_le c 2 with
  | Some comp ->
      Alcotest.(check bool) "j2 completes first" true
        (Job.equal comp.Cluster.job j2);
      Alcotest.(check int) "finish" 2 comp.Cluster.finish
  | None -> Alcotest.fail "expected completion");
  Alcotest.(check (option Alcotest.reject)) "nothing due at 2" None
    (Cluster.pop_completion_le c 2);
  Alcotest.(check int) "machine freed" 1 (Cluster.free_count c);
  Alcotest.(check int) "completed work" 2 (Cluster.completed_work c 0)

let test_cluster_machine_pinning () =
  let c = Cluster.create ~machine_owners:[| 0; 1 |] ~norgs:2 () in
  Cluster.release c (job ~org:0 ~index:0 ~size:1 ());
  let p = Cluster.start_front c ~org:0 ~time:0 ~machine:1 () in
  Alcotest.(check int) "pinned machine" 1 p.Schedule.machine;
  Alcotest.(check int) "owner" 1 (Cluster.machine_owner c 1);
  Cluster.release c (job ~org:0 ~index:1 ~size:1 ());
  Alcotest.check_raises "busy machine rejected"
    (Invalid_argument "Cluster.start_front: requested machine is busy")
    (fun () -> ignore (Cluster.start_front c ~org:0 ~time:0 ~machine:1 ()))

let test_cluster_errors () =
  let c = Cluster.create ~machine_owners:[| 0 |] ~norgs:1 () in
  Alcotest.check_raises "empty queue"
    (Invalid_argument "Cluster.start_front: empty queue") (fun () ->
      ignore (Cluster.start_front c ~org:0 ~time:0 ()));
  Cluster.release c (job ~org:0 ~index:0 ~size:5 ());
  let _ = Cluster.start_front c ~org:0 ~time:0 () in
  Cluster.release c (job ~org:0 ~index:1 ~size:5 ());
  Alcotest.check_raises "no free machine"
    (Invalid_argument "Cluster.start_front: no free machine") (fun () ->
      ignore (Cluster.start_front c ~org:0 ~time:1 ()))

let test_cluster_recording () =
  let c = Cluster.create ~record:true ~machine_owners:[| 0; 0 |] ~norgs:1 () in
  Cluster.release c (job ~org:0 ~index:0 ~size:2 ());
  Cluster.release c (job ~org:0 ~index:1 ~size:2 ());
  let _ = Cluster.start_front c ~org:0 ~time:0 () in
  let _ = Cluster.start_front c ~org:0 ~time:0 () in
  let s = Cluster.to_schedule c in
  Alcotest.(check int) "recorded both" 2 (Schedule.job_count s);
  Alcotest.check ok "recorded schedule feasible" (Ok ())
    (Schedule.check_feasible s);
  let c2 = Cluster.create ~machine_owners:[| 0 |] ~norgs:1 () in
  Alcotest.check_raises "no recording"
    (Invalid_argument "Cluster.to_schedule: cluster was not recording")
    (fun () -> ignore (Cluster.to_schedule c2))

(* Model-based test: drive the cluster with random operation sequences and
   compare every observation against a naive list-based reference model. *)
let test_cluster_model_based () =
  let rng = Fstats.Rng.create ~seed:99 in
  for _trial = 1 to 60 do
    let norgs = 1 + Fstats.Rng.int rng 3 in
    let m = 1 + Fstats.Rng.int rng 4 in
    let owners = Array.init m (fun _ -> Fstats.Rng.int rng norgs) in
    let c = Cluster.create ~machine_owners:owners ~norgs () in
    (* Reference model state. *)
    let queues = Array.init norgs (fun _ -> Queue.create ()) in
    let running = ref [] in
    (* (finish, org, machine) *)
    let time = ref 0 in
    let next_index = Array.make norgs 0 in
    for _op = 1 to 40 do
      match Fstats.Rng.int rng 3 with
      | 0 ->
          (* Release a job. *)
          let org = Fstats.Rng.int rng norgs in
          let size = 1 + Fstats.Rng.int rng 5 in
          let j =
            Job.make ~org ~index:next_index.(org) ~release:!time ~size ()
          in
          next_index.(org) <- next_index.(org) + 1;
          Cluster.release c j;
          Queue.add j queues.(org)
      | 1 ->
          (* Start a front job if possible. *)
          let candidates =
            List.filter
              (fun u -> not (Queue.is_empty queues.(u)))
              (List.init norgs Fun.id)
          in
          if candidates <> [] && m - List.length !running > 0 then begin
            let org = List.nth candidates (Fstats.Rng.int rng (List.length candidates)) in
            let p = Cluster.start_front c ~org ~time:!time () in
            let j = Queue.pop queues.(org) in
            Alcotest.(check bool) "FIFO front started" true
              (Job.equal p.Schedule.job j);
            running := (!time + j.Job.size, org, p.Schedule.machine) :: !running
          end
      | _ ->
          (* Advance time and pop due completions. *)
          time := !time + 1 + Fstats.Rng.int rng 3;
          let rec pop () =
            match Cluster.pop_completion_le c !time with
            | Some comp ->
                Alcotest.(check bool) "completion was running" true
                  (List.exists
                     (fun (f, _, mach) ->
                       f = comp.Cluster.finish && mach = comp.Cluster.machine)
                     !running);
                running :=
                  List.filter
                    (fun (_, _, mach) -> mach <> comp.Cluster.machine)
                    !running;
                pop ()
            | None -> ()
          in
          pop ();
          List.iter
            (fun (f, _, _) ->
              Alcotest.(check bool) "no overdue running job" true (f > !time))
            !running;
      (* Invariants checked after every operation. *)
      Alcotest.(check int) "free count" (m - List.length !running)
        (Cluster.free_count c);
      Alcotest.(check int) "waiting orgs"
        (List.length
           (List.filter
              (fun u -> not (Queue.is_empty queues.(u)))
              (List.init norgs Fun.id)))
        (List.length (Cluster.waiting_orgs c));
      (* FIFO pick: earliest front release, lowest org on ties. *)
      (match
         List.filter
           (fun u -> not (Queue.is_empty queues.(u)))
           (List.init norgs Fun.id)
       with
      | [] -> ()
      | first :: rest ->
          let front u = (Queue.peek queues.(u)).Job.release in
          Alcotest.(check int) "fifo org"
            (List.fold_left
               (fun best u -> if front u < front best then u else best)
               first rest)
            (Cluster.fifo_org c));
      for u = 0 to norgs - 1 do
        Alcotest.(check int) "queue length" (Queue.length queues.(u))
          (Cluster.waiting_count c u);
        Alcotest.(check int) "running per org"
          (List.length (List.filter (fun (_, o, _) -> o = u) !running))
          (Cluster.running_count c u)
      done
    done
  done

(* --- Domain pool ------------------------------------------------------- *)

let test_pool_spawn_failure_fallback () =
  (* If Domain.spawn fails at pool creation, the pool must keep working
     with zero helpers: every batch runs sequentially on the caller and
     produces the same results. *)
  Domain_pool.unsafe_reset_for_testing
    ~spawn:(Some (fun _ -> failwith "domain limit reached"));
  Fun.protect
    ~finally:(fun () -> Domain_pool.unsafe_reset_for_testing ~spawn:None)
    (fun () ->
      Alcotest.(check int) "no helpers spawned" 0 (Domain_pool.helpers ());
      let n = 200 in
      let acc = Array.make n 0 in
      Domain_pool.parallel_iter ~workers:8 (fun i -> acc.(i) <- i + 1) n;
      Alcotest.(check int) "all tasks ran on the caller"
        (n * (n + 1) / 2)
        (Array.fold_left ( + ) 0 acc))

exception Task_failed of int

(* parallel_chunks must be indistinguishable from a sequential loop in
   results: every index run exactly once, writes landing in their own slots,
   for any (n, workers, chunk, cutoff) — including the degenerate inline
   cases (workers=1, n <= cutoff, one chunk). *)
let qcheck_parallel_chunks_coverage =
  QCheck.Test.make ~count:60 ~name:"parallel_chunks covers each index once"
    QCheck.(
      quad (int_bound 200) (int_range 1 8) (option (int_range 1 50))
        (int_bound 16))
    (fun (n, workers, chunk, cutoff) ->
      let hits = Array.make (Stdlib.max 1 n) 0 in
      Domain_pool.parallel_chunks ~workers ?chunk ~cutoff
        (fun i -> hits.(i) <- hits.(i) + 1)
        n;
      Array.for_all (( = ) 1) (Array.sub hits 0 n)
      || QCheck.Test.fail_reportf "some index ran %d times"
           (Array.fold_left Stdlib.max 0 hits))

let qcheck_map_chunked_order =
  QCheck.Test.make ~count:60 ~name:"map_chunked = Array.map (order preserved)"
    QCheck.(pair (array_of_size Gen.(int_bound 150) small_int) (int_range 1 8))
    (fun (a, workers) ->
      Domain_pool.map_chunked ~workers ~chunk:3 (fun x -> (2 * x) + 1) a
      = Array.map (fun x -> (2 * x) + 1) a)

(* Exception parity with parallel_iter: same batch of failing tasks ⇒ the
   same (lowest-index) exception out of either dispatcher, and every task
   attempted regardless of earlier failures in its chunk. *)
let qcheck_parallel_chunks_exception_parity =
  QCheck.Test.make ~count:40
    ~name:"parallel_chunks exception parity with parallel_iter"
    QCheck.(
      triple (int_range 1 100)
        (list_of_size Gen.(int_bound 5) (int_bound 99))
        (option (int_range 1 30)))
    (fun (n, fails, chunk) ->
      let fails = List.filter (fun i -> i < n) fails in
      let run dispatch =
        let attempted = Array.make n false in
        let raised =
          try
            dispatch
              (fun i ->
                attempted.(i) <- true;
                if List.mem i fails then raise (Task_failed i))
              n;
            None
          with Task_failed i -> Some i
        in
        (raised, Array.for_all Fun.id attempted)
      in
      let expected =
        if fails = [] then None
        else Some (List.fold_left Stdlib.min max_int fails)
      in
      let iter_raised, iter_all = run (Domain_pool.parallel_iter ~workers:4) in
      let chunk_raised, chunk_all =
        run (Domain_pool.parallel_chunks ~workers:4 ?chunk ~cutoff:2)
      in
      iter_raised = expected && chunk_raised = expected && iter_all
      && chunk_all)

let test_map_chunked_exception () =
  Alcotest.check_raises "first failing index in input order"
    (Task_failed 3)
    (fun () ->
      ignore
        (Domain_pool.map_chunked ~workers:4 ~chunk:2
           (fun i -> if i >= 3 then raise (Task_failed i) else i)
           (Array.init 40 Fun.id)));
  (* Backtrace-preserving re-raise still yields the original exception when
     everything runs inline (cutoff). *)
  Alcotest.check_raises "inline path too" (Task_failed 0) (fun () ->
      ignore
        (Domain_pool.map_chunked ~workers:4 ~cutoff:10
           (fun _ -> raise (Task_failed 0))
           (Array.init 4 Fun.id)))

let () =
  Alcotest.run "core"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "pop_le" `Quick test_heap_pop_le;
          QCheck_alcotest.to_alcotest qcheck_heap;
          QCheck_alcotest.to_alcotest qcheck_int_heap;
        ] );
      ( "job-instance",
        [
          Alcotest.test_case "job validation" `Quick test_job_validation;
          Alcotest.test_case "instance reindexing" `Quick
            test_instance_reindexing;
          Alcotest.test_case "instance validation" `Quick
            test_instance_validation;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "metrics" `Quick test_schedule_metrics;
          Alcotest.test_case "validators" `Quick test_schedule_validators;
          Alcotest.test_case "greedy check" `Quick test_schedule_greedy_check;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "flow" `Quick test_cluster_flow;
          Alcotest.test_case "machine pinning" `Quick
            test_cluster_machine_pinning;
          Alcotest.test_case "errors" `Quick test_cluster_errors;
          Alcotest.test_case "recording" `Quick test_cluster_recording;
          Alcotest.test_case "model-based random ops" `Quick
            test_cluster_model_based;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "spawn failure falls back" `Quick
            test_pool_spawn_failure_fallback;
          QCheck_alcotest.to_alcotest qcheck_parallel_chunks_coverage;
          QCheck_alcotest.to_alcotest qcheck_map_chunked_order;
          QCheck_alcotest.to_alcotest qcheck_parallel_chunks_exception_parity;
          Alcotest.test_case "map_chunked exception order" `Quick
            test_map_chunked_exception;
        ] );
    ]
