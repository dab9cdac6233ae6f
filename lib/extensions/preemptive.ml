(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

type policy = Equal_share | Utility_balance

type run = {
  utilities_scaled : int array;
  parts : int array;
  completed_jobs : int;
  stats : Kernel.Stats.t;
}

(* Mutable per-job progress for the slot loop. *)
type pjob = { job : Job.t; mutable left : int }

let simulate ?(faults = []) ?max_restarts:_ ~instance policy =
  if instance.Instance.speeds <> None then
    invalid_arg "Preemptive.simulate: identical machines only";
  let k = Instance.organizations instance in
  let m = Instance.total_machines instance in
  let horizon = instance.Instance.horizon in
  let shares = Array.init k (fun u -> Instance.share instance u) in
  let queues : pjob Queue.t array = Array.init k (fun _ -> Queue.create ()) in
  let psi2 = Array.make k 0 in
  let parts = Array.make k 0 in
  let completed = ref 0 in
  let rr_cursor = ref 0 in
  (* Machine identity only matters to route faults: capacity is what the
     slot loop consumes.  A failure at [t] shrinks the capacity of slot [t]
     and onward; preemptible jobs lose nothing (their executed slots are
     banked), so faults never kill and [max_restarts] never binds — the
     parameter is accepted for kernel-interface uniformity only. *)
  let up = Array.make m true in
  let capacity = ref m in
  let engine =
    Kernel.Engine.create ~faults ~machines:m
      ~release_time:(fun (j : Job.t) -> j.Job.release)
      instance.Instance.jobs
  in
  let stats = Kernel.Engine.stats engine in
  let model =
    {
      (* The tick source: slots where some organization has an unfinished
         released job must all run; in between, the next release is the
         only thing that can wake the loop.  Idle slots are no-ops in the
         slot-by-slot formulation (the round-robin cursor only moves when
         someone waits), so skipping them is exact, not an approximation. *)
      Kernel.Engine.next_completion =
        (fun () ->
          if Array.exists (fun q -> not (Queue.is_empty q)) queues then
            Kernel.Engine.now engine + 1
          else max_int);
      pop_completion = (fun ~time:_ -> false);
      apply_fault =
        (fun ~time:_ ev ->
          (match ev with
          | Faults.Event.Fail mid ->
              if up.(mid) then begin
                up.(mid) <- false;
                decr capacity
              end
          | Faults.Event.Recover mid ->
              if not up.(mid) then begin
                up.(mid) <- true;
                incr capacity
              end);
          Kernel.Engine.Applied);
      (* The preemptive extension keeps the paper's static consortium. *)
      apply_endow = (fun ~time:_ _ -> Kernel.Engine.no_endow_effect);
      admit =
        (fun ~time:_ (j : Job.t) ->
          Queue.add { job = j; left = j.Job.size } queues.(j.Job.org));
      round =
        (fun ~time:t ->
          (* Hand out the up-machine slots of slot [t].  Each organization
             may use at most as many slots as it has unfinished jobs (jobs
             are sequential: one slot per job per time step), always
             serving its FIFO front first. *)
          let order () =
            let waiting =
              List.filter
                (fun u -> not (Queue.is_empty queues.(u)))
                (List.init k Fun.id)
            in
            match policy with
            | Equal_share ->
                (* Rotate the start so slots spread evenly over time. *)
                let n = List.length waiting in
                if n = 0 then []
                else begin
                  incr rr_cursor;
                  let off = !rr_cursor mod n in
                  let arr = Array.of_list waiting in
                  List.init n (fun i -> arr.((i + off) mod n))
                end
            | Utility_balance ->
                List.sort
                  (fun a b ->
                    Stdlib.compare
                      (float_of_int psi2.(a) /. shares.(a))
                      (float_of_int psi2.(b) /. shares.(b)))
                  waiting
          in
          let free = ref !capacity in
          let granted = ref 0 in
          (* Round-robin over the ordered orgs, one job-slot at a time, so a
             single org cannot take every machine unless it is alone. *)
          let progressed = ref true in
          let served : (int, int) Hashtbl.t = Hashtbl.create 8 in
          while !free > 0 && !progressed do
            progressed := false;
            List.iter
              (fun u ->
                if !free > 0 then begin
                  let already =
                    Option.value (Hashtbl.find_opt served u) ~default:0
                  in
                  if already < Queue.length queues.(u) then begin
                    Hashtbl.replace served u (already + 1);
                    decr free;
                    incr granted;
                    progressed := true
                  end
                end)
              (order ())
          done;
          (* Execute the granted slots: each org runs its first [served u]
             jobs for one part. *)
          Hashtbl.iter
            (fun u n ->
              (* Take the first n jobs, advance them, re-queue unfinished. *)
              let grabbed = ref [] in
              for _ = 1 to n do
                match Queue.take_opt queues.(u) with
                | Some pj -> grabbed := pj :: !grabbed
                | None -> ()
              done;
              let keep =
                List.filter_map
                  (fun pj ->
                    pj.left <- pj.left - 1;
                    psi2.(u) <- psi2.(u) + (2 * (horizon - t));
                    parts.(u) <- parts.(u) + 1;
                    if pj.left = 0 then begin
                      incr completed;
                      stats.Kernel.Stats.completions <-
                        stats.Kernel.Stats.completions + 1;
                      None
                    end
                    else Some pj)
                  (List.rev !grabbed)
              in
              (* Put unfinished front jobs back at the front, preserving
                 order. *)
              let rest = Queue.create () in
              Queue.transfer queues.(u) rest;
              List.iter (fun pj -> Queue.add pj queues.(u)) keep;
              Queue.transfer rest queues.(u))
            served;
          !granted);
    }
  in
  Kernel.Engine.run engine model ~horizon ();
  {
    utilities_scaled = psi2;
    parts;
    completed_jobs = !completed;
    stats = Kernel.Stats.copy stats;
  }

let delta_ratio ~reference run =
  let a = reference.Sim.Driver.utilities_scaled in
  if Array.length a <> Array.length run.utilities_scaled then
    invalid_arg "Preemptive.delta_ratio: mismatched instances";
  let delta = ref 0 in
  Array.iteri
    (fun u v -> delta := !delta + abs (v - run.utilities_scaled.(u)))
    a;
  let ptot = Array.fold_left ( + ) 0 reference.Sim.Driver.parts in
  let ratio =
    if ptot = 0 then 0.
    else float_of_int !delta /. 2. /. float_of_int ptot
  in
  (!delta, ratio)
