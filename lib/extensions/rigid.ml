(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

type rigid_job = { job : Job.t; width : int }
type instance = { machines : int; jobs : rigid_job list; horizon : int }

let make_instance ~machines ~jobs ~horizon =
  if machines < 1 then invalid_arg "Rigid.make_instance: no machines";
  if horizon < 1 then invalid_arg "Rigid.make_instance: bad horizon";
  List.iter
    (fun r ->
      if r.width < 1 || r.width > machines then
        invalid_arg "Rigid.make_instance: width out of range";
      if r.job.Job.release >= horizon then
        invalid_arg "Rigid.make_instance: release at/after horizon")
    jobs;
  let jobs =
    List.stable_sort (fun a b -> Job.compare_release a.job b.job) jobs
  in
  { machines; jobs; horizon }

type policy = Fifo_fit | Widest_fit | Narrowest_fit

let policy_name = function
  | Fifo_fit -> "fifo-fit"
  | Widest_fit -> "widest-fit"
  | Narrowest_fit -> "narrowest-fit"

type run = {
  placements : (rigid_job * int) list;
  busy_time : int;
  utilization : float;
  killed : int;
  abandoned : int;
  wasted : int;
  stats : Kernel.Stats.t;
}

let prefer policy a b =
  (* true when [a] beats [b] under the policy. *)
  match policy with
  | Fifo_fit ->
      let ra = a.job.Job.release and rb = b.job.Job.release in
      ra < rb || (ra = rb && a.job.Job.org < b.job.Job.org)
  | Widest_fit -> a.width > b.width
  | Narrowest_fit -> a.width < b.width

(* One started attempt.  [live] goes false when a machine failure kills the
   attempt; its completion-heap entry then becomes stale and is dropped
   lazily (failures are rare, deletions are O(1) this way). *)
type attempt = {
  rj : rigid_job;
  a_start : int;
  hosts : int list;  (* machine ids occupied by this attempt *)
  mutable live : bool;
}

let simulate ?(faults = []) ?max_restarts instance policy =
  let norgs =
    1 + List.fold_left (fun acc r -> Stdlib.max acc r.job.Job.org) 0 instance.jobs
  in
  let queues = Array.init norgs (fun _ -> Queue.create ()) in
  (* Kills resubmit at the head of the owner's queue, ahead of everything
     released later — same lifecycle convention as {!Core.Cluster}. *)
  let heads = Array.make norgs [] in
  let front org =
    match heads.(org) with
    | r :: _ -> Some r
    | [] -> Queue.peek_opt queues.(org)
  in
  let pop_front org =
    match heads.(org) with
    | r :: rest ->
        heads.(org) <- rest;
        r
    | [] -> Queue.pop queues.(org)
  in
  (* Without faults every machine is interchangeable, so the pre-kernel
     simulator only kept a free counter; killing the job hosted by one
     specific machine needs identities.  Attempts occupy the lowest-numbered
     free machines — invisible in any output, it only fixes which attempt a
     failure hits. *)
  let up = Array.make instance.machines true in
  let occupant = Array.make instance.machines None in
  let free = ref instance.machines in  (* up and unoccupied *)
  let running : attempt Heap.t = Heap.create () in
  let attempts = ref [] in  (* every started attempt, latest first *)
  let restarts = Hashtbl.create 16 in
  let killed = ref 0 and abandoned = ref 0 and wasted = ref 0 in
  let release_hosts a ~failed =
    List.iter
      (fun m ->
        occupant.(m) <- None;
        if up.(m) && not (failed = Some m) then incr free)
      a.hosts
  in
  let rec skip_dead () =
    (* Keep the heap minimum live so [next_completion] is exact. *)
    match Heap.min_prio running with
    | Some p -> (
        match Heap.pop_le running p with
        | Some (_, a) when not a.live -> skip_dead ()
        | Some (p, a) ->
            Heap.add running ~prio:p a;
            ()
        | None -> ())
    | None -> ()
  in
  let model =
    {
      Kernel.Engine.next_completion =
        (fun () ->
          skip_dead ();
          Heap.top_prio running);
      pop_completion =
        (fun ~time ->
          skip_dead ();
          match Heap.pop_le running time with
          | Some (_, a) ->
              release_hosts a ~failed:None;
              true
          | None -> false);
      apply_fault =
        (fun ~time ev ->
          match ev with
          | Faults.Event.Fail m ->
              if not up.(m) then Kernel.Engine.Applied
              else begin
                up.(m) <- false;
                match occupant.(m) with
                | None ->
                    decr free;
                    Kernel.Engine.Applied
                | Some a ->
                    a.live <- false;
                    release_hosts a ~failed:(Some m);
                    incr killed;
                    let w = a.rj.width * (time - a.a_start) in
                    wasted := !wasted + w;
                    let key = (a.rj.job.Job.org, a.rj.job.Job.index) in
                    let used =
                      Option.value (Hashtbl.find_opt restarts key) ~default:0
                    in
                    let resubmitted =
                      match max_restarts with
                      | Some budget when used >= budget -> false
                      | _ ->
                          Hashtbl.replace restarts key (used + 1);
                          heads.(a.rj.job.Job.org) <-
                            a.rj :: heads.(a.rj.job.Job.org);
                          true
                    in
                    if not resubmitted then incr abandoned;
                    Kernel.Engine.Killed { wasted = w; resubmitted }
              end
          | Faults.Event.Recover m ->
              if not up.(m) then begin
                up.(m) <- true;
                if occupant.(m) = None then incr free
              end;
              Kernel.Engine.Applied);
      (* The rigid extension keeps the paper's static consortium. *)
      apply_endow = (fun ~time:_ _ -> Kernel.Engine.no_endow_effect);
      admit = (fun ~time:_ r -> Queue.add r queues.(r.job.Job.org));
      round =
        (fun ~time ->
          let fitting_front () =
            let best = ref None in
            for org = 0 to norgs - 1 do
              match front org with
              | Some r when r.width <= !free -> (
                  match !best with
                  | Some b when prefer policy b r -> ()
                  | _ -> best := Some r)
              | Some _ | None -> ()
            done;
            !best
          in
          let n = ref 0 in
          let rec starts () =
            match fitting_front () with
            | Some r ->
                let r' = pop_front r.job.Job.org in
                assert (r' == r);
                let hosts = ref [] and need = ref r.width in
                let m = ref 0 in
                while !need > 0 do
                  if up.(!m) && occupant.(!m) = None then begin
                    hosts := !m :: !hosts;
                    decr need
                  end;
                  incr m
                done;
                let a =
                  { rj = r; a_start = time; hosts = List.rev !hosts; live = true }
                in
                List.iter (fun m -> occupant.(m) <- Some a) a.hosts;
                free := !free - r.width;
                Heap.add running ~prio:(time + r.job.Job.size) a;
                attempts := a :: !attempts;
                incr n;
                starts ()
            | None -> ()
          in
          starts ();
          !n);
    }
  in
  let engine =
    Kernel.Engine.create ~faults ~machines:instance.machines
      ~release_time:(fun r -> r.job.Job.release)
      (Array.of_list instance.jobs)
  in
  Kernel.Engine.run engine model ~horizon:instance.horizon ();
  (* Surviving attempts only: a killed attempt's occupancy is excised (its
     processor-slots are [wasted]), exactly like {!Core.Cluster}'s schedule. *)
  let placements =
    List.rev_map (fun a -> (a.rj, a.a_start)) (List.filter (fun a -> a.live) !attempts)
  in
  let busy_time =
    List.fold_left
      (fun acc (r, start) ->
        let finish = Stdlib.min (start + r.job.Job.size) instance.horizon in
        acc + (r.width * Stdlib.max 0 (finish - start)))
      0 placements
  in
  {
    placements;
    busy_time;
    utilization =
      float_of_int busy_time
      /. float_of_int (instance.machines * instance.horizon);
    killed = !killed;
    abandoned = !abandoned;
    wasted = !wasted;
    stats = Kernel.Stats.copy (Kernel.Engine.stats engine);
  }

let check_rigid_greedy instance result =
  let start_of r =
    List.find_opt (fun (r', _) -> r'.job == r.job) result.placements
    |> Option.map snd
  in
  let events =
    List.concat
      [
        [ 0 ];
        List.map (fun r -> r.job.Job.release) instance.jobs;
        List.map
          (fun (r, s) -> s + r.job.Job.size)
          result.placements;
      ]
    |> List.sort_uniq Stdlib.compare
    |> List.filter (fun t -> t < instance.horizon)
  in
  let free_at t =
    instance.machines
    - List.fold_left
        (fun acc (r, s) ->
          if s <= t && t < s + r.job.Job.size then acc + r.width else acc)
        0 result.placements
  in
  let fronts_at t =
    (* Per organization: the earliest-index job not started by [t] whose
       release has passed. *)
    let by_org = Hashtbl.create 8 in
    List.iter
      (fun r ->
        let unstarted =
          match start_of r with None -> true | Some s -> s > t
        in
        if unstarted && r.job.Job.release <= t then begin
          match Hashtbl.find_opt by_org r.job.Job.org with
          | Some (prev : rigid_job) when prev.job.Job.index < r.job.Job.index
            ->
              ()
          | _ -> Hashtbl.replace by_org r.job.Job.org r
        end)
      instance.jobs;
    Hashtbl.fold (fun _ r acc -> r :: acc) by_org []
  in
  let rec check = function
    | [] -> Ok ()
    | t :: rest ->
        let free = free_at t in
        if free < 0 then
          Error (Printf.sprintf "capacity exceeded at t=%d" t)
        else if List.exists (fun r -> r.width <= free) (fronts_at t) then
          Error
            (Printf.sprintf
               "non-greedy: %d processors free at t=%d while a fitting job \
                waits"
               free t)
        else check rest
  in
  check events

let starvation_gadget ~m ~size =
  if m < 2 then invalid_arg "Rigid.starvation_gadget: m < 2";
  make_instance ~machines:m
    ~jobs:
      [
        { job = Job.make ~org:0 ~index:0 ~release:0 ~size (); width = 1 };
        { job = Job.make ~org:1 ~index:0 ~release:0 ~size (); width = m };
      ]
    ~horizon:size

type gadget_row = {
  m : int;
  thin_first : float;
  wide_first : float;
  ratio : float;
}

let gadget_sweep ~ms ~size =
  List.map
    (fun m ->
      let instance = starvation_gadget ~m ~size in
      let thin_first = (simulate instance Narrowest_fit).utilization in
      let wide_first = (simulate instance Widest_fit).utilization in
      { m; thin_first; wide_first; ratio = thin_first /. wide_first })
    ms
