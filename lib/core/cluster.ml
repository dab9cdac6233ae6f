type completion = { job : Job.t; start : int; finish : int; machine : int }

type kill = {
  k_job : Job.t;
  k_start : int;
  k_machine : int;
  k_wasted : int;
  k_resubmitted : bool;
}

type running = { r_job : Job.t; r_start : int; r_machine : int }

type t = {
  owners : int array;
  speeds : float array;
  norgs : int;
  record : bool;
  (* Free machines as a swap-remove bag: O(1) push/pop, O(n) targeted
     removal (n = pool size, removal by id is rare: only policies that pin a
     machine use it).  Invariant: only up machines are ever in the bag. *)
  free : int array;
  mutable free_size : int;
  heap : running Heap.t;
  queues : Job.t Queue.t array;
  (* Killed jobs resubmitted ahead of the FIFO queue, ascending by index —
     a restarted job keeps its original FIFO rank, so it must run before
     anything submitted after it. *)
  resubmitted : Job.t list array;
  mutable waiting_total : int;
  running_per_org : int array;
  completed_work : int array;
  mutable placements : Schedule.placement list;
  (* Fault state. *)
  up : bool array;
  mutable down_count : int;
  (* Federation state: a machine retired from the consortium is [present =
     false] — out of the free pool and hosting nothing — until readmitted;
     a suspended organization keeps its queue but is invisible to
     scheduling ([waiting_total] counts only active orgs' jobs).  The
     static seed has everything present and active, so the fields are
     inert unless an endowment stream drives them. *)
  present : bool array;
  mutable absent_count : int;
  active : bool array;
  max_restarts : int option;
  restarts : (int * int, int) Hashtbl.t; (* job id -> kills so far *)
  mutable killed : Schedule.placement list;
  mutable killed_count : int;
  wasted_work : int array; (* per org: executed parts lost to kills *)
  mutable abandoned : Job.t list;
}

let create ?(record = false) ?speeds ?max_restarts ~machine_owners ~norgs () =
  let m = Array.length machine_owners in
  if m = 0 then invalid_arg "Cluster.create: no machines";
  let speeds =
    match speeds with
    | None -> Array.make m 1.0
    | Some sp ->
        if Array.length sp <> m then
          invalid_arg "Cluster.create: speeds length mismatch";
        Array.iter
          (fun s -> if s <= 0. then invalid_arg "Cluster.create: speed <= 0")
          sp;
        Array.copy sp
  in
  Array.iter
    (fun o ->
      if o < 0 || o >= norgs then
        invalid_arg "Cluster.create: machine owner out of range")
    machine_owners;
  (match max_restarts with
  | Some r when r < 0 -> invalid_arg "Cluster.create: max_restarts < 0"
  | Some _ | None -> ());
  {
    owners = Array.copy machine_owners;
    speeds;
    norgs;
    record;
    free = Array.init m (fun i -> i);
    free_size = m;
    heap = Heap.create ();
    queues = Array.init norgs (fun _ -> Queue.create ());
    resubmitted = Array.make norgs [];
    waiting_total = 0;
    running_per_org = Array.make norgs 0;
    completed_work = Array.make norgs 0;
    placements = [];
    up = Array.make m true;
    down_count = 0;
    present = Array.make m true;
    absent_count = 0;
    active = Array.make norgs true;
    max_restarts;
    restarts = Hashtbl.create 8;
    killed = [];
    killed_count = 0;
    wasted_work = Array.make norgs 0;
    abandoned = [];
  }

let machines t = Array.length t.owners
let norgs t = t.norgs

let machine_owner t i =
  if i < 0 || i >= Array.length t.owners then
    invalid_arg "Cluster.machine_owner";
  t.owners.(i)

let machine_speed t i =
  if i < 0 || i >= Array.length t.speeds then
    invalid_arg "Cluster.machine_speed";
  t.speeds.(i)

let fastest_free_machine t =
  let rec go i best =
    if i >= t.free_size then best
    else
      let m = t.free.(i) in
      match best with
      | Some b when t.speeds.(b) >= t.speeds.(m) -> go (i + 1) best
      | _ -> go (i + 1) (Some m)
  in
  go 0 None

(* Wall-clock occupancy of a job on a machine: ceil (size / speed), at
   least 1. *)
let duration_on t ~machine ~size =
  let s = t.speeds.(machine) in
  if s = 1.0 then size
  else Stdlib.max 1 (int_of_float (Float.ceil (float_of_int size /. s)))

let release t (job : Job.t) =
  if job.Job.org < 0 || job.Job.org >= t.norgs then
    invalid_arg "Cluster.release: organization out of range";
  Queue.add job t.queues.(job.Job.org);
  if t.active.(job.Job.org) then t.waiting_total <- t.waiting_total + 1

let next_completion t = Heap.top_prio t.heap

let pop_completion_le t bound =
  match Heap.pop_le t.heap bound with
  | None -> None
  | Some (finish, r) ->
      t.free.(t.free_size) <- r.r_machine;
      t.free_size <- t.free_size + 1;
      let org = r.r_job.Job.org in
      t.running_per_org.(org) <- t.running_per_org.(org) - 1;
      t.completed_work.(org) <- t.completed_work.(org) + r.r_job.Job.size;
      Some { job = r.r_job; start = r.r_start; finish; machine = r.r_machine }

let free_count t = t.free_size

let free_machine_ids t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.free.(i) :: acc) in
  go (t.free_size - 1) []

let has_waiting t = t.waiting_total > 0

let is_waiting t u =
  t.active.(u)
  && not (Queue.is_empty t.queues.(u) && t.resubmitted.(u) = [])

let waiting_orgs t =
  let rec go u acc =
    if u < 0 then acc
    else if is_waiting t u then go (u - 1) (u :: acc)
    else go (u - 1) acc
  in
  go (t.norgs - 1) []

(* Allocation-free: stops at the second waiting organization. *)
let sole_waiting t =
  let rec go u found =
    if u >= t.norgs then found
    else if not (is_waiting t u) then go (u + 1) found
    else if found >= 0 then -1
    else go (u + 1) u
  in
  go 0 (-1)

(* Single allocation-free scan: earliest front release wins, the lowest org
   on ties (strict [<] over ascending orgs).  Releases are non-negative
   (Job.make), so -1 marks an org with nothing waiting. *)
let fifo_org t =
  let best = ref (-1) and best_release = ref max_int in
  for u = 0 to t.norgs - 1 do
    let release =
      if not t.active.(u) then -1
      else
        match t.resubmitted.(u) with
        | j :: _ -> j.Job.release
        | [] ->
            let q = t.queues.(u) in
            if Queue.is_empty q then -1 else (Queue.peek q).Job.release
    in
    if release >= 0 && release < !best_release then begin
      best := u;
      best_release := release
    end
  done;
  if !best < 0 then invalid_arg "Cluster.fifo_org: nothing waiting";
  !best

let waiting_count t u =
  Queue.length t.queues.(u) + List.length t.resubmitted.(u)

let front t u =
  match t.resubmitted.(u) with
  | j :: _ -> Some j
  | [] -> Queue.peek_opt t.queues.(u)

let take_free_machine t = function
  | None ->
      if t.free_size = 0 then invalid_arg "Cluster.start_front: no free machine";
      t.free_size <- t.free_size - 1;
      t.free.(t.free_size)
  | Some m ->
      let rec find i =
        if i >= t.free_size then
          invalid_arg "Cluster.start_front: requested machine is busy"
        else if t.free.(i) = m then begin
          t.free_size <- t.free_size - 1;
          t.free.(i) <- t.free.(t.free_size);
          m
        end
        else find (i + 1)
      in
      find 0

let start_front t ~org ~time ?machine () =
  if not t.active.(org) then
    invalid_arg "Cluster.start_front: organization suspended";
  if Queue.is_empty t.queues.(org) && t.resubmitted.(org) = [] then
    invalid_arg "Cluster.start_front: empty queue";
  let machine = take_free_machine t machine in
  let job =
    match t.resubmitted.(org) with
    | j :: rest ->
        t.resubmitted.(org) <- rest;
        j
    | [] -> Queue.pop t.queues.(org)
  in
  t.waiting_total <- t.waiting_total - 1;
  t.running_per_org.(org) <- t.running_per_org.(org) + 1;
  let duration = duration_on t ~machine ~size:job.Job.size in
  Heap.add t.heap ~prio:(time + duration)
    { r_job = job; r_start = time; r_machine = machine };
  let placement = Schedule.placement ~duration ~job ~start:time ~machine () in
  if t.record then t.placements <- placement :: t.placements;
  placement

let running_count t u = t.running_per_org.(u)
let completed_work t u = t.completed_work.(u)
let placements t = t.placements

(* --- machine faults ----------------------------------------------------- *)

let machine_up t m =
  if m < 0 || m >= Array.length t.owners then invalid_arg "Cluster.machine_up";
  t.up.(m)

let up_count t = Array.length t.owners - t.down_count
let down_count t = t.down_count

let remove_from_free t m =
  let rec find i =
    if i >= t.free_size then false
    else if t.free.(i) = m then begin
      t.free_size <- t.free_size - 1;
      t.free.(i) <- t.free.(t.free_size);
      true
    end
    else find (i + 1)
  in
  find 0

(* A restarted job keeps its FIFO rank: insert by ascending index so the
   lowest-rank killed job is the new front. *)
let rec insert_by_index (job : Job.t) = function
  | [] -> [ job ]
  | j :: _ as rest when job.Job.index < j.Job.index -> job :: rest
  | j :: rest -> j :: insert_by_index job rest

(* Kill whatever job machine [m] currently hosts (shared by machine faults
   and consortium retirements).  The caller has already taken [m] out of
   circulation (marked down or absent) and checked it is not free. *)
let kill_running t ~time ~what m =
  match Heap.remove_first t.heap (fun r -> r.r_machine = m) with
  | None -> None (* out of circulation before it ever hosted the next job *)
  | Some (_finish, r) ->
      let job = r.r_job in
      let org = job.Job.org in
      if time < r.r_start then
        invalid_arg (what ^ ": time before the job's start");
      t.running_per_org.(org) <- t.running_per_org.(org) - 1;
      let wasted = time - r.r_start in
      t.wasted_work.(org) <- t.wasted_work.(org) + wasted;
      t.killed_count <- t.killed_count + 1;
      if t.record then begin
        (* Replace the optimistic full-duration placement recorded at
           start with a truncated killed segment (dropped entirely when
           the kill lands on the start instant: nothing ran). *)
        t.placements <-
          List.filter
            (fun (p : Schedule.placement) ->
              not (Job.equal p.Schedule.job job && p.Schedule.start = r.r_start))
            t.placements;
        if wasted > 0 then
          t.killed <-
            Schedule.placement ~duration:wasted ~job ~start:r.r_start
              ~machine:m ()
            :: t.killed
      end;
      let id = Job.id job in
      let kills = 1 + Option.value (Hashtbl.find_opt t.restarts id) ~default:0 in
      Hashtbl.replace t.restarts id kills;
      let resubmit =
        match t.max_restarts with None -> true | Some r -> kills <= r
      in
      if resubmit then begin
        t.resubmitted.(org) <- insert_by_index job t.resubmitted.(org);
        if t.active.(org) then t.waiting_total <- t.waiting_total + 1
      end
      else t.abandoned <- job :: t.abandoned;
      Some
        {
          k_job = job;
          k_start = r.r_start;
          k_machine = m;
          k_wasted = wasted;
          k_resubmitted = resubmit;
        }

let fail_machine t ~time m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.fail_machine";
  if not t.up.(m) then None
  else begin
    t.up.(m) <- false;
    t.down_count <- t.down_count + 1;
    if remove_from_free t m then None
    else if not t.present.(m) then None (* retired machines host nothing *)
    else kill_running t ~time ~what:"Cluster.fail_machine" m
  end

let recover_machine t m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.recover_machine";
  if t.up.(m) then false
  else begin
    t.up.(m) <- true;
    t.down_count <- t.down_count - 1;
    (* A machine retired while down stays out of the pool until readmitted. *)
    if t.present.(m) then begin
      t.free.(t.free_size) <- m;
      t.free_size <- t.free_size + 1
    end;
    true
  end

(* --- consortium endowments --------------------------------------------- *)

let machine_present t m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.machine_present";
  t.present.(m)

let present_count t = Array.length t.owners - t.absent_count
let org_active t u = t.active.(u)

let active_count t =
  Array.fold_left (fun n a -> if a then n + 1 else n) 0 t.active

let retire_machine t ~time m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.retire_machine";
  if not t.present.(m) then None
  else begin
    t.present.(m) <- false;
    t.absent_count <- t.absent_count + 1;
    if not t.up.(m) then None (* its job already died with the fault *)
    else if remove_from_free t m then None
    else kill_running t ~time ~what:"Cluster.retire_machine" m
  end

let admit_machine t ~org m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.admit_machine";
  if org < 0 || org >= t.norgs then
    invalid_arg "Cluster.admit_machine: organization out of range";
  if t.present.(m) then invalid_arg "Cluster.admit_machine: already present";
  t.present.(m) <- true;
  t.absent_count <- t.absent_count - 1;
  t.owners.(m) <- org;
  if t.up.(m) then begin
    t.free.(t.free_size) <- m;
    t.free_size <- t.free_size + 1
  end

let transfer_machine t ~org m =
  if m < 0 || m >= Array.length t.owners then
    invalid_arg "Cluster.transfer_machine";
  if org < 0 || org >= t.norgs then
    invalid_arg "Cluster.transfer_machine: organization out of range";
  if not t.present.(m) then
    invalid_arg "Cluster.transfer_machine: machine not present";
  t.owners.(m) <- org

let suspend_org t u =
  if u < 0 || u >= t.norgs then invalid_arg "Cluster.suspend_org";
  if t.active.(u) then begin
    t.active.(u) <- false;
    t.waiting_total <- t.waiting_total - waiting_count t u
  end

let resume_org t u =
  if u < 0 || u >= t.norgs then invalid_arg "Cluster.resume_org";
  if not t.active.(u) then begin
    t.active.(u) <- true;
    t.waiting_total <- t.waiting_total + waiting_count t u
  end

let killed_count t = t.killed_count
let wasted_work t u = t.wasted_work.(u)
let abandoned t = List.rev t.abandoned
let abandoned_count t = List.length t.abandoned

let to_schedule t =
  if not t.record then
    invalid_arg "Cluster.to_schedule: cluster was not recording";
  Schedule.of_placements ~killed:t.killed ~machines:(machines t) t.placements
