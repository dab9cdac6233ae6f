(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

type t = {
  workers : int;
  federated : bool;
  sims : Coalition_sim.t array;  (* per slot *)
  masks : Coalition.t array;  (* per slot *)
  sizes : int array;  (* per slot: the coalition's size *)
  by_mask : int array;  (* the slots sorted by mask, for [find] *)
  of_org : int array array;
      (* per organization: the slots whose coalition contains it, ascending —
         a release or a static fault reaches only these *)
  m_owner : int array;
      (* global machine id -> home organization, in the driver's
         org-contiguous ascending layout; routes static faults *)
  heap : Int_heap.t;
      (* [time lsl slot_bits lor slot] keys: pops in time order, ties in
         slot order *)
  slot_bits : int;
  heap_key : int array;
      (* smallest key of a live heap entry per slot (max_int if none): lets
         a push skip when an earlier entry already covers the sim, keeping
         the heap near one entry per active slot *)
  gathered : int array;  (* instant at which the slot was last gathered *)
  active : int array;  (* scratch: slots with an event at the instant *)
  staged : int array;  (* scratch: [active] grouped by coalition size *)
  class_start : int array;
      (* scratch, indexed by size: where each size class starts in
         [staged]; the entry past the largest size holds the total *)
  stage_names : string array;  (* trace span name per size class *)
  own_stats : Kernel.Stats.t;  (* the heap pops, owned by no one sim *)
}

let create ?max_restarts ?record ?workers ~instance masks =
  let federated = Federation.Mode.enabled () in
  let k = Instance.organizations instance in
  let has_machines mask =
    Coalition.fold (fun u acc -> acc + instance.Instance.machines.(u)) mask 0
    > 0
  in
  let masks =
    Array.of_list
      (List.filter
         (fun mask ->
           mask <> Coalition.empty && (federated || has_machines mask))
         (Array.to_list masks))
  in
  let n = Array.length masks in
  let by_mask = Array.init n Fun.id in
  Array.sort (fun a b -> compare masks.(a) masks.(b)) by_mask;
  for i = 1 to n - 1 do
    if masks.(by_mask.(i)) = masks.(by_mask.(i - 1)) then
      invalid_arg "Coalition_set.create: repeated mask"
  done;
  let of_org = Array.make k [] in
  for slot = n - 1 downto 0 do
    Coalition.iter_members
      (fun u -> of_org.(u) <- slot :: of_org.(u))
      masks.(slot)
  done;
  {
    workers =
      Stdlib.max 1
        (Option.value workers ~default:(Domain_pool.default_workers ()));
    federated;
    sims =
      Array.map
        (fun members ->
          Coalition_sim.create ?max_restarts ?record ~federated ~instance
            ~members ())
        masks;
    masks;
    sizes = Array.map Coalition.size masks;
    by_mask;
    of_org = Array.map Array.of_list of_org;
    m_owner =
      Array.concat
        (List.init k (fun u -> Array.make instance.Instance.machines.(u) u));
    heap = Int_heap.create ();
    slot_bits =
      (let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
       bits 0);
    heap_key = Array.make n max_int;
    gathered = Array.make n min_int;
    active = Array.make n 0;
    staged = Array.make n 0;
    class_start = Array.make (k + 2) 0;
    stage_names =
      Array.init (k + 1) (fun s -> "coalition_set.stage.s" ^ string_of_int s);
    own_stats = Kernel.Stats.create ();
  }

let length t = Array.length t.sims
let sim t slot = t.sims.(slot)
let mask t slot = t.masks.(slot)

let find t mask =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = t.masks.(t.by_mask.(mid)) in
      if m = mask then t.by_mask.(mid)
      else if m < mask then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length t.by_mask)
let federated t = t.federated

(* --- the event heap ------------------------------------------------------ *)

(* Invariant: every sim with a pending event at time τ has a live heap entry
   with key <= τ.  Keys may undershoot (a release pushed while an earlier
   completion was pending keeps both entries); stale entries are re-keyed or
   dropped when popped.  Keys pack (time, slot) into one int, so pushes and
   pops allocate nothing and write no pointers.  The process-wide counters
   complement the per-run [Kernel.Stats.heap_pops]; they surface when
   `--metrics` is on. *)
let m_heap_pushes = Obs.Metrics.counter "coalition_set.heap_pushes"
let m_heap_pops = Obs.Metrics.counter "coalition_set.heap_pops"

let heap_push t ~time slot =
  if time < t.heap_key.(slot) then begin
    Obs.Metrics.incr m_heap_pushes;
    t.heap_key.(slot) <- time;
    (* a non-negative time that survives the packing *)
    assert (time lsr (62 - t.slot_bits) = 0);
    Int_heap.push t.heap ((time lsl t.slot_bits) lor slot)
  end

let earliest t = Int_heap.top t.heap lsr t.slot_bits

(* Some live heap entry is due at or before [time]. *)
let due t ~time = (not (Int_heap.is_empty t.heap)) && earliest t <= time

(* An event handed over at [time] fires at the sim's next processed instant,
   never before its latest one. *)
let push_event t ~time slot =
  heap_push t ~time:(Stdlib.max time (Coalition_sim.now t.sims.(slot))) slot

let reschedule t slot =
  match Coalition_sim.next_event t.sims.(slot) with
  | Some time -> heap_push t ~time slot
  | None -> ()

(* Pop every entry due at [tau] and collect the slots that genuinely have an
   event there into [active] (deduplicated via the [gathered] stamps); stale
   entries are dropped or re-keyed.  Returns the number gathered. *)
let gather t ~tau =
  let count = ref 0 and slot_mask = (1 lsl t.slot_bits) - 1 in
  while due t ~time:tau do
    let top = Int_heap.pop t.heap in
    let key = top lsr t.slot_bits and slot = top land slot_mask in
    t.own_stats.Kernel.Stats.heap_pops <-
      t.own_stats.Kernel.Stats.heap_pops + 1;
    Obs.Metrics.incr m_heap_pops;
    if t.heap_key.(slot) = key then t.heap_key.(slot) <- max_int;
    if t.gathered.(slot) <> tau then
      match Coalition_sim.next_event t.sims.(slot) with
      | None -> ()
      | Some time when time > tau -> heap_push t ~time slot
      | Some _ ->
          t.gathered.(slot) <- tau;
          t.active.(!count) <- slot;
          incr count
  done;
  !count

(* --- event routing -------------------------------------------------------- *)

let add_release t (job : Job.t) =
  Array.iter
    (fun slot ->
      Coalition_sim.add_release t.sims.(slot) job;
      push_event t ~time:job.Job.release slot)
    t.of_org.(job.Job.org)

(* Under endowment churn a machine's owner is time-varying and differs per
   sim, so the home map cannot route: every sim gets the fault and its own
   ownership state decides whether the machine is visible. *)
let add_fault t (ev : Faults.Event.timed) =
  let deliver slot =
    Coalition_sim.add_fault t.sims.(slot) ev;
    push_event t ~time:ev.Faults.Event.time slot
  in
  if t.federated then
    for slot = 0 to length t - 1 do
      deliver slot
    done
  else
    Array.iter deliver
      t.of_org.(t.m_owner.(Faults.Event.machine ev.Faults.Event.event))

let add_endow t (ev : Federation.Event.timed) =
  if t.federated then
    for slot = 0 to length t - 1 do
      Coalition_sim.add_endow t.sims.(slot) ev;
      push_event t ~time:ev.Federation.Event.time slot
    done

(* --- per-instant processing ---------------------------------------------- *)

(* Dispatch cutoffs: stages at or below the cutoff run inline on the
   calling domain — waking a pool helper costs more than the stage itself.
   Scheduling-round tasks can be heavyweight (REF walks 3^s subsets per
   contested pick) so even a handful are worth dispatching; event-step
   tasks are moderate.  Chunk size 1: tasks are few and uneven, so
   per-task claiming balances load better than contiguous ranges. *)
let round_cutoff = 2
let step_cutoff = 7

let iter t ~cutoff f n =
  if t.workers > 1 then
    Domain_pool.parallel_chunks ~workers:t.workers ~chunk:1 ~cutoff f n
  else
    for i = 0 to n - 1 do
      f i
    done

let process_instant t ~tau ~n_active ~select ~before_contested =
  let active = t.active in
  (* Arrivals and completions: independent across sims. *)
  iter t ~cutoff:step_cutoff
    (fun i ->
      Coalition_sim.step_releases_and_completions t.sims.(active.(i))
        ~time:tau)
    n_active;
  (* [need_round]: some sim can start a job.  [contested]: some sim can
     start one with two or more members waiting — only such a pick may read
     coalition values (a round's waiting set only shrinks); asked only when
     there is a hook to run. *)
  let need_round = ref false
  and contested = ref (Option.is_none before_contested) in
  for i = 0 to n_active - 1 do
    let sim = t.sims.(active.(i)) in
    if Coalition_sim.free_count sim > 0 && Coalition_sim.has_waiting sim
    then begin
      need_round := true;
      if (not !contested) && Coalition_sim.sole_waiting sim < 0 then
        contested := true
    end
  done;
  if !need_round then begin
    (match before_contested with
    | Some hook when !contested -> hook ~time:tau
    | Some _ | None -> ());
    (* Group the active slots by size in one stable counting pass:
       [class_start.(s)] ends up at the first size-s entry of [staged]. *)
    let start = t.class_start and staged = t.staged in
    Array.fill start 0 (Array.length start) 0;
    for i = 0 to n_active - 1 do
      let s = t.sizes.(active.(i)) in
      start.(s) <- start.(s) + 1
    done;
    for s = 1 to Array.length start - 1 do
      start.(s) <- start.(s) + start.(s - 1)
    done;
    for i = n_active - 1 downto 0 do
      let slot = active.(i) in
      let s = t.sizes.(slot) in
      start.(s) <- start.(s) - 1;
      staged.(start.(s)) <- slot
    done;
    (* Scheduling rounds, size-ascending (Fig. 1's [for s <- 1 to ||C||]):
       a round reads only strictly smaller coalitions' values, frozen
       within the instant, so each size class is one parallel stage. *)
    for s = 1 to Array.length start - 2 do
      let lo = start.(s) and hi = start.(s + 1) in
      if hi > lo then begin
        let run i =
          Coalition_sim.schedule_round t.sims.(staged.(lo + i)) ~time:tau
            ~select
        in
        let run_stage () = iter t ~cutoff:round_cutoff run (hi - lo) in
        (* A span per parallel stage; a sequential one adds nothing to the
           kernel's own round spans. *)
        if t.workers > 1 && Obs.Trace.enabled () then
          Obs.Trace.span ~cat:"coalition_set" t.stage_names.(s) run_stage
        else run_stage ()
      end
    done
  end;
  for i = 0 to n_active - 1 do
    reschedule t active.(i)
  done

(* The heap minimum is a lower bound on the true next instant: a gather that
   comes up empty has corrected the stale keys, so the loop makes progress
   either way. *)
let advance_to ?before_contested t ~time ~select =
  while due t ~time do
    let tau = earliest t in
    let n_active = gather t ~tau in
    if n_active > 0 then
      process_instant t ~tau ~n_active ~select ~before_contested
  done

let stats t =
  Kernel.Stats.total
    (Array.fold_left
       (fun acc sim -> Coalition_sim.stats sim :: acc)
       [ t.own_stats ] t.sims)
