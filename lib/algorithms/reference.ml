(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

type concept = Shapley_value | Banzhaf_value

(* The REF advancement engine.

   Three optimizations over the straightforward Fig. 1 transcription (see
   DESIGN.md, "Performance engineering"):

   - a global event heap of (next-event-time, mask) entries replaces the
     O(2^k) fold that recomputed the earliest pending sub-coalition event
     at every instant.  Entries are lower bounds, lazily re-keyed on pop;
     only sub-coalitions that actually have an event at an instant are
     stepped (a coalition cannot start a job between its own events: its
     machines stay saturated-or-drained until a completion or release of
     its own).

   - per-instant work is staged and domain-parallel: arrivals/completions
     are independent across sims, and the scheduling round of a coalition
     only reads the (frozen-within-the-instant) values of strictly smaller
     coalitions, so each size class s = 1..k-1 is an independent parallel
     stage (Fig. 1's [for s <- 1 to ||C||] loop).  Stages run on the
     persistent pool in Core.Domain_pool; with [workers = 1] the same
     stages run inline and the engine is strictly sequential.

   - the inner 3^k Shapley sum is allocation-free and only runs for
     contested decisions (a lone waiting organization is a forced choice):
     weight tables are hoisted into per-size float arrays at construction,
     popcounts come from a precomputed table, and the subset walk runs
     over a preflattened int array (for k <= 12; an inline submask walk
     beyond), reading values from a dense array pinned beforehand.

   Outputs are bit-identical across worker counts: parallelism only spans
   sims that do not read each other's mutable state within an instant, and
   every float accumulates in the same order as the sequential engine. *)

type internals = {
  concept : concept;
  k : int;
  workers : int;
  federated : bool;
      (* endowment churn in play (Federation.Mode at construction): sims
         exist for every mask, events are broadcast, and the top-level value
         is computed over the live consortium instead of the grand mask *)
  mutable consortium : Coalition.t;
      (* the currently active organizations k(t); equals [grand] until a
         Leave arrives.  Only mutated by the on_endow handler (driver
         domain), only read between instants — no synchronization needed. *)
  grand : Coalition.t;
  sims : Coalition_sim.t option array;
      (* indexed by mask; None for the grand coalition (the driver's own
         cluster plays that role), the empty mask, and — in static mode —
         machine-less coalitions (their value is identically 0: nothing
         ever runs).  Federated mode keeps sims for every proper mask: a
         lend can endow a machine-less coalition at any instant. *)
  all_masks : int array;  (* simulated masks, ascending *)
  by_size : int array array;
      (* by_size.(s-1): simulated masks of size s, ascending — grouped at
         construction so the staged loops iterate without list allocation *)
  size_tbl : int array;  (* popcount per mask *)
  weights : float array array;
      (* weights.(n).(s-1): marginal weight of a size-s subset inside a
         size-n coalition — Shapley (s-1)!(n-s)!/n! or Banzhaf 1/2^(n-1) *)
  subsets_flat : int array array;
      (* per mask: its non-empty subsets in canonical walk order (the mask
         itself first, then the decreasing submask walk); [||] means "walk
         inline" (k > 12, where 3^k ints would not be worth the memory) *)
  v2_val : int array;
  v2_stamp : int array;  (* instant at which v2_val was computed *)
  phi2_val : float array array;
      (* preallocated per simulated mask (and the grand coalition) at
         construction and filled in place — no per-instant allocation *)
  phi2_stamp : int array;  (* instant at which phi2_val was computed *)
  m_owner : int array;  (* global machine id -> owning organization *)
  heap : int Heap.t;  (* global event queue: prio = time, value = mask *)
  heap_key : int array;
      (* smallest key of a live heap entry per mask (max_int if unknown):
         lets releases skip pushing when an earlier entry already covers
         the sim, keeping the heap near one entry per active mask *)
  gathered : int array;  (* instant at which the mask was last gathered *)
  active_buf : int array;  (* scratch: masks with an event at the instant *)
  stage_buf : int array;  (* scratch: the size-class slice of active_buf *)
  pending : Instant.t;  (* grand-coalition pending starts *)
  own_stats : Kernel.Stats.t;
      (* engine-level counters not owned by any one sim's kernel: the
         global event-heap pops *)
}

let create_internals ?(concept = Shapley_value) ?workers ?max_restarts
    instance =
  let workers =
    match workers with
    | Some w -> Stdlib.max 1 w
    | None -> Domain_pool.default_workers ()
  in
  let k = Instance.organizations instance in
  if k > 16 then
    invalid_arg "Reference: more than 16 organizations is impractical (2^k \
                 schedules)";
  let federated = Federation.Mode.enabled () in
  let grand = Coalition.grand ~players:k in
  let nmasks = grand + 1 in
  let size_tbl = Array.make nmasks 0 in
  for mask = 1 to nmasks - 1 do
    size_tbl.(mask) <- size_tbl.(mask lsr 1) + (mask land 1)
  done;
  let has_machines mask =
    Coalition.fold (fun u acc -> acc + instance.Instance.machines.(u)) mask 0
    > 0
  in
  let sims = Array.make nmasks None in
  let n_sims = ref 0 in
  for mask = 1 to grand - 1 do
    if federated || has_machines mask then begin
      sims.(mask) <-
        Some
          (Coalition_sim.create ?max_restarts ~federated ~instance
             ~members:mask ());
      incr n_sims
    end
  done;
  let all_masks = Array.make !n_sims 0 in
  let counts = Array.make k 0 in
  let pos = ref 0 in
  for mask = 1 to grand - 1 do
    if sims.(mask) <> None then begin
      all_masks.(!pos) <- mask;
      incr pos;
      counts.(size_tbl.(mask) - 1) <- counts.(size_tbl.(mask) - 1) + 1
    end
  done;
  let by_size = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make k 0 in
  Array.iter
    (fun mask ->
      let s = size_tbl.(mask) - 1 in
      by_size.(s).(fill.(s)) <- mask;
      fill.(s) <- fill.(s) + 1)
    all_masks;
  let weights = Array.make (k + 1) [||] in
  for n = 1 to k do
    weights.(n) <-
      Array.init n (fun s ->
          match concept with
          | Shapley_value ->
              Numeric.Combinatorics.shapley_weight_float ~players:n ~subset:s
          | Banzhaf_value -> 1. /. float_of_int (1 lsl (n - 1)))
  done;
  let subsets_flat = Array.make nmasks [||] in
  if k <= 12 then begin
    (* 3^k - 2^k ints in total: ~4 MB at k = 12.  Canonical order: the mask
       itself, then the decreasing submask walk, empty set excluded. *)
    let flatten mask =
      let arr = Array.make ((1 lsl size_tbl.(mask)) - 1) 0 in
      let idx = ref 0 in
      let sub = ref mask in
      while !sub <> 0 do
        arr.(!idx) <- !sub;
        incr idx;
        sub := (!sub - 1) land mask
      done;
      arr
    in
    Array.iter (fun mask -> subsets_flat.(mask) <- flatten mask) all_masks;
    subsets_flat.(grand) <- flatten grand
  end;
  (* Grand-coalition machine layout: org-contiguous ascending (the driver's
     convention); used to route machine faults to the affected masks. *)
  let m_owner =
    Array.concat
      (List.init k (fun u ->
           Array.make instance.Instance.machines.(u) u))
  in
  let phi2_val = Array.make nmasks [||] in
  Array.iter (fun mask -> phi2_val.(mask) <- Array.make k 0.) all_masks;
  phi2_val.(grand) <- Array.make k 0.;
  {
    concept;
    k;
    workers;
    federated;
    consortium = grand;
    grand;
    sims;
    all_masks;
    by_size;
    size_tbl;
    weights;
    subsets_flat;
    m_owner;
    v2_val = Array.make nmasks 0;
    v2_stamp = Array.make nmasks min_int;
    phi2_val;
    phi2_stamp = Array.make nmasks min_int;
    heap = Heap.create ();
    heap_key = Array.make nmasks max_int;
    gathered = Array.make nmasks min_int;
    active_buf = Array.make (Stdlib.max 1 !n_sims) 0;
    stage_buf = Array.make (Stdlib.max 1 !n_sims) 0;
    pending = Instant.create ~norgs:k;
    own_stats = Kernel.Stats.create ();
  }

(* Pin 2·v of a simulated [mask] at [time] into [v2_val]: the sim's O(1)
   value polynomial (DESIGN.md §13), one stamp check when already pinned.
   Machine-less masks and the empty mask are never written, so their
   [v2_val] stays at its constant 0.  During a parallel scheduling stage
   every simulated mask has already been pinned at [time] (see
   [process_instant]), so this writes nothing there; the lazy write path
   only runs on the owning domain. *)
let pin_v2 st ~mask ~time =
  if st.v2_stamp.(mask) <> time then
    match st.sims.(mask) with
    | None -> ()
    | Some sim ->
        st.v2_val.(mask) <- Coalition_sim.value_scaled sim ~at:time;
        st.v2_stamp.(mask) <- time

let v2_sim st ~mask ~time =
  pin_v2 st ~mask ~time;
  st.v2_val.(mask)

(* One subset's marginal terms, members of [sub] ascending (like
   Coalition.iter_members); every [sub] minus a member must be pinned. *)
let add_marginals st phi w_tbl ~sub ~v_sub =
  let w = w_tbl.(st.size_tbl.(sub) - 1) in
  let rem = ref sub and u = ref 0 in
  while !rem <> 0 do
    if !rem land 1 <> 0 then
      phi.(!u) <-
        phi.(!u)
        +. (w *. float_of_int (v_sub - st.v2_val.(sub land lnot (1 lsl !u))));
    rem := !rem lsr 1;
    incr u
  done

let m_phi_walks = Obs.Metrics.counter "ref.phi_walks"

(* Shapley/Banzhaf contributions (×2) of the members of [mask], from the
   current sub-coalition values; [v2_top] supplies v2 of [mask] itself (for
   the top-level call it comes from the driver's trackers, not a sim).
   [slot] picks the memo array; it differs from [mask] only for the
   federated top-level computation, which runs over the live consortium but
   must not clobber that mask's own sim-side memo (their v2_top differ: the
   real cluster's value vs the what-if schedule's).
   Two passes: pin every proper submask's value, then walk the subsets as
   plain reads of the dense [v2_val] array, in the canonical order (the
   mask itself, then the decreasing submask walk) so every float
   accumulates exactly as a lazy per-read walk would.  Allocation-free:
   one float array out, weights and popcounts from tables. *)
let phi2_of st ~slot ~mask ~time ~v2_top =
  Obs.Metrics.incr m_phi_walks;
  (* Preallocated per-mask scratch (construction time), zeroed and refilled
     in place. *)
  let phi = st.phi2_val.(slot) in
  Array.fill phi 0 st.k 0.;
  let w_tbl = st.weights.(st.size_tbl.(mask)) in
  let subs = st.subsets_flat.(mask) in
  let n = Array.length subs in
  if n > 0 then begin
    (* subs.(0) is the mask itself *)
    for i = 1 to n - 1 do
      pin_v2 st ~mask:subs.(i) ~time
    done;
    add_marginals st phi w_tbl ~sub:mask ~v_sub:v2_top;
    for i = 1 to n - 1 do
      let sub = subs.(i) in
      add_marginals st phi w_tbl ~sub ~v_sub:st.v2_val.(sub)
    done
  end
  else begin
    (* k > 12: the same two passes over the inline submask walk *)
    let sub = ref ((mask - 1) land mask) in
    while !sub <> 0 do
      pin_v2 st ~mask:!sub ~time;
      sub := (!sub - 1) land mask
    done;
    add_marginals st phi w_tbl ~sub:mask ~v_sub:v2_top;
    sub := (mask - 1) land mask;
    while !sub <> 0 do
      add_marginals st phi w_tbl ~sub:!sub ~v_sub:st.v2_val.(!sub);
      sub := (!sub - 1) land mask
    done
  end;
  (* The Banzhaf value is not efficient; normalize the members' shares to
     the coalition value so the (φ − ψ) comparisons stay on one scale. *)
  (match st.concept with
  | Shapley_value -> ()
  | Banzhaf_value ->
      let total = Coalition.fold (fun u acc -> acc +. phi.(u)) mask 0. in
      if total <> 0. then begin
        let factor = float_of_int v2_top /. total in
        Coalition.iter_members (fun u -> phi.(u) <- phi.(u) *. factor) mask
      end)

(* φ2 arrays are memoized per (mask, instant): coalition values do not
   change within an instant (a job started now has no executed part yet).
   Each slot is only ever touched by the domain scheduling that mask, so
   the per-mask arrays need no locking. *)
let phi2_cached st ?slot ~mask ~time ~v2_top () =
  let slot = Option.value slot ~default:mask in
  if st.phi2_stamp.(slot) <> time then begin
    phi2_of st ~slot ~mask ~time ~v2_top;
    st.phi2_stamp.(slot) <- time
  end;
  st.phi2_val.(slot)

let m_select_forced = Obs.Metrics.counter "ref.select_forced"

(* Selection rule inside a simulated coalition: argmax (φ − ψ) among waiting
   members, ψ evaluated with the pending (+1 per started part) convention.
   A lone waiting member is a forced choice and reads no value at all; since
   a round's waiting set only shrinks, a round whose first pick is forced
   never walks φ. *)
let select_in_sim st ~mask sim ~time =
  let sole = Coalition_sim.sole_waiting sim in
  if sole >= 0 then begin
    Obs.Metrics.incr m_select_forced;
    sole
  end
  else
    let phi2 = phi2_cached st ~mask ~time ~v2_top:(v2_sim st ~mask ~time) () in
    let score u =
      let psi2 =
        Coalition_sim.utility_scaled sim ~org:u ~at:time
        + (2 * Instant.get (Coalition_sim.pending sim) ~time ~org:u)
      in
      phi2.(u) -. float_of_int psi2
    in
    match Coalition_sim.waiting_orgs sim with
    | [] -> invalid_arg "reference: nothing waiting in sub-coalition"
    | first :: rest ->
        List.fold_left
          (fun best u -> if score u > score best then u else best)
          first rest

(* --- the global event heap ---------------------------------------------- *)

(* Invariant: every sim with a pending event at time t has a live heap entry
   with key <= t.  Keys may undershoot (a release pushed while an earlier
   completion was pending keeps both entries); stale entries are re-keyed or
   dropped when popped.  [heap_key] tracks the smallest live key per mask so
   releases can skip pushing when already covered. *)
(* Process-wide heap-op counters, distinct from the per-run
   [Kernel.Stats.heap_pops]: these aggregate across runs and domains and
   surface through [Obs.Metrics] when `--metrics` is on. *)
let m_heap_pushes = Obs.Metrics.counter "ref.heap_pushes"
let m_heap_pops = Obs.Metrics.counter "ref.heap_pops"

let heap_push st ~time mask =
  if time < st.heap_key.(mask) then begin
    Obs.Metrics.incr m_heap_pushes;
    Heap.add st.heap ~prio:time mask;
    st.heap_key.(mask) <- time
  end

let note_popped st ~key mask =
  if st.heap_key.(mask) = key then st.heap_key.(mask) <- max_int

let reschedule st mask =
  match st.sims.(mask) with
  | None -> ()
  | Some sim -> (
      match Coalition_sim.next_event sim with
      | Some t -> heap_push st ~time:t mask
      | None -> ())

(* Pop every entry due at [tau] and collect the masks that genuinely have an
   event there into [active_buf] (deduplicated via the [gathered] stamps);
   stale entries are dropped or re-keyed.  Returns the number gathered. *)
let gather st ~tau =
  let count = ref 0 in
  let rec go () =
    match Heap.pop_le st.heap tau with
    | None -> ()
    | Some (key, mask) ->
        st.own_stats.Kernel.Stats.heap_pops <-
          st.own_stats.Kernel.Stats.heap_pops + 1;
        Obs.Metrics.incr m_heap_pops;
        note_popped st ~key mask;
        (match st.sims.(mask) with
        | None -> ()
        | Some sim ->
            if st.gathered.(mask) <> tau then (
              match Coalition_sim.next_event sim with
              | None -> ()
              | Some t when t > tau -> heap_push st ~time:t mask
              | Some _ ->
                  st.gathered.(mask) <- tau;
                  st.active_buf.(!count) <- mask;
                  incr count));
        go ()
  in
  go ();
  !count

(* --- per-instant processing --------------------------------------------- *)

(* Dispatch cutoffs (see DESIGN.md §8/§13): stages at or below the cutoff
   run inline on the calling domain — waking a pool helper costs more than
   the stage itself.  Scheduling-round tasks are heavyweight (a 3^s subset
   walk each) so even a handful are worth dispatching; event-step tasks are
   moderate; refresh tasks are one polynomial evaluation each, so
   only large refresh sweeps leave the calling domain, claimed in chunks
   rather than one by one. *)
let round_cutoff = 2
let step_cutoff = 7
let refresh_cutoff = 48

let process_instant st ~tau ~n_active =
  let active = st.active_buf in
  let par = st.workers > 1 in
  let iter ~chunk ~cutoff f n =
    if par then
      Domain_pool.parallel_chunks ~workers:st.workers ?chunk ~cutoff f n
    else
      for i = 0 to n - 1 do
        f i
      done
  in
  (* Stage 1: arrivals and completions — independent across sims. *)
  let step i =
    match st.sims.(active.(i)) with
    | Some sim -> Coalition_sim.step_releases_and_completions sim ~time:tau
    | None -> ()
  in
  iter ~chunk:(Some 1) ~cutoff:step_cutoff step n_active;
  (* [need_round]: some sim can start a job.  [contested]: some sim can
     start one with two or more members waiting — only such a round reads
     coalition values (a forced pick reads none, and a round's waiting set
     only shrinks). *)
  let need_round = ref false and contested = ref false in
  for i = 0 to n_active - 1 do
    match st.sims.(active.(i)) with
    | Some sim ->
        if Coalition_sim.free_count sim > 0 && Coalition_sim.has_waiting sim
        then begin
          need_round := true;
          if Coalition_sim.sole_waiting sim < 0 then contested := true
        end
    | None -> ()
  done;
  if !need_round then begin
    (* Stage 2 (parallel engine only, contested rounds only): pin 2·v of
       every sub-coalition at [tau] before any round runs, so the parallel
       rounds below only read [v2_val].  Values are frozen within the
       instant either way; the sequential engine keeps the lazy per-read
       path. *)
    if par && !contested then begin
      let refresh i = pin_v2 st ~mask:st.all_masks.(i) ~time:tau in
      let run_refresh () =
        iter ~chunk:None ~cutoff:refresh_cutoff refresh
          (Array.length st.all_masks)
      in
      if Obs.Trace.enabled () then
        Obs.Trace.span ~cat:"ref" "ref.refresh" run_refresh
      else run_refresh ()
    end;
    (* Stage 3: scheduling rounds, size-ascending (Fig. 1's [for s <- 1 to
       ||C||]); masks of equal size never read each other's state, so each
       size class is one parallel stage.  Chunk size 1: round tasks are few
       and uneven (the 3^s walk grows with s), so per-task claiming load
       balances better than contiguous ranges. *)
    for s = 1 to st.k - 1 do
      let stage = st.stage_buf in
      let m = ref 0 in
      for i = 0 to n_active - 1 do
        let mask = active.(i) in
        if st.size_tbl.(mask) = s then begin
          stage.(!m) <- mask;
          incr m
        end
      done;
      if !m > 0 then begin
        let run i =
          let mask = stage.(i) in
          match st.sims.(mask) with
          | Some sim ->
              Coalition_sim.schedule_round sim ~time:tau
                ~select:(fun sim ~time -> select_in_sim st ~mask sim ~time)
          | None -> ()
        in
        let run_stage () = iter ~chunk:(Some 1) ~cutoff:round_cutoff run !m in
        if Obs.Trace.enabled () then
          Obs.Trace.span ~cat:"ref"
            ("ref.stage.s" ^ string_of_int s)
            run_stage
        else run_stage ()
      end
    done
  end;
  (* Stage 4: re-key the processed sims. *)
  for i = 0 to n_active - 1 do
    reschedule st active.(i)
  done

(* Advance every simulated sub-coalition through all events at instants
   <= [time], in global event order.  The heap minimum is a lower bound on
   the true next instant: a gather that comes up empty has corrected the
   stale keys, so the loop makes progress either way. *)
let advance_all st ~time =
  let rec loop () =
    match Heap.min_prio st.heap with
    | Some t0 when t0 <= time ->
        let n_active = gather st ~tau:t0 in
        if n_active > 0 then process_instant st ~tau:t0 ~n_active;
        loop ()
    | Some _ | None -> ()
  in
  loop ()

let grand_v2 (view : Policy.view) ~time =
  Array.fold_left
    (fun acc tracker -> acc + Utility.Tracker.value_scaled tracker ~at:time)
    0 view.Policy.trackers

(* The top of the recursion: in static mode the grand coalition, in
   federated mode the live consortium k(t) — suspended organizations drop
   out of the player set, so both the characteristic values and the weight
   tables re-derive from the active org count.  Its value comes from the
   real cluster's trackers (Fig. 1 uses the actual schedule for the
   deciding coalition), restricted to the active members. *)
let top_v2 st (view : Policy.view) ~time =
  if st.consortium = st.grand then grand_v2 view ~time
  else
    Coalition.fold
      (fun u acc ->
        acc + Utility.Tracker.value_scaled view.Policy.trackers.(u) ~at:time)
      st.consortium 0

let top_phi2 st ~view ~time =
  phi2_cached st ~slot:st.grand ~mask:st.consortium ~time
    ~v2_top:(top_v2 st view ~time)
    ()

let contributions_scaled st ~view ~time =
  advance_all st ~time;
  top_phi2 st ~view ~time

let coalition_value_scaled st ~mask ~time =
  advance_all st ~time;
  v2_sim st ~mask ~time

let make_with_internals ?(name = "ref") ?concept ?workers ?max_restarts ()
    instance ~rng:_ =
  let st = create_internals ?concept ?workers ?max_restarts instance in
  let policy =
    Policy.make ~name
      ~on_release:(fun _view ~time:_ job ->
        let org = job.Job.org in
        Array.iter
          (fun mask ->
            if Coalition.mem mask org then
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_release sim job;
                  heap_push st
                    ~time:
                      (Stdlib.max job.Job.release (Coalition_sim.now sim))
                    mask
              | None -> ())
          st.all_masks)
      ~on_fault:(fun _view ~time event ->
        (* Mirror the capacity change into every what-if schedule whose
           coalition includes the machine's owner; others are unaffected
           (they never had the machine).  Under endowment churn the owner
           is time-varying and differs per sim, so the static home map
           cannot route: broadcast, and let each sim's own ownership state
           decide whether the machine is visible. *)
        let owner = st.m_owner.(Faults.Event.machine event) in
        Array.iter
          (fun mask ->
            if st.federated || Coalition.mem mask owner then
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_fault sim { Faults.Event.time; event };
                  heap_push st ~time:(Stdlib.max time (Coalition_sim.now sim))
                    mask
              | None -> ())
          st.all_masks)
      ~on_endow:(fun _view ~time event ->
        if st.federated then begin
          (match event with
          | Federation.Event.Join { org; _ } ->
              st.consortium <- Coalition.add st.consortium org
          | Federation.Event.Leave { org } ->
              st.consortium <- Coalition.remove st.consortium org
          | Federation.Event.Lend _ | Federation.Event.Reclaim _ -> ());
          (* The event can retire machines and kill their jobs at this very
             instant, and it may change the consortium mask the top-level φ
             walks over; drop the per-instant memo stamps so every value is
             re-derived after the sims replay the event.  Recomputation is
             bit-exact (every value is an O(1) polynomial read), so this
             only costs time, and endowments are rare next to
             completions. *)
          Array.fill st.v2_stamp 0 (Array.length st.v2_stamp) min_int;
          Array.fill st.phi2_stamp 0 (Array.length st.phi2_stamp) min_int;
          Array.iter
            (fun mask ->
              match st.sims.(mask) with
              | Some sim ->
                  Coalition_sim.add_endow sim { Federation.Event.time; event };
                  heap_push st ~time:(Stdlib.max time (Coalition_sim.now sim))
                    mask
              | None -> ())
            st.all_masks
        end)
      ~on_start:(fun _view ~time p ->
        Instant.bump st.pending ~time ~org:p.Schedule.job.Job.org)
      ~stats:(fun () ->
        Kernel.Stats.total
          (Array.fold_left
             (fun acc mask ->
               match st.sims.(mask) with
               | Some sim -> Coalition_sim.stats sim :: acc
               | None -> acc)
             [ st.own_stats ] st.all_masks))
      ~select:(fun view ~time ->
        (* The sims advance on every decision, forced or not: deferring
           them would make the next contested decision pay for every
           skipped event (DESIGN.md §8). *)
        advance_all st ~time;
        let sole = Cluster.sole_waiting view.Policy.cluster in
        if sole >= 0 then begin
          Obs.Metrics.incr m_select_forced;
          sole
        end
        else
          let phi2 = top_phi2 st ~view ~time in
          let score u =
            let psi2 =
              Policy.utility_plus_pending_scaled view ~pending:st.pending
                ~org:u ~time
            in
            phi2.(u) -. float_of_int psi2
          in
          match Cluster.waiting_orgs view.Policy.cluster with
          | [] -> invalid_arg "reference: nothing waiting"
          | first :: rest ->
              List.fold_left
                (fun best u -> if score u > score best then u else best)
                first rest)
      ()
  in
  (policy, st)

let make ?name ?concept ?workers ?max_restarts () instance ~rng =
  fst
    (make_with_internals ?name ?concept ?workers ?max_restarts () instance
       ~rng)

let reference instance ~rng = make () instance ~rng

let banzhaf instance ~rng =
  fst
    (make_with_internals ~name:"ref-banzhaf" ~concept:Banzhaf_value ()
       instance ~rng)
