(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core
module Coalition = Shapley.Coalition

type concept = Shapley_value | Banzhaf_value

(* REF on the shared Coalition_set engine (event heap, size-staged parallel
   rounds; see DESIGN.md, "Performance engineering").  What stays here is
   the ψsp-specific part: the inner 3^k Shapley sum, allocation-free and run
   only for contested decisions (a lone waiting organization is a forced
   choice).  Weight tables are hoisted into per-size float arrays at
   construction, popcounts come from a precomputed table, and the subset
   walk runs over a preflattened int array (for k <= 12; an inline submask
   walk beyond), reading values from a dense array pinned beforehand.

   Outputs are bit-identical across worker counts: parallelism only spans
   sims that do not read each other's mutable state within an instant, and
   every float accumulates in the same order as the sequential engine. *)

type internals = {
  concept : concept;
  k : int;
  workers : int;
  mutable consortium : Coalition.t;
      (* the currently active organizations k(t); equals [grand] until a
         Leave arrives.  Only mutated by the on_endow handler (driver
         domain), only read between instants — no synchronization needed. *)
  grand : Coalition.t;
  set : Coalition_set.t;
      (* every proper sub-coalition's what-if schedule; the driver's own
         cluster plays the grand coalition.  Static mode skips machine-less
         coalitions (their value is identically 0: nothing ever runs);
         federated mode keeps them, a lend can endow them at any instant. *)
  slot_of_mask : int array;  (* set slot per mask, -1 if not simulated *)
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
  pending : Instant.t;  (* grand-coalition pending starts *)
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
  let grand = Coalition.grand ~players:k in
  let nmasks = grand + 1 in
  let size_tbl = Array.make nmasks 0 in
  for mask = 1 to nmasks - 1 do
    size_tbl.(mask) <- size_tbl.(mask lsr 1) + (mask land 1)
  done;
  let set =
    Coalition_set.create ?max_restarts ~workers ~instance
      (Array.init (grand - 1) (fun i -> i + 1))
  in
  let slot_of_mask = Array.make nmasks (-1) in
  for slot = 0 to Coalition_set.length set - 1 do
    slot_of_mask.(Coalition_set.mask set slot) <- slot
  done;
  let simulated =
    Array.init (Coalition_set.length set) (Coalition_set.mask set)
  in
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
    Array.iter (fun mask -> subsets_flat.(mask) <- flatten mask) simulated;
    subsets_flat.(grand) <- flatten grand
  end;
  let phi2_val = Array.make nmasks [||] in
  Array.iter (fun mask -> phi2_val.(mask) <- Array.make k 0.) simulated;
  phi2_val.(grand) <- Array.make k 0.;
  {
    concept;
    k;
    workers;
    consortium = grand;
    grand;
    set;
    slot_of_mask;
    size_tbl;
    weights;
    subsets_flat;
    v2_val = Array.make nmasks 0;
    v2_stamp = Array.make nmasks min_int;
    phi2_val;
    phi2_stamp = Array.make nmasks min_int;
    pending = Instant.create ~norgs:k;
  }

(* Pin 2·v of a simulated [mask] at [time] into [v2_val]: the sim's O(1)
   value polynomial (DESIGN.md §13), one stamp check when already pinned.
   Machine-less masks and the empty mask are never written, so their
   [v2_val] stays at its constant 0.  During a parallel scheduling stage
   every simulated mask has already been pinned at [time] (see
   [refresh]), so this writes nothing there; the lazy write path only runs
   on the owning domain. *)
let pin_v2 st ~mask ~time =
  if st.v2_stamp.(mask) <> time then
    let slot = st.slot_of_mask.(mask) in
    if slot >= 0 then begin
      st.v2_val.(mask) <-
        Coalition_sim.value_scaled (Coalition_set.sim st.set slot) ~at:time;
      st.v2_stamp.(mask) <- time
    end

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
let select_in_sim st sim ~time =
  let mask = Coalition_sim.members sim in
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

(* The pre-round hook of the parallel engine, for instants with a contested
   round: pin 2·v of every sub-coalition at [time] before any round runs,
   so the parallel rounds only read [v2_val].  Values are frozen within the
   instant either way; the sequential engine keeps the lazy per-read path.
   Each pin is one polynomial evaluation, so only large sweeps leave the
   calling domain, claimed in chunks rather than one by one. *)
let refresh_cutoff = 48

let refresh st ~time =
  if st.workers > 1 then begin
    let n = Coalition_set.length st.set in
    let pin i = pin_v2 st ~mask:(Coalition_set.mask st.set i) ~time in
    let run () =
      Domain_pool.parallel_chunks ~workers:st.workers ~cutoff:refresh_cutoff
        pin n
    in
    if Obs.Trace.enabled () then Obs.Trace.span ~cat:"ref" "ref.refresh" run
    else run ()
  end

(* Advance every sub-coalition through all events at instants <= [time]. *)
let advance_all st ~time =
  Coalition_set.advance_to st.set ~time ~select:(select_in_sim st)
    ~before_contested:(refresh st)

(* The top of the recursion: in static mode the grand coalition, in
   federated mode the live consortium k(t) — suspended organizations drop
   out of the player set, so both the characteristic values and the weight
   tables re-derive from the active org count.  Its value comes from the
   real cluster's trackers (Fig. 1 uses the actual schedule for the
   deciding coalition), restricted to the active members. *)
let top_v2 st (view : Policy.view) ~time =
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
        Coalition_set.add_release st.set job)
      ~on_fault:(fun _view ~time event ->
        Coalition_set.add_fault st.set { Faults.Event.time; event })
      ~on_endow:(fun _view ~time event ->
        if Coalition_set.federated st.set then begin
          (match event with
          | Federation.Event.Join { org; _ } ->
              st.consortium <- Coalition.add st.consortium org
          | Federation.Event.Leave { org } ->
              st.consortium <- Coalition.remove st.consortium org
          | Federation.Event.Lend _ | Federation.Event.Reclaim _ -> ());
          (* Every endowment at [time] is delivered before any select at
             [time] (the kernel's within-instant order in batch, the
             admission frontier in the daemon), so every memo stamp is
             below [time] already and the next select re-derives the
             values the event changed. *)
          Coalition_set.add_endow st.set { Federation.Event.time; event }
        end)
      ~on_start:(fun _view ~time p ->
        Instant.bump st.pending ~time ~org:p.Schedule.job.Job.org)
      ~stats:(fun () -> Coalition_set.stats st.set)
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
