(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(* How many joining orders each live sampled policy drew — the n of its
   ε-guarantee, observable next to fair.estimator_budget in a scrape. *)
let m_orders_sampled = Obs.Metrics.counter "rand.orders_sampled"

(* Top-level decisions with one waiting organization, and the contested
   instants that needed φ estimates (one per instant). *)
let m_select_forced = Obs.Metrics.counter "rand.select_forced"
let m_estimates = Obs.Metrics.counter "rand.estimates"

(* Where the sampled simulations' work ran: instants stepped by a
   contested decision's value reads, and by idle-time catch-up slices. *)
let m_instants_inline = Obs.Metrics.counter "rand.instants_inline"
let m_instants_idle = Obs.Metrics.counter "rand.instants_idle"

(* Live FPRAS budget under endowment churn: n joining orders over the
   construction-time player count k.  Orgs can only leave and rejoin, never
   exceed k, and Hoeffding's n is non-decreasing in the player count, so
   the construction-time plan stays a valid ε/δ budget for every live org
   set k(t) ⊆ k; this gauge re-derives and publishes the count the live
   set actually requires, so a scrape shows the (smaller) budget k(t)
   would need next to the planned one. *)
let m_live_budget = Obs.Metrics.gauge "rand.live_budget"

(* Lagging simulations one catch-up slice steps to the latest decision
   instant.  A slice runs after every daemon round, so a sim is at most
   (sims / slice_sims) rounds behind while the daemon is saturated. *)
let slice_sims = 32

type internals = {
  contributions : time:int -> float array;
  used : (int * int * float) Queue.t;
  set : Coalition_set.t;
  latest : int ref;
}

(* Step one sampled simulation through every event at or before [time],
   counting the instants into [counter]. *)
let step sim ~time counter =
  let stats = Coalition_sim.stats sim in
  let before = stats.Kernel.Stats.instants in
  Coalition_sim.advance_to sim ~time ~select:Baselines.fifo_select_sim;
  Obs.Metrics.add counter (stats.Kernel.Stats.instants - before)

let make_policy ?guarantee ?(record = false) ~name ~n instance ~rng =
  let rng = Fstats.Rng.split rng in
  let k = Instance.organizations instance in
  let plan = Shapley.Sample.plan ~rng ~players:k ~n in
  Obs.Metrics.add m_orders_sampled n;
  (* One simplified schedule per distinct sampled coalition (machine-less
     ones only under endowment churn, see Coalition_set.create).  The set
     routes releases, faults and endowments; the sims schedule FIFO and
     read no other sim, so each one is stepped on its own, when a value
     read or a catch-up slice needs it. *)
  let set =
    Coalition_set.create ~workers:1 ~instance plan.Shapley.Sample.distinct
  in
  let federated = Coalition_set.federated set in
  let live_orgs = ref k in
  let publish_live_budget () =
    match guarantee with
    | Some (epsilon, confidence) when federated && !live_orgs > 0 ->
        Obs.Metrics.set m_live_budget
          (float_of_int
             (Shapley.Sample.sample_count ~players:!live_orgs ~epsilon
                ~confidence))
    | _ -> ()
  in
  publish_live_budget ();
  let pending = Instant.create ~norgs:k in
  let used = Queue.create () in
  (* [before_slot.(i·k + u)] / [after_slot.(i·k + u)]: the slots simulating
     the coalition before and after [u] joins in sampled order [i] (-1 for
     a dropped mask, whose value is 0).  Built at the first contested read,
     so constructing a policy that never needs them costs nothing. *)
  let before_slot = ref [||] and after_slot = ref [||] in
  let positions () =
    if Array.length !before_slot = 0 then begin
      let b = Array.make (n * k) (-1) and a = Array.make (n * k) (-1) in
      Array.iteri
        (fun i order ->
          Array.iteri
            (fun j u ->
              let before, after = plan.Shapley.Sample.prefixes.(i).(j) in
              b.((i * k) + u) <- Coalition_set.find set before;
              a.((i * k) + u) <- Coalition_set.find set after)
            order)
        plan.Shapley.Sample.orders;
      before_slot := b;
      after_slot := a
    end
  in
  (* 2·v(C, time), stepping only C's own simulation up to [time]. *)
  let value2 slot ~time =
    if slot < 0 then 0
    else begin
      let sim = Coalition_set.sim set slot in
      if Coalition_sim.next_event_time sim <= time then
        step sim ~time m_instants_inline;
      Coalition_sim.value_scaled sim ~at:time
    end
  in
  (* φ̂ of each organization, computed at most once per instant: the plan's
     marginals summed in order and divided by n last, the additions of
     Shapley.Sample.estimate_from_plan for this one entry, so bit for bit
     its value. *)
  let phi = Array.make k 0. and phi_stamp = Array.make k min_int in
  let ensure_phi u ~time =
    if phi_stamp.(u) <> time then begin
      positions ();
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let at = (i * k) + u in
        let after = value2 !after_slot.(at) ~time in
        let before = value2 !before_slot.(at) ~time in
        acc := !acc +. (float_of_int after -. float_of_int before)
      done;
      phi.(u) <- !acc /. float_of_int n;
      phi_stamp.(u) <- time
    end
  in
  let estimate_stamp = ref min_int in
  (* The latest decision instant: every event at or before it has been
     handed to the sims, so catch-up may step them that far. *)
  let latest = ref min_int in
  (* Catch-up walks the slots round-robin from [cursor], stepping each
     lagging sim all the way to the latest decision instant, at most
     [slice_sims] of them per slice.  Every event handed over after a
     decision is due after it, so a sim visited since [lap_target] was set
     stays caught up; [visited] counts those, and a full lap settles. *)
  let cursor = ref 0 and lap_target = ref min_int and visited = ref 0 in
  let catch_up () =
    let target = !latest and slots = Coalition_set.length set in
    if !lap_target <> target then begin
      lap_target := target;
      visited := 0
    end;
    let stepped = ref 0 in
    while !stepped < slice_sims && !visited < slots do
      let sim = Coalition_set.sim set !cursor in
      if Coalition_sim.next_event_time sim <= target then begin
        step sim ~time:target m_instants_idle;
        incr stepped
      end;
      incr visited;
      cursor := if !cursor + 1 = slots then 0 else !cursor + 1
    done;
    !visited < slots
  in
  let policy =
    Policy.make ~name
      ~on_release:(fun _view ~time:_ job -> Coalition_set.add_release set job)
      ~on_fault:(fun _view ~time event ->
        Coalition_set.add_fault set { Faults.Event.time; event })
      ~on_endow:(fun _view ~time event ->
        if federated then begin
          (match event with
          | Federation.Event.Join _ -> incr live_orgs
          | Federation.Event.Leave _ -> decr live_orgs
          | Federation.Event.Lend _ | Federation.Event.Reclaim _ -> ());
          publish_live_budget ();
          (* Every endowment at [time] is delivered before any select at
             [time] (the kernel's within-instant order in batch, the
             admission frontier in the daemon), so no value read and no
             catch-up step has reached [time] yet. *)
          assert (!latest < time);
          Coalition_set.add_endow set { Federation.Event.time; event }
        end)
      ~on_start:(fun _view ~time p ->
        Instant.bump pending ~time ~org:p.Schedule.job.Job.org)
      ~catch_up
      ~select:(fun view ~time ->
        latest := time;
        let cluster = view.Policy.cluster in
        let sole = Cluster.sole_waiting cluster in
        if sole >= 0 then begin
          Obs.Metrics.incr m_select_forced;
          sole
        end
        else begin
          if !estimate_stamp <> time then begin
            Obs.Metrics.incr m_estimates;
            estimate_stamp := time
          end;
          (* argmax (φ̂ − ψ) over the waiting organizations, the lowest
             organization on ties. *)
          let best = ref (-1) and best_score = ref 0. in
          for u = 0 to k - 1 do
            if Cluster.is_waiting cluster u then begin
              ensure_phi u ~time;
              if record then Queue.push (time, u, phi.(u)) used;
              let score =
                phi.(u)
                -. float_of_int
                     (Policy.utility_plus_pending_scaled view ~pending ~org:u
                        ~time)
              in
              if !best < 0 || score > !best_score then begin
                best := u;
                best_score := score
              end
            end
          done;
          if !best < 0 then invalid_arg "rand: nothing waiting";
          !best
        end)
      ()
  in
  let contributions ~time =
    Array.init k (fun u ->
        ensure_phi u ~time;
        phi.(u))
  in
  (policy, { contributions; used; set; latest })

let contributions_scaled st ~time = st.contributions ~time

let take_used st =
  let entries = List.of_seq (Queue.to_seq st.used) in
  Queue.clear st.used;
  entries

let lagging st =
  let count = ref 0 in
  for slot = 0 to Coalition_set.length st.set - 1 do
    let sim = Coalition_set.sim st.set slot in
    if Coalition_sim.next_event_time sim <= !(st.latest) then incr count
  done;
  !count

let make_rand ~record ~n instance ~rng =
  if n < 1 then invalid_arg "Rand.rand: n < 1";
  make_policy ~record ~name:(Printf.sprintf "rand-%d" n) ~n instance ~rng

let make_with_internals = make_rand ~record:true
let rand ~n instance ~rng = fst (make_rand ~record:false ~n instance ~rng)

let rand15 instance ~rng = rand ~n:15 instance ~rng
let rand75 instance ~rng = rand ~n:75 instance ~rng

let rand_with_guarantee ~epsilon ~confidence instance ~rng =
  let k = Instance.organizations instance in
  let n = Shapley.Sample.sample_count ~players:k ~epsilon ~confidence in
  fst
    (make_policy ~guarantee:(epsilon, confidence)
       ~name:(Printf.sprintf "rand-fpras-%d" n)
       ~n instance ~rng)
