(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(* How many joining orders each live sampled policy drew — the n of its
   ε-guarantee, observable next to fair.estimator_budget in a scrape. *)
let m_orders_sampled = Obs.Metrics.counter "rand.orders_sampled"

(* Top-level decisions with one waiting organization, and the φ estimates
   the contested ones needed (at most one per instant). *)
let m_select_forced = Obs.Metrics.counter "rand.select_forced"
let m_estimates = Obs.Metrics.counter "rand.estimates"

(* Live FPRAS budget under endowment churn: n joining orders over the
   construction-time player count k.  Orgs can only leave and rejoin, never
   exceed k, and Hoeffding's n is non-decreasing in the player count, so
   the construction-time plan stays a valid ε/δ budget for every live org
   set k(t) ⊆ k; this gauge re-derives and publishes the count the live
   set actually requires, so a scrape shows the (smaller) budget k(t)
   would need next to the planned one. *)
let m_live_budget = Obs.Metrics.gauge "rand.live_budget"

type internals = { contributions : time:int -> float array }

let make_policy ?guarantee ~name ~n instance ~rng =
  let rng = Fstats.Rng.split rng in
  let k = Instance.organizations instance in
  let plan = Shapley.Sample.plan ~rng ~players:k ~n in
  Obs.Metrics.add m_orders_sampled n;
  (* One simplified schedule per distinct sampled coalition (machine-less
     ones only under endowment churn, see Coalition_set.create).  The sims
     schedule FIFO and read no other sim, so one worker steps them. *)
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
  let phi_stamp = ref min_int in
  let phi_memo = ref [||] in
  let phi2 ~time =
    if !phi_stamp <> time then begin
      Obs.Metrics.incr m_estimates;
      let v2 mask =
        match Coalition_set.find set mask with
        | -1 -> 0.
        | slot ->
            float_of_int
              (Coalition_sim.value_scaled (Coalition_set.sim set slot) ~at:time)
      in
      phi_memo := Shapley.Sample.estimate_from_plan plan ~value:v2;
      phi_stamp := time
    end;
    !phi_memo
  in
  (* The sims advance on every decision, forced or not (deferring them to
     the next contested decision would make that one pay for every skipped
     event, DESIGN.md §8); the estimate only runs on contested ones. *)
  let advance ~time =
    Coalition_set.advance_to set ~time ~select:Baselines.fifo_select_sim
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
          (* The event can retire machines mid-instant; drop the memo so
             the estimate re-derives once the sims replay it. *)
          phi_stamp := min_int;
          Coalition_set.add_endow set { Federation.Event.time; event }
        end)
      ~on_start:(fun _view ~time p ->
        Instant.bump pending ~time ~org:p.Schedule.job.Job.org)
      ~select:(fun view ~time ->
        advance ~time;
        let sole = Cluster.sole_waiting view.Policy.cluster in
        if sole >= 0 then begin
          Obs.Metrics.incr m_select_forced;
          sole
        end
        else
          let phi2 = phi2 ~time in
          let score u =
            phi2.(u)
            -. float_of_int
                 (Policy.utility_plus_pending_scaled view ~pending ~org:u
                    ~time)
          in
          match Cluster.waiting_orgs view.Policy.cluster with
          | [] -> invalid_arg "rand: nothing waiting"
          | first :: rest ->
              List.fold_left
                (fun best u -> if score u > score best then u else best)
                first rest)
      ()
  in
  let contributions ~time =
    advance ~time;
    phi2 ~time
  in
  (policy, { contributions })

let contributions_scaled st ~time = st.contributions ~time

let make_with_internals ~n instance ~rng =
  if n < 1 then invalid_arg "Rand.rand: n < 1";
  make_policy ~name:(Printf.sprintf "rand-%d" n) ~n instance ~rng

let rand ~n instance ~rng = fst (make_with_internals ~n instance ~rng)

let rand15 instance ~rng = rand ~n:15 instance ~rng
let rand75 instance ~rng = rand ~n:75 instance ~rng

let rand_with_guarantee ~epsilon ~confidence instance ~rng =
  let k = Instance.organizations instance in
  let n = Shapley.Sample.sample_count ~players:k ~epsilon ~confidence in
  fst
    (make_policy ~guarantee:(epsilon, confidence)
       ~name:(Printf.sprintf "rand-fpras-%d" n)
       ~n instance ~rng)
