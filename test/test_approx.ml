(* The approximation tier (DESIGN.md §13), differentially tested:

   - the sampled RAND estimator's deviation from the exact Shapley value
     stays within the Theorem 5.6 tolerance ε/k·v(grand) at small k, at the
     rate the confidence parameter promises (checked across many seeds: the
     bound is probabilistic, so single runs may violate it — the *rate*
     must not exceed 1 − confidence, with binomial slack);

   - a coalition simulator's O(1) value (the polynomial over its
     incrementally kept coefficients, which REF and RAND read) equals the
     direct fold over its members' running pieces at every instant, under
     faults and endowment churn alike — an exact identity, not a
     tolerance. *)

open Core
module Driver = Sim.Driver

(* --- Hoeffding bound across seeds -------------------------------------- *)

let test_bound_across_seeds () =
  let epsilon = 0.5 and confidence = 0.9 in
  let seeds = 30 in
  let violations = ref 0 and checked = ref 0 in
  List.iter
    (fun k ->
      for seed = 1 to seeds do
        let r =
          Experiments.Approx.audit_one ~k ~jobs_per_org:6 ~at:10 ~epsilon
            ~confidence ~seed:(seed * 7919)
        in
        incr checked;
        if not r.Experiments.Approx.within_bound then incr violations
      done)
    [ 4; 5; 6 ];
  (* Violation probability per audit is at most 1 − confidence = 0.1; allow
     the binomial mean plus 4σ so the test only fires on a genuinely broken
     estimator, never on sampling luck. *)
  let n = float_of_int !checked in
  let p = 1. -. confidence in
  let limit = (n *. p) +. (4. *. sqrt (n *. p *. (1. -. p))) in
  if float_of_int !violations > limit then
    Alcotest.failf "bound violated %d/%d times (allowed ~%.0f)" !violations
      !checked limit

(* --- the O(1) coalition value against the member fold ------------------ *)

(* The sim keeps one aggregate a/b/c, updated on every path that changes a
   member's tracker, and [value_scaled] evaluates it.  Check after every
   instant that it equals the direct member fold ([value_scaled_fold]) at
   every [at] at or after the sim's latest event. *)
module Sim = Algorithms.Coalition_sim

let poly_agrees sim ~time =
  List.for_all
    (fun at -> Sim.value_scaled sim ~at = Sim.value_scaled_fold sim ~at)
    [ time; time + 1; time + 7 ]

(* Steps [sim] instant by instant to [horizon]; returns the first instant at
   which the aggregate disagrees, if any. *)
let drive sim ~horizon =
  let rec go t =
    if t > horizon then None
    else begin
      Sim.advance_to sim ~time:t ~select:Algorithms.Baselines.fifo_select_sim;
      if poly_agrees sim ~time:t then go (t + 1) else Some t
    end
  in
  go 0

let feed sim instance ~faults ~endows =
  Array.iter
    (fun (j : Job.t) ->
      if Shapley.Coalition.mem (Sim.members sim) j.Job.org then
        Sim.add_release sim j)
    instance.Instance.jobs;
  List.iter (Sim.add_fault sim) faults;
  List.iter (Sim.add_endow sim) endows

(* A random endowment trace with Lend, Reclaim, Leave and Join: the model's
   lend/reclaim renewal trace plus one Leave and a later Join, keeping only
   the events that replay cleanly after their predecessors (a reclaim of a
   machine a Leave already reverted is dropped, for instance). *)
let endow_trace rng ~machines ~horizon =
  let module FE = Federation.Event in
  let norgs = Array.length machines in
  let lends =
    Federation.Model.random ~rng ~machines_per_org:machines ~horizon
      ~spec:
        {
          Federation.Model.period = 12;
          lend = 1;
          correlation = 0.;
          jitter = 0.3;
        }
      ()
  in
  let leaver = Fstats.Rng.int rng norgs in
  let leave_at = Fstats.Rng.int rng (horizon / 2) in
  let candidates =
    { FE.time = leave_at; event = FE.Leave { org = leaver } }
    :: {
         FE.time = leave_at + 1 + Fstats.Rng.int rng (horizon / 2);
         event = FE.Join { org = leaver; machines = [] };
       }
    :: lends
  in
  let homes =
    Array.concat (List.init norgs (fun u -> Array.make machines.(u) u))
  in
  let own = FE.Ownership.create ~homes ~orgs:norgs in
  List.filter
    (fun (e : FE.timed) -> Result.is_ok (FE.Ownership.apply own e.FE.event))
    (List.sort FE.compare_timed candidates)

let test_coeffs_agree () =
  (* A hand-built staggered instance, grand coalition. *)
  let jobs =
    List.concat_map
      (fun org ->
        List.init 5 (fun i ->
            Job.make ~org ~index:i ~release:(2 * i) ~size:(1 + (i mod 3)) ()))
      [ 0; 1; 2 ]
  in
  let instance = Instance.make ~machines:[| 1; 1; 1 |] ~jobs ~horizon:40 in
  let sim = Sim.create ~instance ~members:0b111 () in
  feed sim instance ~faults:[] ~endows:[];
  Alcotest.(check (option int)) "hand-built: first disagreement" None
    (drive sim ~horizon:30);
  (* Generated instances, every sub-coalition: a static sim under machine
     faults, and a federated sim under faults plus Lend/Reclaim/Leave/Join
     churn.  The kill and leave totals make sure those paths ran. *)
  let rng = Fstats.Rng.create ~seed:20 in
  let fault_kills = ref 0 and fed_kills = ref 0 and leaves = ref 0 in
  for case = 1 to 25 do
    let norgs = Fstats.Rng.int_in rng ~lo:2 ~hi:4 in
    let machines =
      Array.init norgs (fun _ -> Fstats.Rng.int_in rng ~lo:1 ~hi:2)
    in
    let horizon = 60 in
    let jobs =
      List.init
        (Fstats.Rng.int_in rng ~lo:4 ~hi:20)
        (fun _ ->
          Job.make ~org:(Fstats.Rng.int rng norgs) ~index:0
            ~release:(Fstats.Rng.int rng 40)
            ~size:(Fstats.Rng.int_in rng ~lo:1 ~hi:6)
            ())
    in
    let instance = Instance.make ~machines ~jobs ~horizon in
    let faults =
      Faults.Model.random ~rng
        ~machines:(Instance.total_machines instance)
        ~horizon
        ~mtbf:(Faults.Model.Exponential { mean = 15. })
        ~mttr:(Faults.Model.Exponential { mean = 4. })
        ()
    in
    let endows = endow_trace rng ~machines ~horizon in
    List.iter
      (fun (e : Federation.Event.timed) ->
        match e.Federation.Event.event with
        | Federation.Event.Leave _ -> incr leaves
        | _ -> ())
      endows;
    for members = 1 to (1 lsl norgs) - 1 do
      let check label sim =
        Alcotest.(check (option int))
          (Printf.sprintf "case %d mask %d %s: first disagreement" case
             members label)
          None (drive sim ~horizon)
      in
      let static = Sim.create ~instance ~members () in
      feed static instance ~faults ~endows:[];
      check "faults" static;
      fault_kills := !fault_kills + (Sim.stats static).Kernel.Stats.kills;
      let fed = Sim.create ~federated:true ~instance ~members () in
      feed fed instance ~faults ~endows;
      check "federated" fed;
      fed_kills := !fed_kills + (Sim.stats fed).Kernel.Stats.kills
    done
  done;
  Alcotest.(check bool) "fault kills exercised" true (!fault_kills > 0);
  Alcotest.(check bool) "federated kills exercised" true (!fed_kills > 0);
  Alcotest.(check bool) "leaves exercised" true (!leaves > 0)

(* --- RAND's engine against the per-decision loop ------------------------ *)

(* A transcription of RAND's sampled simulation before the shared coalition
   engine: every sampled sim kept in a table and advanced with [advance_to]
   at every decision, FIFO inside, whether or not it has an event due.
   Returns the policy and its φ̂ (scaled) at a decision instant. *)
let loop_rand ~n instance ~rng =
  let rng = Fstats.Rng.split rng in
  let k = Instance.organizations instance in
  let federated = Federation.Mode.enabled () in
  let plan = Shapley.Sample.plan ~rng ~players:k ~n in
  let sims = Hashtbl.create 64 in
  Array.iter
    (fun mask ->
      let machines =
        Shapley.Coalition.fold
          (fun u acc -> acc + instance.Instance.machines.(u))
          mask 0
      in
      if mask <> Shapley.Coalition.empty && (federated || machines > 0) then
        Hashtbl.replace sims mask
          (Sim.create ~federated ~instance ~members:mask ()))
    plan.Shapley.Sample.distinct;
  let phi2 ~time =
    Hashtbl.iter
      (fun _ sim ->
        Sim.advance_to sim ~time ~select:Algorithms.Baselines.fifo_select_sim)
      sims;
    Shapley.Sample.estimate_from_plan plan ~value:(fun mask ->
        match Hashtbl.find_opt sims mask with
        | Some sim -> float_of_int (Sim.value_scaled sim ~at:time)
        | None -> 0.)
  in
  let pending = Algorithms.Instant.create ~norgs:k in
  let policy =
    Algorithms.Policy.make ~name:"rand-loop"
      ~on_release:(fun _ ~time:_ (job : Job.t) ->
        Hashtbl.iter
          (fun mask sim ->
            if Shapley.Coalition.mem mask job.Job.org then
              Sim.add_release sim job)
          sims)
      ~on_fault:(fun _ ~time event ->
        Hashtbl.iter (fun _ sim -> Sim.add_fault sim { Faults.Event.time; event })
          sims)
      ~on_endow:(fun _ ~time event ->
        if federated then
          Hashtbl.iter
            (fun _ sim -> Sim.add_endow sim { Federation.Event.time; event })
            sims)
      ~on_start:(fun _ ~time p ->
        Algorithms.Instant.bump pending ~time ~org:p.Schedule.job.Job.org)
      ~select:(fun view ~time ->
        let cluster = view.Algorithms.Policy.cluster in
        let phi2 = phi2 ~time in
        let sole = Cluster.sole_waiting cluster in
        if sole >= 0 then sole
        else
          let score u =
            phi2.(u)
            -. float_of_int
                 (Algorithms.Policy.utility_plus_pending_scaled view ~pending
                    ~org:u ~time)
          in
          match Cluster.waiting_orgs cluster with
          | [] -> invalid_arg "rand-loop: nothing waiting"
          | first :: rest ->
              List.fold_left
                (fun best u -> if score u > score best then u else best)
                first rest)
      ()
  in
  (policy, phi2)

(* Runs rand-15 beside the loop, both fed the same hooks and planned from
   the same seed; returns (checks, mismatches).  With [`Used], every
   contested [select] is checked afterwards: the (time, org, φ̂) values it
   compared, recorded without advancing anything, must name exactly the
   waiting organizations and equal the loop's φ̂ bit for bit — a value read
   from a sim left behind shows here.  With [`Contributions], the full
   vector {!Algorithms.Rand.contributions_scaled} is compared before each
   contested [select] instead (it steps every sampled sim). *)
let phi_agrees ~via ~faults ~federation instance =
  let checks = ref 0 and mismatches = ref 0 in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let maker instance ~rng:_ =
    let policy, st =
      Algorithms.Rand.make_with_internals ~n:15 instance
        ~rng:(Fstats.Rng.create ~seed:9)
    in
    let loop, loop_phi2 =
      loop_rand ~n:15 instance ~rng:(Fstats.Rng.create ~seed:9)
    in
    let module P = Algorithms.Policy in
    let both f g view ~time x =
      f view ~time x;
      g view ~time x
    in
    {
      policy with
      P.on_release = both policy.P.on_release loop.P.on_release;
      on_start = both policy.P.on_start loop.P.on_start;
      on_fault = both policy.P.on_fault loop.P.on_fault;
      on_endow = both policy.P.on_endow loop.P.on_endow;
      select =
        (fun view ~time ->
          let waiting = Cluster.waiting_orgs view.P.cluster in
          let contested = List.length waiting >= 2 in
          (match via with
          | `Contributions when contested ->
              incr checks;
              let got = Algorithms.Rand.contributions_scaled st ~time in
              if not (Array.for_all2 same got (loop_phi2 ~time)) then
                incr mismatches
          | `Contributions | `Used -> ());
          let org = policy.P.select view ~time in
          let used = Algorithms.Rand.take_used st in
          (match via with
          | `Used when contested ->
              incr checks;
              let want = loop_phi2 ~time in
              if
                List.map (fun (_, u, _) -> u) used <> waiting
                || not
                     (List.for_all
                        (fun (t, u, phi2) -> t = time && same phi2 want.(u))
                        used)
              then incr mismatches
          | `Used -> if used <> [] then incr mismatches
          | `Contributions -> ());
          org);
    }
  in
  ignore
    (Driver.run ~faults ~federation ~instance
       ~rng:(Fstats.Rng.create ~seed:3) maker);
  (!checks, !mismatches)

let psi_agrees ~faults ~federation instance =
  let run maker =
    (Driver.run ~faults ~federation ~instance
       ~rng:(Fstats.Rng.create ~seed:3) maker)
      .Driver.utilities_scaled
  in
  run Algorithms.Rand.rand15
  = run (fun instance ~rng -> fst (loop_rand ~n:15 instance ~rng))

(* Generated instances (k = 2..5, 1–2 machines per org, queues building up
   so that decisions are contested) with a random fault trace, and
   optionally the random Lend/Reclaim/Leave/Join trace. *)
let rand_case_gen ~churn =
  let arb =
    QCheck.make
      ~print:(fun (seed, norgs) -> Printf.sprintf "seed %d, k = %d" seed norgs)
      QCheck.Gen.(pair (int_range 0 100_000) (int_range 2 5))
  in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "rand-15 φ̂ and ψsp = per-decision loop (%s)"
         (if churn then "faults + endowments" else "faults"))
    ~count:25 arb
    (fun (seed, norgs) ->
      let rng = Fstats.Rng.create ~seed in
      let machines =
        Array.init norgs (fun _ -> Fstats.Rng.int_in rng ~lo:1 ~hi:2)
      in
      let horizon = 80 in
      let jobs =
        List.init
          (Fstats.Rng.int_in rng ~lo:10 ~hi:40)
          (fun index ->
            Job.make ~org:(Fstats.Rng.int rng norgs) ~index
              ~release:(Fstats.Rng.int rng 40)
              ~size:(Fstats.Rng.int_in rng ~lo:1 ~hi:8)
              ())
      in
      let instance = Instance.make ~machines ~jobs ~horizon in
      let faults =
        Faults.Model.random ~rng
          ~machines:(Instance.total_machines instance)
          ~horizon
          ~mtbf:(Faults.Model.Exponential { mean = 20. })
          ~mttr:(Faults.Model.Exponential { mean = 4. })
          ()
      in
      let federation =
        if churn then endow_trace rng ~machines ~horizon else []
      in
      let checks, mismatches =
        phi_agrees ~via:`Used ~faults ~federation instance
      in
      let full_checks, full_mismatches =
        phi_agrees ~via:`Contributions ~faults ~federation instance
      in
      QCheck.assume (checks > 0);
      mismatches = 0 && full_checks = checks && full_mismatches = 0
      && psi_agrees ~faults ~federation instance)

(* Alcotest truncates a case name to the terminal width less the widest
   group name, so a group's length changes how every case here prints
   (e.g. "sampled error within bound across se...").  Test listings record
   the printed names: keep the widest group at 11 characters. *)
let () =
  Alcotest.run "approx"
    [
      ( "hoeffding",
        [
          Alcotest.test_case "sampled error within bound across seeds" `Quick
            test_bound_across_seeds;
        ] );
      ( "value-exact",
        [
          Alcotest.test_case "coefficients match value_scaled" `Quick
            test_coeffs_agree;
        ] );
      ( "rand-engine",
        List.map QCheck_alcotest.to_alcotest
          [ rand_case_gen ~churn:false; rand_case_gen ~churn:true ] );
    ]
