(* The approximation tier (DESIGN.md §13), differentially tested:

   - the sampled RAND estimator's deviation from the exact Shapley value
     stays within the Theorem 5.6 tolerance ε/k·v(grand) at small k, at the
     rate the confidence parameter promises (checked across many seeds: the
     bound is probabilistic, so single runs may violate it — the *rate*
     must not exceed 1 − confidence, with binomial slack);

   - the cross-instant coalition-value cache is a pure optimization: REF
     and RAND schedules are BIT-identical with the cache on and off, for
     random instances, sequential and parallel alike (the cached value is
     an exact integer polynomial — the sim's incrementally kept
     coefficients — so this is an identity, not a tolerance).  With the
     cache off the policies run the direct tracker fold, so the
     differential compares two independent computations. *)

open Core

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

(* --- cache on/off bit-identity ----------------------------------------- *)

(* Random small instances, same shape as test_parallel_ref. *)
let instance_gen =
  let gen =
    QCheck.Gen.(
      let* norgs = int_range 2 6 in
      let* machines = array_size (return norgs) (int_range 1 2) in
      let* njobs = int_range 1 20 in
      let* jobs =
        list_size (return njobs)
          (let* org = int_range 0 (norgs - 1) in
           let* release = int_range 0 40 in
           let* size = int_range 1 6 in
           return (org, release, size))
      in
      return (machines, jobs))
  in
  let make (machines, jobs) =
    let jobs =
      List.map
        (fun (org, release, size) -> Job.make ~org ~index:0 ~release ~size ())
        jobs
    in
    Instance.make ~machines ~jobs ~horizon:120
  in
  let arb =
    QCheck.make
      ~print:(fun raw -> Format.asprintf "%a" Instance.pp_detailed (make raw))
      gen
  in
  (arb, make)

let identical a b =
  a.Sim.Driver.utilities_scaled = b.Sim.Driver.utilities_scaled
  && a.Sim.Driver.parts = b.Sim.Driver.parts
  && a.Sim.Driver.events = b.Sim.Driver.events
  && Schedule.placements a.Sim.Driver.schedule
     = Schedule.placements b.Sim.Driver.schedule

let run_ref ~workers ~value_cache instance =
  Sim.Driver.run ~workers ~instance
    ~rng:(Fstats.Rng.create ~seed:3)
    (Algorithms.Reference.make ~value_cache ())

let run_rand ~value_cache instance =
  Sim.Driver.run ~workers:1 ~instance
    ~rng:(Fstats.Rng.create ~seed:3)
    (Algorithms.Rand.rand ~value_cache ~n:15)

let qcheck_ref_cache_identity =
  let arb, make = instance_gen in
  QCheck.Test.make ~count:40
    ~name:"REF value-cache on/off bit-identical (seq + par)" arb (fun raw ->
      let instance = make raw in
      let on = run_ref ~workers:1 ~value_cache:true instance in
      let off = run_ref ~workers:1 ~value_cache:false instance in
      let par_on = run_ref ~workers:4 ~value_cache:true instance in
      let par_off = run_ref ~workers:4 ~value_cache:false instance in
      identical on off && identical on par_on && identical on par_off)

let qcheck_rand_cache_identity =
  let arb, make = instance_gen in
  QCheck.Test.make ~count:40 ~name:"RAND value-cache on/off bit-identical" arb
    (fun raw ->
      let instance = make raw in
      identical
        (run_rand ~value_cache:true instance)
        (run_rand ~value_cache:false instance))

(* The polynomial evaluated by the cache must agree with the direct tracker
   fold at every query instant, not just end-to-end.  The sim keeps one
   aggregate a/b/c and one epoch, updated on every path that changes a
   member's tracker; check after every instant that the aggregate equals the
   direct member fold (Coalition_sim.value_scaled) at every [at] at or after
   the sim's latest event, and that the epoch counts exactly the starts,
   completions and kills the sim's kernel processed. *)
module Sim = Algorithms.Coalition_sim

let poly_agrees sim ~time =
  let a = Sim.coeff_a sim and b = Sim.coeff_b sim and c = Sim.coeff_c sim in
  let st = Sim.stats sim in
  Sim.epoch sim
  = st.Kernel.Stats.starts + st.Kernel.Stats.completions + st.Kernel.Stats.kills
  && List.for_all
       (fun at -> Sim.value_scaled sim ~at = (((a * at) + b) * at) + c)
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

let () =
  Alcotest.run "approx"
    [
      ( "hoeffding",
        [
          Alcotest.test_case "sampled error within bound across seeds" `Quick
            test_bound_across_seeds;
        ] );
      ( "value-cache",
        [
          QCheck_alcotest.to_alcotest qcheck_ref_cache_identity;
          QCheck_alcotest.to_alcotest qcheck_rand_cache_identity;
          Alcotest.test_case "coefficients match value_scaled" `Quick
            test_coeffs_agree;
        ] );
    ]
