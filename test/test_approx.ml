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
    ]
