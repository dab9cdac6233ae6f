(* Benchmark & reproduction harness: one section per table/figure of the
   paper (see DESIGN.md's experiment index), plus Bechamel micro-benchmarks
   of the end-to-end simulation cost of each scheduling algorithm.

   Scales are reduced relative to the paper (instances per cell, pool size)
   so the whole run finishes in minutes; `bin/fairsched` exposes the same
   experiments with full control over the parameters. *)

let section name = Format.printf "@.=== %s ===@.@." name
let progress line = Format.eprintf "  .. %s@." line

(* Machine-readable output: sections push JSON fragments here; `--json PATH`
   (or the BENCH_JSON environment variable) writes them out as one object,
   alongside the wall time of every section that ran. *)

let json_acc : (string * Obs.Json.t) list ref = ref []
let record_json name value = json_acc := (name, value) :: !json_acc
let wall_acc : (string * float) list ref = ref []

(* Headline throughput numbers, tracked across runs in the bench history
   (BENCH_history.jsonl): sections push the rates a regression would most
   likely show up in.  Re-recording a name keeps the best value, so a
   multi-cell section contributes its fastest configuration. *)
let rates_acc : (string * float) list ref = ref []

let record_rate name v =
  let v =
    match List.assoc_opt name !rates_acc with
    | Some prev -> Float.max prev v
    | None -> v
  in
  rates_acc := (name, v) :: List.remove_assoc name !rates_acc

let write_json path =
  let sections =
    Obs.Json.Obj
      (List.rev_map
         (fun (n, s) ->
           (n, Obs.Json.Obj [ ("wall_seconds", Obs.Json.Float s) ]))
         !wall_acc)
  in
  let entries = ("sections", sections) :: List.rev !json_acc in
  let entries =
    if Obs.Metrics.enabled () then
      entries @ [ ("metrics", Obs.Metrics.to_json ()) ]
    else entries
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string ~pretty:true (Obs.Json.Obj entries));
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

(* --- Bench trajectory: BENCH_history.jsonl ------------------------------ *)

(* One compact line per recorded run — git sha, date, run mode
   (smoke/quick/full), per-section wall seconds, and the headline rates
   from [rates_acc] — appended to a JSONL file so the repo carries its own
   performance trajectory.  `--json` runs append; every run with a history
   file compares against the last entry of its own mode and warns (never
   fails: machines differ) when a tracked rate fell more than 20%. *)

let git_sha () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> None
  | ic -> (
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ | (exception Unix.Unix_error _) -> None)

let history_record ~mode =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  let sha =
    match git_sha () with Some s -> s | None -> "unknown"
  in
  Obs.Json.Obj
    [
      ("date", Obs.Json.String date);
      ("sha", Obs.Json.String sha);
      ("mode", Obs.Json.String mode);
      ( "sections",
        Obs.Json.Obj
          (List.rev_map (fun (n, s) -> (n, Obs.Json.Float s)) !wall_acc) );
      ( "rates",
        Obs.Json.Obj
          (List.map (fun (n, v) -> (n, Obs.Json.Float v)) !rates_acc) );
    ]

let append_history path ~mode =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | exception Sys_error msg ->
      Format.eprintf "  !! bench history: cannot append to %s: %s@." path msg
  | oc ->
      output_string oc (Obs.Json.to_string (history_record ~mode));
      output_char oc '\n';
      close_out oc;
      Format.printf "appended history entry to %s@." path

(* Entries written before runs were tagged came from `--smoke`. *)
let entry_mode j =
  Option.value ~default:"smoke"
    (Option.bind (Obs.Json.member j "mode") Obs.Json.get_string)

let last_history_entry path ~mode =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | contents ->
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
      |> List.filter_map (fun line ->
             match Obs.Json.of_string line with
             | Ok j -> Some j
             | Error msg ->
                 Format.eprintf "  !! bench history: unreadable entry: %s@."
                   msg;
                 None)
      |> List.fold_left
           (fun last j -> if entry_mode j = mode then Some j else last)
           None

(* Warn — never fail — when a rate this run is >20% below the previous
   recorded entry of the same mode (a smoke run's tiny cells say nothing
   about a full run's).  Rates an entry carries that this run did not
   measure are ignored.  A hard gate would make @bench-smoke flaky across
   machines of different speed; the warning is for a human eyeballing the
   alias output on one machine over time. *)
let warn_regressions path ~mode =
  match last_history_entry path ~mode with
  | None -> ()
  | Some prev ->
      let prev_rates =
        match Obs.Json.member prev "rates" with
        | Some (Obs.Json.Obj fields) -> fields
        | _ -> []
      in
      let prev_sha =
        match Option.bind (Obs.Json.member prev "sha") Obs.Json.get_string with
        | Some s -> s
        | None -> "?"
      in
      List.iter
        (fun (name, now) ->
          match Option.bind (List.assoc_opt name prev_rates) Obs.Json.get_number
          with
          | Some before when before > 0. && now < 0.8 *. before ->
              Format.eprintf
                "  !! bench history: %s %.0f/s is %.0f%% below the last \
                 recorded %.0f/s (sha %s)@."
                name now
                ((1. -. (now /. before)) *. 100.)
                before prev_sha
          | Some _ | None -> ())
        !rates_acc

(* --- E1: Figure 2 worked example -------------------------------------- *)

let fig2 () =
  section "fig2 — ψsp worked example (Figure 2)";
  let f = Experiments.Worked_examples.figure2 () in
  let check name got expected =
    Format.printf "  %-28s %10.0f (paper: %.0f) %s@." name got expected
      (if Float.abs (got -. expected) < 1e-9 then "ok" else "MISMATCH")
  in
  check "psi(O1, t=13)" f.psi_o1_at_13 262.;
  check "psi(O1, t=14)" f.psi_o1_at_14 297.;
  check "flow time at 14" (float_of_int f.flow_time_at_14) 70.;
  check "gain without J(2)1" f.gain_without_competitor 4.;
  check "loss delaying J6" f.loss_delaying_j6 6.;
  check "loss dropping J9" f.loss_dropping_j9 10.

(* --- E2: Figure 7 / Theorem 6.2 --------------------------------------- *)

let utilization () =
  section "utilization — greedy ¾-competitiveness (Figure 7, Theorem 6.2)";
  Format.printf "  %-4s %-4s | %-12s %-11s %-8s %-6s@." "m" "p" "worst-greedy"
    "best-greedy" "optimal" "ratio";
  List.iter
    (fun (r : Experiments.Worked_examples.utilization_row) ->
      Format.printf "  %-4d %-4d | %-12.4f %-11.4f %-8.4f %-6.4f@." r.m r.p
        r.greedy_worst r.greedy_best r.optimal r.ratio)
    (Experiments.Worked_examples.utilization_sweep
       [ (2, 2); (2, 5); (4, 3); (4, 8); (6, 4); (8, 3) ]);
  Format.printf
    "  (the worst greedy policy sits exactly at the tight 3/4 bound; no \
     greedy run may fall below it)@."

(* --- E3/E4: Tables 1 and 2 -------------------------------------------- *)

let table ~name ~config =
  section name;
  let t = Experiments.Tables.run ~progress config in
  Format.printf "%a" Experiments.Tables.pp t

(* --- E5: Figure 10 ----------------------------------------------------- *)

let fig10 ~instances ~max_orgs () =
  section
    (Printf.sprintf "fig10 — unfairness vs number of organizations (k = 2..%d)"
       max_orgs);
  let config = Experiments.Fig10.default_config ~instances ~max_orgs () in
  let f = Experiments.Fig10.run ~progress config in
  Format.printf "%a" Experiments.Fig10.pp f

(* --- E8: Proposition 5.5 ----------------------------------------------- *)

let prop55 () =
  section "prop5.5 — the scheduling game is not supermodular";
  List.iter
    (fun (c, v) -> Format.printf "  v%a = %.1f@." Shapley.Coalition.pp c v)
    (Experiments.Worked_examples.prop55_values ());
  Format.printf "  supermodular? %b (paper: false)@."
    (Experiments.Worked_examples.prop55_is_supermodular ())

(* --- E10/E11: ablations ------------------------------------------------ *)

let ablations ~instances () =
  section "rand_ablation — RAND sample-count sweep (N = 5, 15, 75)";
  Format.printf "%a" Experiments.Ablations.pp_rows
    (Experiments.Ablations.rand_sample_sweep ~instances ~seed:97 ());
  section "endowment_ablation — Zipf vs uniform machine endowments";
  Format.printf "%a" Experiments.Ablations.pp_rows
    (Experiments.Ablations.endowment_sweep ~instances ~seed:98 ());
  section "load_ablation — fairness gap vs offered load";
  Format.printf "%a" Experiments.Ablations.pp_rows
    (Experiments.Ablations.load_sweep ~instances ~seed:99 ());
  section "decay_ablation — usage half-life (Maui/SLURM-style decay)";
  Format.printf "%a" Experiments.Ablations.pp_rows
    (Experiments.Ablations.decay_sweep ~instances:(Stdlib.max 2 (instances / 2))
       ~seed:96 ());
  section
    "concept_ablation — Banzhaf-fair vs Shapley-fair schedules (paper's \
     future work)";
  Format.printf "%a" Experiments.Ablations.pp_rows
    (Experiments.Ablations.concept_sweep ~instances ~seed:95 ());
  section
    "utility_ablation — is workload manipulation profitable? (Section 4 \
     motivation)";
  Format.printf "%a" Experiments.Ablations.pp_manipulation
    (Experiments.Ablations.manipulation_sweep ())

(* --- E19: coalition stability ------------------------------------------ *)

let stability () =
  section
    "stability — secession incentives (core excess) under each policy";
  Format.printf "%a" Experiments.Stability.pp (Experiments.Stability.demo ());
  Format.printf
    "  (excess(C) = what coalition C would produce alone minus what its \
     members@.   received; positive excess is a secession threat.  \
     Fairness-aware policies@.   keep it well under 1%% of the grand value; \
     round robin is several times@.   worse — the paper's stability \
     motivation, quantified.)@."

(* --- E18: Theorem 5.6 estimator error -------------------------------- *)

let estimator () =
  section
    "estimator — Monte-Carlo Shapley error vs the Hoeffding bound (Thm 5.6)";
  Format.printf "%a"
    Experiments.Estimator_study.pp
    (Experiments.Estimator_study.run
       (Experiments.Estimator_study.default_config ~trials:150 ()));
  Format.printf
    "  (error scales as 1/sqrt(N); the theorem's sample count is safely \
     conservative)@."

(* --- E15: Theorem 5.1 gadget ------------------------------------------- *)

let hardness () =
  section
    "hardness — Theorem 5.1 reduction gadget, machine-checked under REF";
  let elements = [ 1; 2; 3 ] and x = 3 in
  Format.printf "  S = {1,2,3}, x = %d: huge job starts at 2x+3 iff Σ < x@."
    x;
  List.iter
    (fun (c : Experiments.Hardness.check) ->
      Format.printf "  C = {%s}  y = %d  expected %d  got %s  %s@."
        (String.concat "," (List.map string_of_int c.subset))
        c.y c.expected_start
        (match c.actual_start with Some s -> string_of_int s | None -> "-")
        (if c.consistent then "ok" else "MISMATCH"))
    (Experiments.Hardness.verify ~elements ~x);
  Format.printf "  subsets below x: %d; below x+1: %d; SUBSETSUM(x)=%b@."
    (Experiments.Hardness.subsets_below ~elements ~x)
    (Experiments.Hardness.subsets_below ~elements ~x:(x + 1))
    (Experiments.Hardness.subset_sum_exists ~elements ~x)

(* --- E13/E14: model extensions ----------------------------------------- *)

let extensions () =
  section
    "related_machines — efficiency loss beyond the 3/4 bound (Section 8 \
     open question)";
  Format.printf "  %-8s | %-12s %-12s %-10s@." "speed r" "fast greedy"
    "slow greedy" "work ratio";
  List.iter
    (fun (r : Sim.Related.gadget_row) ->
      Format.printf "  %-8d | %-12.0f %-12.0f %-10.4f@." r.ratio r.fast_work
        r.slow_work r.work_ratio)
    (Sim.Related.gadget_sweep ~ratios:[ 1; 2; 4; 8; 16 ] ~work:100 ());
  Format.printf
    "  (a greedy rule pinning slow machines executes only 1/r of the \
     optimal work —@.   the 3/4 guarantee is specific to identical \
     machines)@.";
  section
    "parallel_jobs — greedy efficiency loss for rigid jobs (end of \
     Section 6)";
  Format.printf "  %-6s | %-12s %-12s %-10s@." "m" "thin-first" "wide-first"
    "ratio";
  List.iter
    (fun (r : Extensions.Rigid.gadget_row) ->
      Format.printf "  %-6d | %-12.4f %-12.4f %-10.4f@." r.m r.thin_first
        r.wide_first r.ratio)
    (Extensions.Rigid.gadget_sweep ~ms:[ 2; 4; 8; 16 ] ~size:50);
  Format.printf
    "  (utilization of a greedy rule can drop to 1/m once jobs need several \
     processors)@."

(* --- E16: unfairness over time ----------------------------------------- *)

let timeline ~instances () =
  section "timeline — unfairness accumulates over the trace (Def. 3.2)";
  let f =
    Experiments.Timeline.run
      (Experiments.Timeline.default_config ~horizon:100_000 ~instances ())
  in
  Format.printf "%a" Experiments.Timeline.pp f

(* --- E20: price of non-preemption -------------------------------------- *)

let preemption ~instances () =
  section
    "preemption_ablation — would slot-level preemption make schedules \
     fairer?";
  let sums =
    List.map
      (fun n -> (n, Fstats.Summary.create ()))
      [ "preemptive-equal"; "preemptive-util"; "rand-15"; "fairshare" ]
  in
  for seed = 1 to instances do
    let instance =
      Workload.Scenario.instance
        (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon:50_000
           Workload.Traces.lpc_egee)
        ~seed
    in
    let reference =
      Sim.Driver.run ~record:false ~instance
        ~rng:(Fstats.Rng.create ~seed:1)
        Algorithms.Reference.reference
    in
    let add name v = Fstats.Summary.add (List.assoc name sums) v in
    let preemptive policy =
      snd
        (Extensions.Preemptive.delta_ratio ~reference
           (Extensions.Preemptive.simulate ~instance policy))
    in
    add "preemptive-equal" (preemptive Extensions.Preemptive.Equal_share);
    add "preemptive-util" (preemptive Extensions.Preemptive.Utility_balance);
    match
      Sim.Fairness.evaluate_against ~reference ~instance ~seed:2
        [ Algorithms.Rand.rand15; Algorithms.Fair_share.fair_share ]
    with
    | [ r; f ] ->
        add "rand-15" r.Sim.Fairness.ratio;
        add "fairshare" f.Sim.Fairness.ratio
    | _ -> assert false
  done;
  List.iter
    (fun (n, s) -> Format.printf "  %-18s %a@." n Fstats.Summary.pp s)
    sums;
  Format.printf
    "  (an idealized scheduler that reassigns machines every second is \
     FARTHER from@.   the Shapley-fair utilities than the non-preemptive \
     heuristics: unfairness comes@.   from ignoring contributions, not from \
     the no-preemption constraint)@."

(* --- E23: sequential vs parallel REF ----------------------------------- *)

let ref_scaling ~ks ~horizon () =
  section "ref_scaling — sequential vs domain-parallel REF wall-clock";
  let cores = Domain.recommended_domain_count () in
  let single_core = cores < 2 in
  let par_workers = Stdlib.max 2 (cores - 1) in
  let machines = 16 in
  Format.printf "  cores=%d  parallel workers=%d  machines=%d@.@." cores
    par_workers machines;
  if single_core then
    Format.printf
      "  !! single-core machine: the parallel run below time-shares %d \
       domains on 1 core,@.     so its wall time measures dispatch overhead, \
       not speedup — rows are flagged@.     \"single_core\": true and the \
       speedup column is not meaningful here.@.@."
      par_workers;
  Format.printf "  %-3s %-8s | %-10s %-10s %-8s %-9s@." "k" "horizon"
    "seq (s)" "par (s)" "speedup" "identical";
  let rows =
    List.map
      (fun k ->
        let instance =
          Workload.Scenario.instance
            (Workload.Scenario.default ~norgs:k ~machines ~horizon
               Workload.Traces.lpc_egee)
            ~seed:42
        in
        let run workers =
          let rng = Fstats.Rng.create ~seed:7 in
          let t0 = Obs.Clock.now_ns () in
          let r =
            Sim.Driver.run ~record:false ~workers ~instance ~rng
              (Algorithms.Reference.make ())
          in
          (Obs.Clock.elapsed t0, r)
        in
        let seq_s, seq_r = run 1 in
        let par_s, par_r = run par_workers in
        let identical =
          seq_r.Sim.Driver.utilities_scaled = par_r.Sim.Driver.utilities_scaled
          && seq_r.Sim.Driver.parts = par_r.Sim.Driver.parts
        in
        let speedup = seq_s /. Stdlib.max 1e-9 par_s in
        Format.printf "  %-3d %-8d | %-10.3f %-10.3f %-8.2f %-9b@." k horizon
          seq_s par_s speedup identical;
        if not identical then
          Format.printf "  !! parallel REF diverged from sequential at k=%d@."
            k;
        let st = seq_r.Sim.Driver.stats in
        Obs.Json.Obj
          [
            ("k", Obs.Json.Int k);
            ("horizon", Obs.Json.Int horizon);
            ("machines", Obs.Json.Int machines);
            ("cores", Obs.Json.Int cores);
            ("single_core", Obs.Json.Bool single_core);
            ("workers_seq", Obs.Json.Int 1);
            ("workers_par", Obs.Json.Int par_workers);
            ("seq_seconds", Obs.Json.Float seq_s);
            ("par_seconds", Obs.Json.Float par_s);
            ("speedup", Obs.Json.Float speedup);
            ("identical", Obs.Json.Bool identical);
            ("event_instants", Obs.Json.Int st.Kernel.Stats.instants);
            ("rounds", Obs.Json.Int st.Kernel.Stats.rounds);
            ("heap_pops", Obs.Json.Int st.Kernel.Stats.heap_pops);
            ("starts", Obs.Json.Int st.Kernel.Stats.starts);
          ])
      ks
  in
  record_json "ref_scaling" (Obs.Json.List rows);
  Format.printf
    "  (bit-identical utilities are asserted on every row; the speedup \
     column@.   only means anything on a multi-core machine)@."

(* --- E24: approximation tier (DESIGN.md §13) --------------------------- *)

(* Exact REF vs the sampled RAND estimator: the audit rows check the
   measured max |φ̂ − φ| against the Theorem 5.6 tolerance ε/k·v(grand) at
   small k where exact is computable; the scaling rows run the online RAND
   policy at k up to 50 where exact REF's 2^k sub-schedules are infeasible.
   `--only approx --json BENCH_approx.json` regenerates the checked-in
   snapshot.  In smoke mode ([strict]) a bound violation or a blown
   wall-time budget is a hard failure. *)
let approx ?(strict = false) ~audit_ks ~scaling_ks ~horizon () =
  section "approx — RAND estimator vs exact REF (Thm 5.6 bound + scaling)";
  let seed = 1213 in
  let epsilon = 0.5 and confidence = 0.9 in
  let audit_rows =
    Experiments.Approx.audit ~ks:audit_ks ~epsilon ~confidence ~seed ()
  in
  Format.printf "  audit: ε=%.2f λ=%.2f (tolerance = ε/k · v(grand))@."
    epsilon confidence;
  Format.printf "%a@." Experiments.Approx.pp_audit audit_rows;
  let budget_s = 60. in
  let scaling_rows =
    Experiments.Approx.scaling ~ks:scaling_ks ~n:15 ~horizon ~seed ()
  in
  Format.printf "  scaling: online RAND-15 simulation, horizon %d@." horizon;
  Format.printf "%a" Experiments.Approx.pp_scaling scaling_rows;
  Format.printf
    "  (exact REF keeps 2^k−1 sub-schedules — at k=50 that is ~10^15, hence \
     @.   \"infeasible\"; RAND's cost grows with N·k instead)@.";
  let violations =
    List.filter
      (fun (r : Experiments.Approx.audit_row) -> not r.within_bound)
      audit_rows
  in
  let over_budget =
    List.filter
      (fun (r : Experiments.Approx.scaling_row) ->
        r.rand_ms > budget_s *. 1000.)
      scaling_rows
  in
  List.iter
    (fun (r : Experiments.Approx.audit_row) ->
      Format.printf "  !! bound violated at k=%d: err %.2f > tol %.2f@." r.k
        r.max_abs_err r.tolerance)
    violations;
  List.iter
    (fun (r : Experiments.Approx.scaling_row) ->
      Format.printf "  !! k=%d blew the %.0fs budget: %.1fs@." r.s_k budget_s
        (r.rand_ms /. 1000.))
    over_budget;
  record_json "approx"
    (Obs.Json.Obj
       [
         ( "audit",
           Obs.Json.List
             (List.map
                (fun (r : Experiments.Approx.audit_row) ->
                  Obs.Json.Obj
                    [
                      ("k", Obs.Json.Int r.k);
                      ("samples", Obs.Json.Int r.n);
                      ("epsilon", Obs.Json.Float r.epsilon);
                      ("confidence", Obs.Json.Float r.confidence);
                      ("exact_ms", Obs.Json.Float r.exact_ms);
                      ("sampled_ms", Obs.Json.Float r.sampled_ms);
                      ("max_abs_err", Obs.Json.Float r.max_abs_err);
                      ("tolerance", Obs.Json.Float r.tolerance);
                      ("within_bound", Obs.Json.Bool r.within_bound);
                    ])
                audit_rows) );
         ( "scaling",
           Obs.Json.List
             (List.map
                (fun (r : Experiments.Approx.scaling_row) ->
                  Obs.Json.Obj
                    [
                      ("k", Obs.Json.Int r.s_k);
                      ("samples", Obs.Json.Int r.s_n);
                      ("jobs", Obs.Json.Int r.s_jobs);
                      ("events", Obs.Json.Int r.s_events);
                      ("horizon", Obs.Json.Int horizon);
                      ("rand_ms", Obs.Json.Float r.rand_ms);
                      ( "exact_ms",
                        match r.exact_ms_opt with
                        | Some m -> Obs.Json.Float m
                        | None -> Obs.Json.Null );
                      ( "exact_feasible",
                        Obs.Json.Bool (r.exact_ms_opt <> None) );
                      ("budget_seconds", Obs.Json.Float budget_s);
                    ])
                scaling_rows) );
       ]);
  if strict && (violations <> [] || over_budget <> []) then begin
    Format.eprintf "approx smoke FAILED@.";
    exit 1
  end

(* --- E25: service saturation — sharded daemon throughput ---------------- *)

(* Spawn the REAL `fairsched serve` (path from --serve-exe; fork+exec, so
   safe even after this process has run domains) with a sharded,
   group-committing configuration, saturate it with the pipelined
   multi-connection load generator, and record throughput per
   (shards × connections) cell.  Single-shard rows are the baseline; on a
   multi-core machine the sharded rows must show real speedup, on a
   single-core one the rows are flagged "single_core": true and the
   speedup column only measures scheduling overhead.  [strict] (the
   @bench-smoke row) turns lost submissions, unamortized fsyncs, and — on
   multi-core — a sub-2x best speedup into hard failures. *)
let service_scaling ?(strict = false) ~serve_exe ~shard_counts ~conn_counts
    ~groups ~count () =
  section "service_scaling — sharded daemon saturation (shards × connections)";
  match serve_exe with
  | None ->
      Format.printf
        "  !! skipped: pass --serve-exe PATH (the fairsched binary) to run \
         this section@.";
      record_json "service_scaling"
        (Obs.Json.Obj [ ("skipped", Obs.Json.Bool true) ]);
      if strict then begin
        Format.eprintf "service_scaling smoke needs --serve-exe@.";
        exit 1
      end
  | Some exe ->
      let exe =
        if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
        else exe
      in
      let cores = Domain.recommended_domain_count () in
      let single_core = cores < 2 in
      let norgs = 2 * groups and machines = 4 * groups in
      let horizon = 1_000_000 and seed = 4242 in
      let window = 32 and commit_interval_ms = 2 in
      Format.printf
        "  cores=%d  groups=%d  orgs=%d  machines=%d  window=%d  \
         commit-interval=%dms  jobs=%d@.@."
        cores groups norgs machines window commit_interval_ms count;
      if single_core then
        Format.printf
          "  !! single-core machine: worker domains time-share 1 core, so \
           the speedup@.     column measures dispatch overhead, not scaling \
           — rows are flagged@.     \"single_core\": true and the >= 2x \
           floor is not enforced.@.@.";
      let spec =
        Workload.Scenario.default ~norgs ~machines ~horizon
          Workload.Traces.lpc_egee
      in
      let failed = ref [] in
      let run_cell tmp_root ~shards ~conns =
        let cell = Printf.sprintf "s%d-c%d" shards conns in
        let dir = Filename.concat tmp_root cell in
        Unix.mkdir dir 0o755;
        let sock = Filename.concat dir "d.sock" in
        let pid =
          Harness.spawn_serve ~exe
            [
              "--listen"; sock;
              "--state"; Filename.concat dir "state";
              "--orgs"; string_of_int norgs;
              "--machines"; string_of_int machines;
              "--horizon"; string_of_int horizon;
              "--seed"; string_of_int seed;
              "--algorithm"; "fairshare";
              "--groups"; string_of_int groups;
              "--shards"; string_of_int shards;
              "--commit-interval"; string_of_int commit_interval_ms;
            ]
        in
        let addr = Service.Addr.Unix_sock sock in
        Service.Client.close (Harness.connect_retry addr);
        let report =
          match
            Service.Loadgen.run
              {
                Service.Loadgen.addr;
                spec;
                seed;
                rate = 0.;
                count;
                drain = false;
                policy = Service.Retry.default;
                timeout_s = 10.0;
                connections = conns;
                groups;
                window;
              }
          with
          | Ok r -> r
          | Error msg -> failwith (cell ^ ": " ^ msg)
        in
        let client = Harness.connect_retry ~tries:20 addr in
        let fsyncs, acks =
          match Service.Client.request client Service.Protocol.Status with
          | Ok (Service.Protocol.Status_ok st) ->
              (st.Service.Protocol.fsyncs, st.Service.Protocol.accepted)
          | Ok _ | Error _ -> (0, 0)
        in
        (match
           Service.Client.request client
             (Service.Protocol.Drain { detail = false })
         with
        | Ok _ | Error _ -> ());
        Service.Client.close client;
        ignore (Harness.reap pid);
        let lost =
          report.Service.Loadgen.gave_up + report.Service.Loadgen.errors
        in
        if lost > 0 then
          failed := Printf.sprintf "%s: %d submissions lost" cell lost :: !failed;
        (* one latency sample per submission of this cell: the histogram
           must not carry samples over from earlier cells *)
        let samples = report.Service.Loadgen.ack_latency.Obs.Metrics.count in
        if samples <> report.Service.Loadgen.submitted then
          failed :=
            Printf.sprintf "%s: %d latency samples for %d submissions" cell
              samples report.Service.Loadgen.submitted
            :: !failed;
        if fsyncs >= acks && acks > 0 then
          failed :=
            Printf.sprintf "%s: group commit did not amortize (%d fsyncs / %d acks)"
              cell fsyncs acks
            :: !failed;
        (report, fsyncs, acks)
      in
      Format.printf "  %-7s %-5s | %-9s %-9s %-9s %-7s %-7s@." "shards"
        "conns" "rate/s" "p50 (us)" "p99 (us)" "fsyncs" "acks";
      let cells =
        List.concat_map
          (fun shards -> List.map (fun conns -> (shards, conns)) conn_counts)
          shard_counts
      in
      let rows =
        Harness.with_tmpdir @@ fun tmp_root ->
        List.map
          (fun (shards, conns) ->
            let report, fsyncs, acks = run_cell tmp_root ~shards ~conns in
            let rate = report.Service.Loadgen.achieved_rate in
            let lat = report.Service.Loadgen.ack_latency in
            Format.printf "  %-7d %-5d | %-9.0f %-9.0f %-9.0f %-7d %-7d@."
              shards conns rate lat.Obs.Metrics.p50 lat.Obs.Metrics.p99 fsyncs
              acks;
            ((shards, conns, rate),
             Obs.Json.Obj
               [
                 ("shards", Obs.Json.Int shards);
                 ("connections", Obs.Json.Int conns);
                 ("groups", Obs.Json.Int groups);
                 ("jobs", Obs.Json.Int count);
                 ("accepted", Obs.Json.Int report.Service.Loadgen.accepted);
                 ("backpressured",
                  Obs.Json.Int report.Service.Loadgen.backpressured);
                 ("rate_per_s", Obs.Json.Float rate);
                 ("ack_p50_us", Obs.Json.Float lat.Obs.Metrics.p50);
                 ("ack_p99_us", Obs.Json.Float lat.Obs.Metrics.p99);
                 ("fsyncs", Obs.Json.Int fsyncs);
                 ("acks", Obs.Json.Int acks);
               ]))
          cells
      in
      let max_conns = List.fold_left Stdlib.max 1 conn_counts in
      let rate_at s =
        List.find_map
          (fun ((s', c, r), _) -> if s' = s && c = max_conns then Some r else None)
          rows
      in
      let base = rate_at 1 in
      let best =
        List.fold_left
          (fun acc ((s, c, r), _) ->
            if c = max_conns && s > 1 then Stdlib.max acc r else acc)
          0. rows
      in
      let speedup =
        match base with
        | Some b when b > 0. && best > 0. -> Some (best /. b)
        | _ -> None
      in
      (match speedup with
      | Some sp ->
          Format.printf "@.  best sharded / single-shard (at %d conns): %.2fx%s@."
            max_conns sp
            (if single_core then "  (single-core: overhead, not scaling)"
             else "")
      | None -> ());
      List.iter
        (fun ((_, _, r), _) -> record_rate "service_rate_per_s" r)
        rows;
      record_json "service_scaling"
        (Obs.Json.Obj
           [
             ("cores", Obs.Json.Int cores);
             ("single_core", Obs.Json.Bool single_core);
             ("window", Obs.Json.Int window);
             ("commit_interval_ms", Obs.Json.Int commit_interval_ms);
             ("rows", Obs.Json.List (List.map snd rows));
             ( "speedup",
               match speedup with
               | Some sp -> Obs.Json.Float sp
               | None -> Obs.Json.Null );
           ]);
      if strict then begin
        List.iter (fun m -> Format.eprintf "  !! %s@." m) !failed;
        (match speedup with
        | Some sp when (not single_core) && sp < 2.0 ->
            Format.eprintf
              "  !! sharded throughput %.2fx single-shard baseline, below \
               the 2x floor on a %d-core machine@."
              sp cores;
            failed := "speedup floor" :: !failed
        | _ -> ());
        if !failed <> [] then begin
          Format.eprintf "service_scaling smoke FAILED@.";
          exit 1
        end
      end

(* --- E12: Bechamel micro-benchmarks ------------------------------------ *)

let micro () =
  section "micro — end-to-end simulation cost per algorithm (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:5 ~machines:16 ~horizon:10_000
         Workload.Traces.lpc_egee)
      ~seed:11
  in
  let bench_of name =
    let maker = Algorithms.Registry.find_exn name in
    Test.make ~name
      (Staged.stage (fun () ->
           let rng = Fstats.Rng.create ~seed:5 in
           ignore (Sim.Driver.run ~record:false ~instance ~rng maker)))
  in
  let tests =
    Test.make_grouped ~name:"simulate-10k"
      (List.map bench_of
         [
           "ref"; "rand-15"; "rand-75"; "directcontr"; "fairshare";
           "utfairshare"; "currfairshare"; "roundrobin"; "fifo";
         ])
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> rows := (name, est /. 1e6) :: !rows
      | _ -> ())
    results;
  Format.printf "  %-38s %14s@." "benchmark" "time/run (ms)";
  List.iter
    (fun (name, ms) -> Format.printf "  %-38s %14.3f@." name ms)
    (List.sort Stdlib.compare !rows)

let () =
  let argv = Sys.argv in
  let has flag = Array.exists (fun a -> a = flag) argv in
  let value_of flag =
    let r = ref None in
    Array.iteri
      (fun i a -> if a = flag && i + 1 < Array.length argv then r := Some argv.(i + 1))
      argv;
    !r
  in
  let quick = has "--quick" in
  let smoke = has "--smoke" in
  let approx_smoke = has "--approx-smoke" in
  let only = value_of "--only" in
  let serve_exe = value_of "--serve-exe" in
  if has "--metrics" then Obs.Metrics.set_enabled true;
  let json_path =
    match value_of "--json" with
    | Some _ as p -> p
    | None -> Sys.getenv_opt "BENCH_JSON"
  in
  let history_path =
    match value_of "--history" with
    | Some _ as p -> p
    | None -> Sys.getenv_opt "BENCH_HISTORY"
  in
  let sections =
    if smoke then
      (* Tiny ref_scaling plus a strict 2-group daemon saturation row: the
         `dune build @bench-smoke` alias. *)
      [
        ("ref_scaling", ref_scaling ~ks:[ 4 ] ~horizon:4_000);
        ( "service_scaling",
          service_scaling ~strict:true ~serve_exe ~shard_counts:[ 1; 2 ]
            ~conn_counts:[ 2 ] ~groups:2 ~count:600 );
      ]
    else if approx_smoke then
      (* `dune build @approx-smoke`: the Thm 5.6 bound check at small k plus
         a k=24 online RAND run, failing hard on a violated bound or a blown
         wall-time budget. *)
      [
        ( "approx",
          approx ~strict:true ~audit_ks:[ 4; 5 ] ~scaling_ks:[ 24 ]
            ~horizon:300 );
      ]
    else
      [
        ("fig2", fig2);
        ("prop55", prop55);
        ("utilization", utilization);
        ( "table1",
          fun () ->
            table ~name:"table1 — Δψ/p_tot, horizon 5·10⁴ (Table 1)"
              ~config:
                (Experiments.Tables.table1_config
                   ~instances:(if quick then 2 else 100) ()) );
        ( "table2",
          fun () ->
            table ~name:"table2 — Δψ/p_tot, horizon 5·10⁵ (Table 2)"
              ~config:
                (Experiments.Tables.table2_config
                   ~instances:(if quick then 1 else 20) ()) );
        ( "fig10",
          fig10 ~instances:(if quick then 2 else 20)
            ~max_orgs:(if quick then 5 else 8) );
        ("timeline", timeline ~instances:(if quick then 1 else 4));
        ("ablations", ablations ~instances:(if quick then 2 else 12));
        ("hardness", hardness);
        ("estimator", estimator);
        ("stability", stability);
        ("extensions", extensions);
        ("preemption", preemption ~instances:(if quick then 2 else 8));
        ( "ref_scaling",
          ref_scaling
            ~ks:(if quick then [ 4; 6 ] else [ 4; 6; 8 ])
            ~horizon:(if quick then 10_000 else 20_000) );
        ( "approx",
          approx ~strict:false
            ~audit_ks:(if quick then [ 4; 5 ] else [ 4; 5; 6; 8 ])
            ~scaling_ks:(if quick then [ 6; 12; 24 ] else [ 6; 8; 12; 24; 50 ])
            ~horizon:(if quick then 200 else 400) );
        ("micro", micro);
        ( "service_scaling",
          service_scaling ~strict:false ~serve_exe
            ~shard_counts:(if quick then [ 1; 2 ] else [ 1; 2; 4 ])
            ~conn_counts:(if quick then [ 2 ] else [ 1; 4 ])
            ~groups:4
            ~count:(if quick then 1_000 else 5_000) );
      ]
  in
  let wanted =
    match only with
    | None -> sections
    | Some o -> List.filter (fun (n, _) -> n = o) sections
  in
  if wanted = [] then begin
    Format.eprintf "no such section %S; known: %s@."
      (Option.value only ~default:"")
      (String.concat ", " (List.map fst sections));
    exit 1
  end;
  let t0 = Obs.Clock.now_ns () in
  Format.printf
    "Non-monetary fair scheduling (SPAA 2013) — reproduction benches@.";
  List.iter
    (fun (name, f) ->
      let s0 = Obs.Clock.now_ns () in
      f ();
      wall_acc := (name, Obs.Clock.elapsed s0) :: !wall_acc)
    wanted;
  Option.iter write_json json_path;
  (* History trajectory: compare against the last recorded entry of this
     mode (warn-only); `--json` runs — the recorded ones — append a new
     line. *)
  let mode = if smoke then "smoke" else if quick then "quick" else "full" in
  Option.iter
    (fun h ->
      warn_regressions h ~mode;
      if json_path <> None then append_history h ~mode)
    history_path;
  Format.printf "@.total wall time: %.1fs@." (Obs.Clock.elapsed t0)
