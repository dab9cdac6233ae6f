(* fairsched — command-line front end of the reproduction.

   Subcommands mirror the experiment index of DESIGN.md: `table` regenerates
   Tables 1/2, `fig10` regenerates Figure 10, `utilization` the Section 6
   experiment, `ablate` the ablations, `simulate` runs a single scenario,
   `trace` writes a synthetic SWF file. *)

open Cmdliner

(* One-line diagnostic + exit 2: the CLI contract for bad input (unknown
   algorithm, unreadable trace file, invalid flag combinations).  Flag
   parse errors and unknown subcommands exit 2 as well via
   [Cmd.eval ~term_err:2] below. *)
let die fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "fairsched: %s@." msg;
      exit 2)
    fmt

let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%s must be positive, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let model_conv =
  let parse s =
    match Workload.Traces.by_name s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown model %S (try %s)" s
                (String.concat ", "
                   (List.map
                      (fun m -> m.Workload.Traces.name)
                      Workload.Traces.all))))
  in
  let print ppf m = Format.fprintf ppf "%s" m.Workload.Traces.name in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    value
    & opt model_conv Workload.Traces.lpc_egee
    & info [ "model"; "w" ] ~docv:"MODEL"
        ~doc:"Workload model: lpc-egee, pik-iplex, ricc, sharcnet-whale.")

let seed_arg =
  Arg.(value & opt int 2013 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let horizon_arg default =
  Arg.(
    value & opt int default
    & info [ "horizon"; "t" ] ~docv:"SECONDS" ~doc:"Evaluation horizon.")

let machines_arg =
  Arg.(
    value & opt int 16
    & info [ "machines"; "m" ] ~docv:"N"
        ~doc:"Total machine pool (scaled-down stand-in for the trace's pool).")

let norgs_arg =
  Arg.(
    value & opt int 5
    & info [ "orgs"; "k" ] ~docv:"K" ~doc:"Number of organizations.")

let instances_arg default =
  Arg.(
    value & opt int default
    & info [ "instances"; "n" ] ~docv:"N"
        ~doc:"Random instances per experimental cell.")

let workers_arg =
  Arg.(
    value
    & opt (some (positive_int_conv "--workers")) None
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel-capable algorithms (REF's \
           sub-coalition engine).  1 forces strictly sequential execution; \
           the default is $(b,Domain.recommended_domain_count () - 1).  \
           Results are bit-identical for every worker count.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write results as CSV.")

(* --- fault injection flags (shared by simulate and timeline) ----------- *)

let faults_spec_conv =
  let parse s =
    match Faults.Model.spec_of_string s with
    | Ok dists -> Ok dists
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (mtbf, mttr) =
    Format.fprintf ppf "mtbf:%g,mttr:%g" (Faults.Model.mean_of mtbf)
      (Faults.Model.mean_of mttr)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some faults_spec_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject random machine churn: \
           $(b,mtbf:MEAN,mttr:MEAN[,dist:exp|weibull|fixed][,shape:S]).  A \
           per-machine renewal fault trace is drawn from --seed; failures \
           kill the running job (it resubmits and restarts from scratch).")

let faults_script_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults-script" ] ~docv:"FILE"
        ~doc:
          "Inject scripted outages from FILE: one $(b,MACHINE DOWN_AT \
           UP_AT) triple per line ($(b,#) comments).  Mutually exclusive \
           with --faults.")

(* Compile the two flags into a concrete fault trace for a known cluster
   shape, enforcing the exit-2 contract on malformed input. *)
let resolve_faults ~machines ~horizon ~seed spec script =
  match (spec, script) with
  | Some _, Some _ -> die "--faults and --faults-script are mutually exclusive"
  | None, None -> []
  | Some (mtbf, mttr), None ->
      Faults.Model.random
        ~rng:(Fstats.Rng.create ~seed:(seed lxor 0xfa017))
        ~machines ~horizon ~mtbf ~mttr ()
  | None, Some path -> (
      match Faults.Model.load_script path with
      | Ok trace ->
          (match Faults.Event.validate ~machines trace with
          | Ok () -> ()
          | Error msg -> die "%s: %s" path msg);
          trace
      | Error msg -> die "%s" msg)

(* --- endowment churn flags (shared by simulate and serve) --------------- *)

let federation_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "federation" ] ~docv:"SPEC|FILE"
        ~doc:
          "Inject endowment churn — consortium joins/leaves and machine \
           lends/reclaims (DESIGN.md §17).  A FILE is a script of $(b,TIME \
           join|leave|lend|reclaim ...) lines; anything else is a \
           peak-offloading model spec \
           $(b,period:P,lend:N[,correlation:R][,jitter:J]) drawn from \
           --seed.  On $(b,serve), the bare flag marks the daemon federated \
           (it accepts $(b,endow) requests over the socket); a SPEC|FILE is \
           additionally validated against the cluster shape at boot.")

(* Flattened machine -> home-org map of an org-contiguous machine split. *)
let homes_of_split machines_per_org =
  Array.concat
    (List.mapi (fun u n -> Array.make n u) (Array.to_list machines_per_org))

(* Compile the --federation value into a concrete endowment trace for a
   known cluster shape: an existing file is a script, anything else is a
   generative-model spec.  The empty string (bare `--federation` on serve)
   is an empty trace.  Exit-2 contract on malformed input. *)
let resolve_federation ~machines_per_org ~horizon ~seed = function
  | None | Some "" -> []
  | Some spec_or_file ->
      let trace =
        if Sys.file_exists spec_or_file then
          match Federation.Model.load_script spec_or_file with
          | Ok trace -> trace
          | Error msg -> die "%s" msg
        else
          match Federation.Model.spec_of_string spec_or_file with
          | Ok spec ->
              Federation.Model.random
                ~rng:(Fstats.Rng.create ~seed:(seed lxor 0xfed))
                ~machines_per_org ~horizon ~spec ()
          | Error msg ->
              die "--federation %S is not a file, and %s" spec_or_file msg
      in
      (match
         Federation.Event.validate
           ~orgs:(Array.length machines_per_org)
           ~homes:(homes_of_split machines_per_org)
           trace
       with
      | Ok () -> ()
      | Error msg -> die "--federation: %s" msg);
      trace

let report_federation trace =
  if trace <> [] then begin
    let joins, leaves, lends, reclaims = Federation.Model.count_kind trace in
    Format.printf
      "federation: %d events (%d join, %d leave, %d lend, %d reclaim)@."
      (List.length trace) joins leaves lends reclaims
  end

let progress line = Format.eprintf "  %s@." line

let write_csv path contents =
  match path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      Format.printf "wrote %s@." path

(* --- observability flags (shared by the long-running commands) --------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event timeline of the run and write it to \
           FILE (open with Perfetto or chrome://tracing; check with \
           $(b,fairsched validate-trace)).")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some None) (some (some string)) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect runtime metrics: latency histograms, event-heap \
           counters, pool busy/idle times.  Bare $(b,--metrics) prints \
           them to stdout after the run; the glued form \
           $(b,--metrics=FILE) writes pretty JSON to FILE.")

let estimator_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "estimator" ] ~docv:"SPEC"
        ~doc:
          "Contribution estimator, overriding $(b,--algorithm): \
           $(b,exact) (Algorithm REF, all 2^k sub-coalitions — k <= 16), \
           $(b,rand-N) (Algorithm RAND with N sampled joining orders), or \
           $(b,rand:EPS,CONF) (RAND with the Theorem 5.6 Hoeffding sample \
           count: with probability >= CONF every contribution estimate is \
           within EPS/k of the relative coalition value).  The sampled \
           tiers run at k far beyond REF's exponential wall.")

(* `--estimator SPEC` overrides `--algorithm`; the spec doubles as a
   registry-resolvable algorithm name, so it flows into service configs and
   the WAL unchanged.  Malformed specs honour the exit-2 contract. *)
let resolve_estimator ~algo = function
  | None -> algo
  | Some spec -> (
      match Algorithms.Estimator.of_string spec with
      | Ok e -> Algorithms.Estimator.algorithm_name e
      | Error msg -> die "%s" msg)

(* Surface the resolved sample count before a run: the Hoeffding count grows
   as k²/ε²·ln(k/(1−CONF)) and the user should see what they signed up for. *)
let report_estimator ~algo ~norgs =
  match Algorithms.Estimator.of_string algo with
  | Ok e -> (
      match Algorithms.Estimator.sample_count e ~players:norgs with
      | Some n ->
          Format.printf "estimator %s: %d sampled joining orders at k=%d@."
            algo n norgs
      | None -> ())
  | Error _ -> ()

(* Fail fast on an unwritable output path — before minutes of simulation —
   honouring the exit-2 contract ([die]). *)
let check_writable = function
  | None -> ()
  | Some path -> (
      try close_out (open_out path) with Sys_error msg -> die "%s" msg)

(* [with_obs ~trace ~metrics f] enables the requested collection around
   [f ()] and writes/prints the outputs afterwards.  [metrics] is doubly
   optional: [Some None] is the bare `--metrics` flag (print to stdout),
   [Some (Some path)] is `--metrics=FILE`. *)
let with_obs ~trace ~metrics f =
  check_writable trace;
  check_writable (Option.join metrics);
  if trace <> None then Obs.Trace.set_enabled true;
  if metrics <> None then Obs.Metrics.set_enabled true;
  let r = f () in
  (match trace with
  | None -> ()
  | Some path ->
      let n = Obs.Trace.write path in
      let dropped = Obs.Trace.dropped () in
      Format.printf "wrote %s (%d trace events%s)@." path n
        (if dropped = 0 then ""
         else Printf.sprintf ", %d dropped by the ring buffer" dropped));
  (match metrics with
  | None -> ()
  | Some None -> Format.printf "%a@." Obs.Metrics.pp ()
  | Some (Some path) ->
      let oc = open_out path in
      output_string oc
        (Obs.Json.to_string ~pretty:true (Obs.Metrics.to_json ()));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %s@." path);
  r

(* --- simulate ------------------------------------------------------- *)

let simulate_cmd =
  let algo_arg =
    Arg.(
      value & opt string "ref"
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:"Algorithm (see `fairsched algorithms`).")
  in
  let gantt_arg =
    Arg.(
      value & flag
      & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart of the schedule.")
  in
  let max_restarts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Kill budget per job under faults: after N restarts a killed \
             job is abandoned (default: unbounded).")
  in
  let run model algo estimator norgs machines horizon seed workers gantt fault_spec fault_script federation_spec max_restarts trace
      metrics =
    (match max_restarts with
    | Some r when r < 0 -> die "--max-restarts must be >= 0"
    | Some _ | None -> ());
    let algo = resolve_estimator ~algo estimator in
    let maker =
      match Algorithms.Registry.find algo with
      | Some maker -> maker
      | None -> die "unknown algorithm %S (see `fairsched algorithms`)" algo
    in
    with_obs ~trace ~metrics @@ fun () ->
    let body () =
        report_estimator ~algo ~norgs;
        let spec =
          Workload.Scenario.default ~norgs ~machines ~horizon model
        in
        let instance = Workload.Scenario.instance spec ~seed in
        let faults =
          resolve_faults ~machines ~horizon ~seed fault_spec fault_script
        in
        let federation =
          resolve_federation
            ~machines_per_org:instance.Core.Instance.machines ~horizon ~seed
            federation_spec
        in
        Format.printf "%a@." Core.Instance.pp instance;
        if faults <> [] then begin
          let failures, recoveries = Faults.Model.count_kind faults in
          Format.printf
            "faults: %d failures, %d recoveries, %d machine-units down@."
            failures recoveries
            (Faults.Model.downtime ~machines ~horizon faults)
        end;
        report_federation federation;
        let rng = Fstats.Rng.create ~seed in
        let result =
          Sim.Driver.run ?workers ~faults ~federation ?max_restarts ~instance
            ~rng maker
        in
        Format.printf "%a@." Sim.Driver.pp_result result;
        Format.printf "utilization: %.3f  wall: %.2fs@."
          (Core.Schedule.utilization result.Sim.Driver.schedule ~upto:horizon)
          result.Sim.Driver.wall_seconds;
        Format.printf "kernel: %a@." Kernel.Stats.pp result.Sim.Driver.stats;
        if gantt then
          print_string
            (Core.Gantt.render ~upto:horizon result.Sim.Driver.schedule)
    in
    body ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one algorithm on one synthetic scenario.")
    Term.(
      const run $ model_arg $ algo_arg $ estimator_arg $ norgs_arg
      $ machines_arg $ horizon_arg 50_000 $ seed_arg $ workers_arg
      $ gantt_arg $ faults_arg $ faults_script_arg $ federation_arg
      $ max_restarts_arg $ trace_arg $ metrics_arg)

(* --- table ----------------------------------------------------------- *)

let table_cmd =
  let run horizon instances machines csv trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let config =
      if horizon >= 500_000 then
        { (Experiments.Tables.table2_config ~instances ~machines ()) with
          horizon }
      else
        { (Experiments.Tables.table1_config ~instances ~machines ()) with
          horizon }
    in
    let table = Experiments.Tables.run ~progress config in
    Format.printf "Average unjustified delay Δψ/p_tot (horizon %d, %d \
                   instances, %d machines, k=%d)@.@."
      horizon instances machines config.Experiments.Tables.norgs;
    Format.printf "%a@." Experiments.Tables.pp table;
    write_csv csv (Experiments.Tables.to_csv table)
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Regenerate Table 1 (default) or Table 2 (--horizon 500000): \
          unfairness of each algorithm on each workload.")
    Term.(
      const run $ horizon_arg 50_000 $ instances_arg 10 $ machines_arg
      $ csv_arg $ trace_arg $ metrics_arg)

(* --- fig10 ----------------------------------------------------------- *)

let fig10_cmd =
  let max_orgs_arg =
    Arg.(
      value & opt int 8
      & info [ "max-orgs" ] ~docv:"K"
          ~doc:"Largest organization count (REF cost grows as 3^K).")
  in
  let run instances horizon max_orgs csv trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let config =
      Experiments.Fig10.default_config ~instances ~horizon ~max_orgs ()
    in
    let figure = Experiments.Fig10.run ~progress config in
    Format.printf "Unfairness vs number of organizations (LPC-EGEE)@.@.%a@."
      Experiments.Fig10.pp figure;
    write_csv csv (Experiments.Fig10.to_csv figure)
  in
  Cmd.v
    (Cmd.info "fig10"
       ~doc:"Regenerate Figure 10: Δψ/p_tot as the number of organizations \
             grows.")
    Term.(
      const run $ instances_arg 5 $ horizon_arg 50_000 $ max_orgs_arg
      $ csv_arg $ trace_arg $ metrics_arg)

(* --- utilization ------------------------------------------------------ *)

let utilization_cmd =
  let run () =
    Format.printf
      "Theorem 6.2 / Figure 7: greedy utilization vs the optimum@.@.";
    Format.printf "%-5s %-5s | %-12s %-12s %-8s %-8s@." "m" "p" "worst greedy"
      "best greedy" "optimal" "ratio";
    List.iter
      (fun (r : Experiments.Worked_examples.utilization_row) ->
        Format.printf "%-5d %-5d | %-12.4f %-12.4f %-8.4f %-8.4f@." r.m r.p
          r.greedy_worst r.greedy_best r.optimal r.ratio)
      (Experiments.Worked_examples.utilization_sweep
         [ (2, 2); (2, 5); (4, 3); (4, 10); (6, 4); (8, 3) ])
  in
  Cmd.v
    (Cmd.info "utilization"
       ~doc:"Regenerate the Section 6 tight ¾-competitiveness experiment.")
    Term.(const run $ const ())

(* --- ablate ----------------------------------------------------------- *)

let ablate_cmd =
  let which_arg =
    Arg.(
      value & pos 0 (enum [ ("rand", `Rand); ("endowment", `Endowment);
                            ("load", `Load) ]) `Rand
      & info [] ~docv:"WHICH" ~doc:"rand | endowment | load")
  in
  let run which instances horizon seed =
    let rows =
      match which with
      | `Rand ->
          Experiments.Ablations.rand_sample_sweep ~instances ~horizon ~seed ()
      | `Endowment ->
          Experiments.Ablations.endowment_sweep ~instances ~horizon ~seed ()
      | `Load -> Experiments.Ablations.load_sweep ~instances ~horizon ~seed ()
    in
    Format.printf "%a" Experiments.Ablations.pp_rows rows
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run an ablation sweep (rand | endowment | load).")
    Term.(
      const run $ which_arg $ instances_arg 5 $ horizon_arg 50_000 $ seed_arg)

(* --- trace ------------------------------------------------------------ *)

let trace_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output SWF file.")
  in
  let run model machines horizon seed out =
    let rng = Fstats.Rng.create ~seed in
    let entries =
      Workload.Traces.generate model ~rng ~machines ~duration:horizon ()
    in
    let header =
      [
        Printf.sprintf "Synthetic %s model trace" model.Workload.Traces.name;
        Printf.sprintf "MaxProcs: %d" machines;
        Printf.sprintf "seed: %d  duration: %d" seed horizon;
      ]
    in
    Workload.Swf.save out { Workload.Swf.header; entries };
    Format.printf "wrote %d jobs to %s@." (List.length entries) out
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Generate a synthetic SWF trace file.")
    Term.(
      const run $ model_arg $ machines_arg $ horizon_arg 50_000 $ seed_arg
      $ out_arg)

(* --- timeline ---------------------------------------------------------- *)

let timeline_cmd =
  let run horizon instances seed fault_spec fault_script csv trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let faults =
      (* The timeline experiment fixes machines = 16 in its default config;
         the injected trace must match that cluster shape. *)
      resolve_faults ~machines:16 ~horizon ~seed fault_spec fault_script
    in
    let config =
      Experiments.Timeline.default_config ~horizon ~instances ~faults ()
    in
    let figure = Experiments.Timeline.run config in
    Format.printf "Unfairness over time (Δψ(t)/p_tot(t))%s@.@.%a@."
      (if faults = [] then "" else " under machine churn")
      Experiments.Timeline.pp figure;
    write_csv csv (Experiments.Timeline.to_csv figure)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Track how unfairness accumulates over the trace (Definition              3.2 is per-instant).")
    Term.(
      const run $ horizon_arg 200_000 $ instances_arg 3 $ seed_arg
      $ faults_arg $ faults_script_arg $ csv_arg $ trace_arg $ metrics_arg)

(* --- churn ------------------------------------------------------------- *)

let churn_cmd =
  let intensities_arg =
    Arg.(
      value
      & opt (list float) [ 0.; 0.5; 1.; 2. ]
      & info [ "intensities" ] ~docv:"X,Y,.."
          ~doc:
            "Failure-rate multipliers to sweep (0 = fault-free control; at \
             multiplier $(i,x) the per-machine MTBF is mtbf/$(i,x)).")
  in
  let mtbf_arg =
    Arg.(
      value
      & opt (positive_float_conv "--mtbf") 1_000.
      & info [ "mtbf" ] ~docv:"T"
          ~doc:"Per-machine mean time between failures at intensity 1.")
  in
  let mttr_arg =
    Arg.(
      value
      & opt (positive_float_conv "--mttr") 50.
      & info [ "mttr" ] ~docv:"T" ~doc:"Per-machine mean time to repair.")
  in
  let max_restarts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Kill budget per job: after N restarts a killed job is \
             abandoned (default: unbounded).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write results as JSON.")
  in
  let run norgs machines horizon instances intensities mtbf mttr max_restarts
      seed workers csv json trace metrics =
    if List.exists (fun x -> x < 0.) intensities then
      die "intensities must be non-negative";
    (match max_restarts with
    | Some r when r < 0 -> die "--max-restarts must be >= 0"
    | Some _ | None -> ());
    with_obs ~trace ~metrics @@ fun () ->
    let config =
      Experiments.Churn.default_config ~instances ~norgs ~machines ~horizon
        ~intensities ~mtbf ~mttr ?max_restarts ~seed ()
    in
    let study = Experiments.Churn.run ~progress ?workers config in
    Format.printf
      "Fairness and utilization under machine churn (k=%d, m=%d, horizon \
       %d, MTBF %g, MTTR %g, %d instances)@.@."
      norgs machines horizon mtbf mttr instances;
    Format.printf "%a@." Experiments.Churn.pp study;
    write_csv csv (Experiments.Churn.to_csv study);
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Experiments.Churn.to_json study);
        close_out oc;
        Format.printf "wrote %s@." path)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Fault-injection study: Δψ/p_tot and utilization of each \
          algorithm as machines fail and recover, against REF under the \
          same fault trace.")
    Term.(
      const run $ norgs_arg $ machines_arg $ horizon_arg 5_000
      $ instances_arg 3 $ intensities_arg $ mtbf_arg $ mttr_arg
      $ max_restarts_arg $ seed_arg $ workers_arg $ csv_arg $ json_arg
      $ trace_arg $ metrics_arg)

(* --- federation: the peak-offloading study ----------------------------- *)

let federation_cmd =
  let orgs_arg =
    Arg.(
      value & opt int 3
      & info [ "orgs"; "k" ] ~docv:"K" ~doc:"Number of organizations (>= 2).")
  in
  let mpo_arg =
    Arg.(
      value
      & opt (positive_int_conv "--machines-per-org") 2
      & info [ "machines-per-org" ] ~docv:"N"
          ~doc:"Home machines per organization (uniform endowment).")
  in
  let correlations_arg =
    Arg.(
      value
      & opt (list float) [ 0.; 0.25; 0.5; 0.75; 1. ]
      & info [ "correlations" ] ~docv:"R,R,.."
          ~doc:
            "Peak-phase correlations to sweep: 0 staggers the orgs' load \
             peaks evenly (cooperation should pay), 1 makes everyone peak \
             at once.")
  in
  let period_arg =
    Arg.(
      value
      & opt (positive_int_conv "--period") 200
      & info [ "period" ] ~docv:"T" ~doc:"Peak cycle length.")
  in
  let lend_arg =
    Arg.(
      value
      & opt (positive_int_conv "--lend") 1
      & info [ "lend" ] ~docv:"N"
          ~doc:"Machines each org lends during its off-peak half-cycle.")
  in
  let jitter_arg =
    Arg.(
      value & opt float 0.05
      & info [ "jitter" ] ~docv:"F"
          ~doc:"Per-org phase jitter of the lending trace, in [0, 1].")
  in
  let burst_arg =
    Arg.(
      value
      & opt (positive_int_conv "--burst") 6
      & info [ "burst" ] ~docv:"N"
          ~doc:"Jobs each org submits at its peak.")
  in
  let job_size_arg =
    Arg.(
      value
      & opt (positive_int_conv "--job-size") 20
      & info [ "job-size" ] ~docv:"P" ~doc:"Processing time of each job.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write results as JSON.")
  in
  let run norgs machines_per_org horizon instances correlations period lend
      jitter burst job_size seed workers csv json trace metrics =
    if norgs < 2 then die "--orgs must be >= 2";
    if jitter < 0. || jitter > 1. then die "--jitter must be in [0, 1]";
    if List.exists (fun r -> r < 0. || r > 1.) correlations then
      die "--correlations must be in [0, 1]";
    with_obs ~trace ~metrics @@ fun () ->
    let config =
      Experiments.Federation.default_config ~norgs ~machines_per_org ~horizon
        ~instances ~correlations ~period ~lend ~jitter ~burst ~job_size ~seed
        ()
    in
    let study = Experiments.Federation.run ~progress ?workers config in
    Format.printf
      "Peak offloading under endowment churn (k=%d, %d machines/org, \
       horizon %d, period %d, lend %d, burst %d x %d s, %d instances)@.@."
      norgs machines_per_org horizon period lend burst job_size instances;
    Format.printf "%a@." Experiments.Federation.pp study;
    write_csv csv (Experiments.Federation.to_csv study);
    match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Experiments.Federation.to_json study);
        close_out oc;
        Format.printf "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "federation"
       ~doc:
         "Peak-offloading study: sweep the peak-phase correlation across \
          organizations and report when lending pays — REF's Σψsp with the \
          endowment churn applied vs the static pooled consortium vs every \
          org standalone.")
    Term.(
      const run $ orgs_arg $ mpo_arg $ horizon_arg 1_200 $ instances_arg 3
      $ correlations_arg $ period_arg $ lend_arg $ jitter_arg $ burst_arg
      $ job_size_arg $ seed_arg $ workers_arg $ csv_arg $ json_arg $ trace_arg
      $ metrics_arg)

(* --- validate-trace ----------------------------------------------------- *)

let validate_trace_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace-event JSON file to check.")
  in
  let run file =
    match Obs.Trace.validate_file file with
    | Ok v ->
        Format.printf "ok: %d events, %d tids, %d span names@."
          v.Obs.Trace.total_events
          (List.length v.Obs.Trace.tids)
          (List.length v.Obs.Trace.span_names)
    | Error msg -> die "%s: %s" file msg
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check that FILE is well-formed Chrome trace-event JSON: every \
          event carries name/ph/ts/tid, complete events carry a \
          non-negative dur, timestamps never go backwards within a tid, \
          and B/E begin–end pairs balance.")
    Term.(const run $ file_arg)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file"; "f" ] ~docv:"FILE"
          ~doc:"SWF trace file to analyze (default: generate from --model).")
  in
  let run model machines horizon seed file =
    let entries =
      match file with
      | Some path -> (Workload.Swf.load path).Workload.Swf.entries
      | None ->
          Workload.Traces.generate model
            ~rng:(Fstats.Rng.create ~seed)
            ~machines ~duration:horizon ()
    in
    if entries = [] then die "empty trace";
    Format.printf "%a" Workload.Analysis.pp
      (Workload.Analysis.of_entries ~machines entries)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Descriptive statistics of a trace (SWF file or synthetic model).")
    Term.(
      const run $ model_arg $ machines_arg $ horizon_arg 50_000 $ seed_arg
      $ file_arg)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let out_arg =
    Arg.(
      value & opt string "report.html"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output HTML file.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller instance counts.")
  in
  let run out quick =
    let config = Report.Builder.default_config ~quick () in
    let html = Report.Builder.build ~progress:(fun s -> Format.eprintf "  .. %s@." s) config in
    Report.Builder.save ~path:out html;
    Format.printf "wrote %s (%d bytes)@." out (String.length html)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Generate a self-contained HTML report with SVG charts of every              experiment.")
    Term.(const run $ out_arg $ quick_arg)

(* --- service: serve / submit / status / ctl / loadgen ------------------- *)

let addr_conv =
  let parse s =
    match Service.Addr.of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Service.Addr.pp)

let default_addr = Service.Addr.Unix_sock "/tmp/fairsched.sock"

let to_arg =
  Arg.(
    value & opt addr_conv default_addr
    & info [ "to" ] ~docv:"ADDR"
        ~doc:
          "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
           socket path.")

let nonneg_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0. -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "%s must be >= 0, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let split_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let ints = List.map int_of_string_opt parts in
    if List.exists (fun v -> v = None) ints then
      Error
        (`Msg
           (Printf.sprintf "--split must be comma-separated integers, got %S" s))
    else Ok (Array.of_list (List.map Option.get ints))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (String.concat "," (List.map string_of_int (Array.to_list a)))
  in
  Arg.conv (parse, print)

let groups_arg =
  Arg.(
    value
    & opt (positive_int_conv "--groups") 1
    & info [ "groups" ] ~docv:"G"
        ~doc:
          "Org-group partition: split the organizations into G contiguous \
           balanced scheduling domains, each with its own engine and WAL \
           segment.  Durable — a state dir remembers its group count.")

(* The daemon and the load generator must agree on the cluster shape and
   the user→organization map; deriving both from (model, orgs, machines,
   seed) through Scenario.split_and_map makes `serve` and `loadgen` with
   the same flags consistent by construction. *)
let service_config ~model ~norgs ~machines ~horizon ~algorithm ~seed ~split
    ~max_restarts ~workers ~groups ~federated =
  let machine_split =
    match split with
    | Some counts -> counts
    | None ->
        let spec = Workload.Scenario.default ~norgs ~machines ~horizon model in
        fst (Workload.Scenario.split_and_map spec ~seed)
  in
  match
    Service.Config.make ?max_restarts ?workers ~groups ~federated
      ~machines:machine_split ~horizon ~algorithm ~seed ()
  with
  | Ok c -> c
  | Error msg -> die "%s" msg

let timeout_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "--timeout") 5.
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Deadline for connecting and for each request phase; 0 waits \
           forever.")

let connect_or_die ?timeout_s addr =
  match Service.Client.connect ?timeout_s addr with
  | Ok c -> c
  | Error e ->
      die "cannot reach daemon at %a: %s" Service.Addr.pp addr
        (Service.Client.error_to_string e)

let request_or_die client req =
  match Service.Client.request client req with
  | Ok (Service.Protocol.Error { code; msg; _ }) ->
      die "daemon refused (%s): %s"
        (Service.Protocol.error_code_to_string code)
        msg
  | Ok resp -> resp
  | Error e -> die "%s" (Service.Client.error_to_string e)

let serve_cmd =
  let listen_arg =
    Arg.(
      value & opt addr_conv default_addr
      & info [ "listen"; "l" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             socket path.")
  in
  let state_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "State directory for the write-ahead log and snapshots; enables \
             crash recovery.  Without it the daemon is ephemeral.")
  in
  let algo_arg =
    Arg.(
      value & opt string "fairshare"
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:"Scheduling algorithm (see `fairsched algorithms`).")
  in
  let split_arg =
    Arg.(
      value
      & opt (some split_conv) None
      & info [ "split" ] ~docv:"N,N,.."
          ~doc:
            "Explicit per-organization machine counts (overrides the \
             --model/--orgs/--machines/--seed derivation).")
  in
  let queue_cap_arg =
    Arg.(
      value
      & opt (positive_int_conv "--queue-cap") 1024
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: submissions beyond it are answered with \
             a typed backpressure error.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 4096
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Write a snapshot (and compact the WAL) every N accepted \
             records; 0 snapshots only on request and at drain.")
  in
  let max_restarts_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Kill budget per job under injected faults.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic fault injection on the daemon's durability \
             syscalls.  SPEC is comma-separated ACTION@TARGET[:N][+][=BYTES] \
             clauses: $(b,crash@after-wal-append), $(b,enospc@wal-fsync:3+), \
             $(b,torn@wal-append=5).  Actions: crash, enospc, eio, short, \
             torn.  Testing only.")
  in
  let degrade_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "degrade" ] ~docv:"SPEC"
          ~doc:
            "Estimator to switch to under sustained overload (e.g. \
             $(b,rand:0.1,0.9)), switching back once load recovers.  The \
             switch is WAL-logged and crash-safe.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (positive_int_conv "--shards") 1
      & info [ "shards" ] ~docv:"W"
          ~doc:
            "Worker domains executing the org-groups (clamped to the group \
             count).  Pure execution: scheduling state is bit-identical \
             across any value for a fixed --groups.  1 runs everything \
             inline on the router thread.")
  in
  let commit_interval_arg =
    Arg.(
      value
      & opt (nonneg_float_conv "--commit-interval") 0.
      & info [ "commit-interval" ] ~docv:"MS"
          ~doc:
            "Group-commit bound in milliseconds: the longest an ack may be \
             held so one fsync covers a batch.  A shard commits as soon as \
             no more input is waiting, so this bound only bites under \
             sustained load; it is not a fixed wait.  0 fsyncs every pump \
             that appended (the classic behaviour).  Acked submissions \
             survive kill -9 either way.")
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold: $(b,debug), $(b,info), $(b,warn) \
             (default), or $(b,error).")
  in
  let log_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"FILE"
          ~doc:
            "Append structured logs to FILE as NDJSON (one JSON record per \
             line) instead of text on stderr.")
  in
  let run listen state model algo estimator norgs machines horizon seed split
      workers max_restarts queue_cap snapshot_every chaos degrade groups shards
      commit_interval federation_spec log_level log_file trace metrics =
    (match max_restarts with
    | Some r when r < 0 -> die "--max-restarts must be >= 0"
    | Some _ | None -> ());
    if snapshot_every < 0 then die "--snapshot-every must be >= 0";
    (match log_level with
    | None -> ()
    | Some s -> (
        match Obs.Log.level_of_string s with
        | Ok l -> Obs.Log.set_level l
        | Error msg -> die "%s" msg));
    (match log_file with
    | None -> ()
    | Some path -> (
        match Obs.Log.open_file path with
        | Ok () -> ()
        | Error msg -> die "%s" msg));
    let algo = resolve_estimator ~algo estimator in
    if Algorithms.Registry.find algo = None then
      die "unknown algorithm %S (see `fairsched algorithms`)" algo;
    (match degrade with
    | None -> ()
    | Some spec ->
        if Algorithms.Registry.find spec = None then
          die "unknown --degrade estimator %S (see `fairsched algorithms`)"
            spec);
    (match chaos with
    | None -> ()
    | Some spec -> (
        match Chaos.Fs.of_string spec with
        | Ok rules -> Chaos.Fs.arm rules
        | Error msg -> die "%s" msg));
    report_estimator ~algo ~norgs;
    let federated = federation_spec <> None in
    let service =
      service_config ~model ~norgs ~machines ~horizon ~algorithm:algo ~seed
        ~split ~max_restarts ~workers ~groups ~federated
    in
    (* A SPEC|FILE value is validated against the booted cluster shape now
       (fail fast, exit 2); the events themselves arrive over the socket —
       `fairsched endow --script FILE` replays the same script live. *)
    report_federation
      (resolve_federation ~machines_per_org:service.Service.Config.machines
         ~horizon ~seed federation_spec);
    with_obs ~trace ~metrics @@ fun () ->
    (* The live observability plane is always on for a daemon: `ctl
       metrics` and `ctl trace` must answer without a restart, and the
       per-request cost is one atomic load per instrument when nothing
       scrapes.  --trace/--metrics still control the exit-time dumps. *)
    Obs.Metrics.set_enabled true;
    Obs.Trace.set_enabled true;
    let cfg =
      Service.Server.make_config ?state_dir:state ~queue_cap ~snapshot_every
        ?degrade_to:degrade ~shards
        ~commit_interval:(commit_interval /. 1000.) ~addr:listen ~service ()
    in
    let ready () =
      Format.printf "fairsched serve: %a listening on %a%s@."
        Service.Config.pp service Service.Addr.pp listen
        (match state with
        | None -> " (ephemeral)"
        | Some dir -> Printf.sprintf " (state: %s)" dir)
    in
    match Service.Server.run ~ready cfg with
    | Ok () -> Format.printf "fairsched serve: drained, bye@."
    | Error msg -> die "%s" msg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online scheduler daemon: accepts job submissions and \
          fault events over a socket, schedules them live, and (with \
          --state) survives kill -9 by WAL replay.")
    Term.(
      const run $ listen_arg $ state_arg $ model_arg $ algo_arg
      $ estimator_arg $ norgs_arg
      $ machines_arg $ horizon_arg 50_000 $ seed_arg $ split_arg $ workers_arg
      $ max_restarts_arg $ queue_cap_arg $ snapshot_every_arg $ chaos_arg
      $ degrade_arg $ groups_arg $ shards_arg $ commit_interval_arg
      $ federation_arg $ log_level_arg $ log_file_arg $ trace_arg
      $ metrics_arg)

let submit_cmd =
  let org_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "org" ] ~docv:"U" ~doc:"Submitting organization (0-based).")
  in
  let size_arg =
    Arg.(
      required
      & opt (some (positive_int_conv "--size")) None
      & info [ "size"; "p" ] ~docv:"P" ~doc:"Processing time (simulated units).")
  in
  let release_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "release"; "r" ] ~docv:"T"
          ~doc:
            "Release instant (simulated time).  Default: the daemon's \
             current admission frontier.")
  in
  let user_arg =
    Arg.(
      value & opt int 0
      & info [ "user" ] ~docv:"UID" ~doc:"Originating user id (metadata).")
  in
  let run addr org size release user timeout_s =
    let client = connect_or_die ~timeout_s addr in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let release =
          match release with
          | Some r -> r
          | None -> (
              match request_or_die client Service.Protocol.Status with
              | Service.Protocol.Status_ok st -> st.Service.Protocol.frontier
              | _ -> die "unexpected response to status")
        in
        match
          request_or_die client
            (Service.Protocol.Submit
               { org; user; release; size; cid = 0; cseq = 0; trace = 0 })
        with
        | Service.Protocol.Submit_ok { seq; org; index; now } ->
            Format.printf "accepted seq=%d org=%d rank=%d release=%d now=%d@."
              seq org index release now
        | _ -> die "unexpected response to submit")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit one job to a running daemon.")
    Term.(
      const run $ to_arg $ org_arg $ size_arg $ release_arg $ user_arg
      $ timeout_arg)

let endow_cmd =
  let kind_arg =
    Arg.(
      value
      & pos 0
          (some
             (enum
                [
                  ("join", `Join); ("leave", `Leave); ("lend", `Lend);
                  ("reclaim", `Reclaim);
                ]))
          None
      & info [] ~docv:"KIND" ~doc:"join | leave | lend | reclaim")
  in
  let org_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "org" ] ~docv:"U" ~doc:"Acting organization (0-based).")
  in
  let to_org_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "to-org" ] ~docv:"V" ~doc:"Borrowing organization (lend only).")
  in
  let machines_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "machines" ] ~docv:"M,M,.."
          ~doc:
            "Global machine ids the event names.  Required for lend and \
             reclaim; optional for join (empty readmits all of the org's \
             absent home machines).")
  in
  let time_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "time" ] ~docv:"T"
          ~doc:
            "Event instant (simulated time).  Default: the daemon's current \
             admission frontier.")
  in
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:
            "Replay a whole endowment script (the --federation file format) \
             against the daemon, one $(b,endow) request per event in trace \
             order.  Mutually exclusive with KIND.")
  in
  let run addr kind org to_org machines time script timeout_s =
    let client = connect_or_die ~timeout_s addr in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let frontier () =
          match request_or_die client Service.Protocol.Status with
          | Service.Protocol.Status_ok st -> st.Service.Protocol.frontier
          | _ -> die "unexpected response to status"
        in
        let send time event =
          match
            request_or_die client
              (Service.Protocol.Endow
                 { time; event; cid = 0; cseq = 0; trace = 0 })
          with
          | Service.Protocol.Endow_ok { seq; now } ->
              Format.printf "accepted seq=%d %a now=%d@." seq
                Federation.Event.pp_timed
                { Federation.Event.time; event }
                now
          | _ -> die "unexpected response to endow"
        in
        match (script, kind) with
        | Some _, Some _ -> die "--script and KIND are mutually exclusive"
        | Some path, None -> (
            match Federation.Model.load_script path with
            | Error msg -> die "%s" msg
            | Ok trace ->
                List.iter
                  (fun { Federation.Event.time; event } -> send time event)
                  trace)
        | None, None -> die "endow needs KIND (join|leave|lend|reclaim) or --script"
        | None, Some kind ->
            let org =
              match org with
              | Some org -> org
              | None -> die "endow KIND needs --org"
            in
            let event =
              match kind with
              | `Join -> Federation.Event.Join { org; machines }
              | `Leave ->
                  if machines <> [] then die "leave names no machines";
                  Federation.Event.Leave { org }
              | `Lend -> (
                  if machines = [] then die "lend needs --machines";
                  match to_org with
                  | Some to_org -> Federation.Event.Lend { org; to_org; machines }
                  | None -> die "lend needs --to-org")
              | `Reclaim ->
                  if machines = [] then die "reclaim needs --machines";
                  Federation.Event.Reclaim { org; machines }
            in
            let time =
              match time with Some t -> t | None -> frontier ()
            in
            send time event)
  in
  Cmd.v
    (Cmd.info "endow"
       ~doc:
         "Send endowment events — consortium joins/leaves, machine \
          lends/reclaims — to a running federated daemon (one started with \
          --federation).")
    Term.(
      const run $ to_arg $ kind_arg $ org_arg $ to_org_arg $ machines_arg
      $ time_arg $ script_arg $ timeout_arg)

let status_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw JSON response.")
  in
  let run addr json timeout_s =
    let client = connect_or_die ~timeout_s addr in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        match request_or_die client Service.Protocol.Status with
        | Service.Protocol.Status_ok st as resp ->
            if json then
              print_string
                (Service.Protocol.response_to_line resp)
            else begin
              Format.printf
                "now %d  frontier %d  horizon %d  orgs %d  machines %d%s@."
                st.Service.Protocol.now st.Service.Protocol.frontier
                st.Service.Protocol.horizon st.Service.Protocol.orgs
                st.Service.Protocol.machines
                (if st.Service.Protocol.draining then "  DRAINING" else "");
              Format.printf "accepted %d  rejected %d  queue %d/%d@."
                st.Service.Protocol.accepted st.Service.Protocol.rejected
                st.Service.Protocol.queue_depth st.Service.Protocol.queue_cap;
              Format.printf "estimator %s%s  shed %d  ack ewma %.1fms@."
                st.Service.Protocol.estimator
                (if st.Service.Protocol.degraded then " (DEGRADED)" else "")
                st.Service.Protocol.shed st.Service.Protocol.ack_ewma_ms;
              if st.Service.Protocol.groups > 1 then
                Format.printf "groups %d  shards %d  fsyncs %d@."
                  st.Service.Protocol.groups st.Service.Protocol.shards
                  st.Service.Protocol.fsyncs;
              Format.printf "waiting per org: %s@."
                (String.concat " "
                   (Array.to_list
                      (Array.map string_of_int st.Service.Protocol.waiting)));
              Format.printf "kernel: %a@." Kernel.Stats.pp
                st.Service.Protocol.stats;
              match st.Service.Protocol.job_wait with
              | None -> ()
              | Some s ->
                  Format.printf
                    "job wait (sim time): p50 %.0f  p90 %.0f  p99 %.0f  max \
                     %.0f (n=%d)@."
                    s.Obs.Metrics.p50 s.Obs.Metrics.p90 s.Obs.Metrics.p99
                    s.Obs.Metrics.max s.Obs.Metrics.count
            end
        | _ -> die "unexpected response to status")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query a running daemon's state.")
    Term.(const run $ to_arg $ json_arg $ timeout_arg)

(* --- top: the live dashboard over ctl metrics ----------------------------- *)

let top_cmd =
  let addr_pos =
    Arg.(
      value & pos 0 addr_conv default_addr
      & info [] ~docv:"ADDR"
          ~doc:
            "Daemon address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
             socket path.")
  in
  let interval_arg =
    Arg.(
      value
      & opt (nonneg_float_conv "--interval") 1.0
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between refreshes.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:
            "Stop after N refreshes; 0 polls until interrupted or the \
             daemon goes away.")
  in
  let run addr interval count timeout_s =
    let client = connect_or_die ~timeout_s addr in
    let request req =
      match Service.Client.request client req with
      | Ok (Service.Protocol.Error { code; msg; _ }) ->
          die "daemon refused (%s): %s"
            (Service.Protocol.error_code_to_string code)
            msg
      | Ok resp -> resp
      | Error e ->
          (* the daemon drained or died mid-watch: that's a normal way for
             a dashboard to end, not a usage error *)
          Format.printf "daemon at %a gone: %s@." Service.Addr.pp addr
            (Service.Client.error_to_string e);
          exit 0
    in
    let render () =
      let st =
        match request Service.Protocol.Status with
        | Service.Protocol.Status_ok st -> st
        | _ -> die "unexpected response to status"
      in
      let m =
        match request Service.Protocol.Metrics with
        | Service.Protocol.Metrics_ok { metrics } -> metrics
        | _ -> die "unexpected response to metrics"
      in
      let fields = match m with Obs.Json.Obj l -> l | _ -> [] in
      let num = function
        | Obs.Json.Int n -> Some (float_of_int n)
        | Obs.Json.Float f -> Some f
        | _ -> None
      in
      let metric name = Option.bind (List.assoc_opt name fields) num in
      let summary name =
        match List.assoc_opt name fields with
        | Some (Obs.Json.Obj _ as s) -> (
            let g k = Option.bind (Obs.Json.member s k) Obs.Json.get_number in
            match (g "count", g "p50", g "p99", g "max") with
            | Some count, Some p50, Some p99, Some max when count > 0. ->
                Some (int_of_float count, p50, p99, max)
            | _ -> None)
        | _ -> None
      in
      (* gauges published under a numbered suffix, e.g. fair.psi_org<N> *)
      let by_suffix prefix =
        let plen = String.length prefix in
        List.filter_map
          (fun (n, v) ->
            if String.length n > plen && String.sub n 0 plen = prefix then
              match
                (int_of_string_opt (String.sub n plen (String.length n - plen)),
                 num v)
              with
              | Some i, Some f -> Some (i, f)
              | _ -> None
            else None)
          fields
        |> List.sort compare
      in
      if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
      let tm = Unix.localtime (Unix.gettimeofday ()) in
      Format.printf "fairsched top — %a — %02d:%02d:%02d@." Service.Addr.pp
        addr tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec;
      Format.printf "now %d  frontier %d  horizon %d  orgs %d  machines %d%s@."
        st.Service.Protocol.now st.Service.Protocol.frontier
        st.Service.Protocol.horizon st.Service.Protocol.orgs
        st.Service.Protocol.machines
        (if st.Service.Protocol.draining then "  DRAINING" else "");
      Format.printf
        "accepted %d  rejected %d  shed %d  queue %d/%d  estimator %s%s@."
        st.Service.Protocol.accepted st.Service.Protocol.rejected
        st.Service.Protocol.shed st.Service.Protocol.queue_depth
        st.Service.Protocol.queue_cap st.Service.Protocol.estimator
        (if st.Service.Protocol.degraded then " (DEGRADED)" else "");
      Format.printf "groups %d  shards %d  fsyncs %d  ack ewma %.1fms@."
        st.Service.Protocol.groups st.Service.Protocol.shards
        st.Service.Protocol.fsyncs st.Service.Protocol.ack_ewma_ms;
      let psi = by_suffix "fair.psi_org" in
      let p = by_suffix "fair.p_org" in
      if psi <> [] then begin
        Format.printf "@.fairness (utility psi vs executed parts p, per org):@.";
        Format.printf "  %4s  %12s  %12s  %10s@." "org" "psi" "p" "|psi-p|";
        List.iter
          (fun (org, v) ->
            match List.assoc_opt org p with
            | Some pv ->
                Format.printf "  %4d  %12.1f  %12.1f  %10.1f@." org v pv
                  (Float.abs (v -. pv))
            | None -> Format.printf "  %4d  %12.1f  %12s  %10s@." org v "-" "-")
          psi;
        let drifts = by_suffix "fair.drift_max_g" in
        let budgets = by_suffix "fair.estimator_budget_g" in
        let pp_pairs ppf l =
          List.iter (fun (g, v) -> Format.fprintf ppf "  g%d %.0f" g v) l
        in
        if drifts <> [] then
          Format.printf "  max drift per group:%a@." pp_pairs drifts;
        if budgets <> [] then
          Format.printf "  estimator sample budget (Thm 5.6):%a@." pp_pairs
            budgets
      end;
      (* consortium membership gauges, published only by federated daemons *)
      (match metric "fed.orgs_active" with
      | Some active ->
          Format.printf "@.federation: orgs active %.0f" active;
          List.iter
            (fun (g, v) -> Format.printf "  lent out g%d %.0f" g v)
            (by_suffix "fed.machines_lent_g");
          Format.printf "@."
      | None -> ());
      let counter_row =
        [
          ("acks", "service.acks_total");
          ("fsyncs", "service.fsync_total");
          ("shed", "service.shed");
          ("dup acks", "service.dup_acks");
          ("wal failures", "service.wal_sync_failures");
          ("degrades", "service.degrade_switches");
          ("recovers", "service.recover_switches");
        ]
      in
      Format.printf "@.service:";
      List.iter
        (fun (label, name) ->
          match metric name with
          | Some v -> Format.printf "  %s %.0f" label v
          | None -> ())
        counter_row;
      Format.printf "@.";
      List.iter
        (fun (label, name) ->
          match summary name with
          | Some (n, p50, p99, max) ->
              Format.printf "  %-16s p50 %8.0f  p99 %8.0f  max %8.0f  (n=%d)@."
                label p50 p99 max n
          | None -> ())
        [
          ("fsync (us)", "service.fsync_us");
          ("commit hold (us)", "service.commit_hold_us");
          ("job wait (sim)", "sim.job_wait");
        ];
      let estimator_row =
        [
          ("estimates", "rand.estimates");
          ("forced", "rand.select_forced");
          ("orders sampled", "rand.orders_sampled");
        ]
      in
      if List.exists (fun (_, n) -> metric n <> None) estimator_row then begin
        Format.printf "estimator:";
        List.iter
          (fun (label, name) ->
            match metric name with
            | Some v -> Format.printf "  %s %.0f" label v
            | None -> ())
          estimator_row;
        Format.printf "@."
      end
    in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        let rec loop i =
          render ();
          if count = 0 || i < count then begin
            Unix.sleepf (Float.max 0.05 interval);
            loop (i + 1)
          end
        in
        loop 1)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running daemon: polls status and the \
          metrics scrape, rendering fairness SLOs (per-org psi vs executed \
          parts, drift, estimator sample budget), throughput counters, and \
          durability latency percentiles.")
    Term.(const run $ addr_pos $ interval_arg $ count_arg $ timeout_arg)

(* JSON rows for `ctl wal-check --json`: one object per inspected file or
   segment, status plus the counters pp_check prints, corruption with its
   file/line/offset/reason so tooling can point at the damage. *)
let check_report_json (r : Service.Wal.check_report) =
  let open Obs.Json in
  Obj
    (List.concat
       [
         [
           ("status", String "ok");
           ( "kind",
             String
               (match r.Service.Wal.ck_kind with
               | `Wal -> "wal"
               | `Snapshot -> "snapshot"
               | `State_dir -> "state-dir") );
           ("submits", Int r.Service.Wal.ck_submits);
           ("faults", Int r.Service.Wal.ck_faults);
           ("modes", Int r.Service.Wal.ck_modes);
           ("first_seq", Int r.Service.Wal.ck_first_seq);
           ("last_seq", Int r.Service.Wal.ck_last_seq);
           ( "gaps",
             List
               (List.map
                  (fun (a, b) -> Obj [ ("after", Int a); ("next", Int b) ])
                  r.Service.Wal.ck_gaps) );
         ];
         (match r.Service.Wal.ck_torn with
         | None -> []
         | Some (line, offset, bytes) ->
             [
               ( "torn_tail",
                 Obj
                   [
                     ("line", Int line);
                     ("offset", Int offset);
                     ("bytes", Int bytes);
                   ] );
             ]);
       ])

let boot_error_json (e : Service.Wal.boot_error) =
  let open Obs.Json in
  match e with
  | Service.Wal.Io msg -> Obj [ ("status", String "io-error"); ("error", String msg) ]
  | Service.Wal.Mismatch msg ->
      Obj [ ("status", String "mismatch"); ("error", String msg) ]
  | Service.Wal.Corrupt c ->
      Obj
        [
          ("status", String "corrupt");
          ("file", String c.Service.Wal.c_file);
          ("line", Int c.Service.Wal.c_line);
          ("offset", Int c.Service.Wal.c_offset);
          ("reason", String c.Service.Wal.c_reason);
        ]

let ctl_cmd =
  let which_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("psi", `Psi); ("snapshot", `Snapshot);
                            ("drain", `Drain); ("wal-check", `Wal_check);
                            ("metrics", `Metrics); ("trace", `Trace) ]))
          None
      & info [] ~docv:"CMD"
          ~doc:"psi | snapshot | drain | wal-check | metrics | trace")
  in
  let file_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "For wal-check: a WAL file, a snapshot file, or a state \
             directory to inspect offline.  For metrics/trace: write the \
             scraped JSON there instead of stdout.")
  in
  let detail_arg =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:"With drain: include the full schedule in the report.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With wal-check: machine-readable output — one JSON document \
             with a per-segment status array.  The exit code contract is \
             unchanged (0 intact, 2 corrupt).")
  in
  let limit_arg =
    Arg.(
      value
      & opt (positive_int_conv "--limit") Service.Protocol.default_trace_limit
      & info [ "limit" ] ~docv:"N"
          ~doc:
            "With trace: keep only the most recent N events (the response \
             must fit the wire's line limit).")
  in
  let emit_json ~file doc =
    let text = Obs.Json.to_string ~pretty:true doc in
    match file with
    | None -> print_string (text ^ "\n")
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        output_char oc '\n';
        close_out oc;
        Format.printf "wrote %s@." path
  in
  let wal_check ~json file =
    match file with
    | None -> die "wal-check needs a FILE argument (WAL, snapshot, or state dir)"
    | Some path ->
        (* A state dir gets every wal-<g>/ segment checked independently;
           any other path (a WAL file, a snapshot file, one segment dir)
           is one target.  One corrupt target fails the whole inspection. *)
        let targets =
          match
            if Sys.file_exists path && Sys.is_directory path then
              Service.Wal.segments ~dir:path
            else []
          with
          | [] -> [ (None, path) ]
          | groups ->
              List.map
                (fun g -> (Some g, Service.Wal.segment_dir ~dir:path ~group:g))
                groups
        in
        let results =
          List.map (fun (g, target) -> (g, target, Service.Wal.check target))
            targets
        in
        let corrupt =
          List.length (List.filter (fun (_, _, r) -> Result.is_error r) results)
        in
        if json then begin
          let row (g, _, r) =
            match
              ( g,
                match r with
                | Ok report -> check_report_json report
                | Error e -> boot_error_json e )
            with
            | Some g, Obs.Json.Obj fields ->
                Obs.Json.Obj (("group", Obs.Json.Int g) :: fields)
            | _, j -> j
          in
          emit_json ~file:None
            (Obs.Json.Obj
               [
                 ("path", Obs.Json.String path);
                 ("segments", Obs.Json.List (List.map row results));
               ]);
          if corrupt > 0 then exit 2
        end
        else
          match results with
          | [ (None, _, Error e) ] -> die "%s" (Service.Wal.boot_error_to_string e)
          | _ ->
              List.iter
                (fun (g, target, r) ->
                  Option.iter
                    (fun g -> Format.printf "segment %d (%s):@." g target)
                    g;
                  match r with
                  | Ok report -> Format.printf "%a" Service.Wal.pp_check report
                  | Error e ->
                      Format.printf "  %s@." (Service.Wal.boot_error_to_string e))
                results;
              if corrupt > 0 then
                die "%d of %d segments corrupt" corrupt (List.length results)
  in
  let run addr which detail json limit file timeout_s =
    match which with
    | `Wal_check -> wal_check ~json file
    | (`Psi | `Snapshot | `Drain | `Metrics | `Trace) as which ->
    let client = connect_or_die ~timeout_s addr in
    Fun.protect
      ~finally:(fun () -> Service.Client.close client)
      (fun () ->
        match which with
        | `Metrics -> (
            match request_or_die client Service.Protocol.Metrics with
            | Service.Protocol.Metrics_ok { metrics } ->
                emit_json ~file metrics
            | _ -> die "unexpected response to metrics")
        | `Trace -> (
            match
              request_or_die client (Service.Protocol.Trace { limit })
            with
            | Service.Protocol.Trace_ok { events; dropped; trace } ->
                emit_json ~file trace;
                Format.eprintf "%d trace events%s@." events
                  (if dropped = 0 then ""
                   else Printf.sprintf ", %d dropped by the ring buffer" dropped)
            | _ -> die "unexpected response to trace")
        | `Psi -> (
            match request_or_die client Service.Protocol.Psi with
            | Service.Protocol.Psi_ok { now; psi_scaled; parts } ->
                Format.printf "now %d@." now;
                Array.iteri
                  (fun u v ->
                    Format.printf "org %d: psi = %.1f  parts = %d@." u
                      (float_of_int v /. 2.)
                      parts.(u))
                  psi_scaled
            | _ -> die "unexpected response to psi")
        | `Snapshot -> (
            match request_or_die client Service.Protocol.Snapshot with
            | Service.Protocol.Snapshot_ok { seq; path } ->
                Format.printf "snapshot through seq %d at %s@." seq path
            | _ -> die "unexpected response to snapshot")
        | `Drain -> (
            match
              request_or_die client (Service.Protocol.Drain { detail })
            with
            | Service.Protocol.Drain_ok r ->
                Format.printf "drained at %d@." r.Service.Protocol.d_now;
                Array.iteri
                  (fun u v ->
                    Format.printf "org %d: psi = %.1f  parts = %d@." u
                      (float_of_int v /. 2.)
                      r.Service.Protocol.d_parts.(u))
                  r.Service.Protocol.d_psi_scaled;
                Format.printf "kernel: %a@." Kernel.Stats.pp
                  r.Service.Protocol.d_stats;
                (match r.Service.Protocol.d_schedule with
                | None -> ()
                | Some rows ->
                    List.iter
                      (fun (org, index, start, machine, duration) ->
                        Format.printf "  J(%d)%d @ %d on m%d for %d@." org
                          index start machine duration)
                      rows)
            | _ -> die "unexpected response to drain"))
  in
  Cmd.v
    (Cmd.info "ctl"
       ~doc:
         "Control a running daemon (psi | snapshot | drain), scrape its \
          live observability plane (metrics | trace), or inspect \
          durability state offline (wal-check FILE).")
    Term.(
      const run $ to_arg $ which_arg $ detail_arg $ json_arg $ limit_arg
      $ file_arg $ timeout_arg)

let loadgen_cmd =
  let rate_arg =
    Arg.(
      value
      & opt (nonneg_float_conv "--rate") 0.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Target submissions per wall-clock second; 0 streams as fast \
             as the daemon acknowledges.")
  in
  let count_arg =
    Arg.(
      value
      & opt (positive_int_conv "--count") 1000
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Submissions to send.")
  in
  let drain_flag =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:"Send a drain when done (shuts the daemon down).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as JSON.")
  in
  let retry_attempts_arg =
    Arg.(
      value
      & opt (positive_int_conv "--retry-attempts") 8
      & info [ "retry-attempts" ] ~docv:"N"
          ~doc:
            "Tries per submission (including the first) before giving up \
             on backpressure or transport errors.")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt (nonneg_float_conv "--retry-budget") 30.
      & info [ "retry-budget" ] ~docv:"SEC"
          ~doc:
            "Wall-clock retry budget per submission; 0 removes the bound.")
  in
  let connections_arg =
    Arg.(
      value
      & opt (positive_int_conv "--connections") 1
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Client connections, one domain each.  Jobs are assigned by \
             org-group (see --groups) so each group's submissions stay on \
             one socket in order.")
  in
  let window_arg =
    Arg.(
      value
      & opt (positive_int_conv "--window") 1
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Max unacked submissions in flight per connection.  1 is the \
             classic closed loop; larger windows pipeline (open loop: \
             backpressure drops instead of retrying).")
  in
  let run addr model norgs machines horizon seed rate count drain json
      retry_attempts retry_budget connections groups window timeout_s =
    check_writable json;
    let spec = Workload.Scenario.default ~norgs ~machines ~horizon model in
    let cfg =
      {
        Service.Loadgen.addr;
        spec;
        seed;
        rate;
        count;
        drain;
        policy =
          Service.Retry.policy ~max_attempts:retry_attempts
            ~budget_ms:(retry_budget *. 1000.) ();
        timeout_s;
        connections;
        groups;
        window;
      }
    in
    match Service.Loadgen.run cfg with
    | Error msg -> die "%s" msg
    | Ok report ->
        Format.printf "%a@." Service.Loadgen.pp_report report;
        (match json with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc
              (Obs.Json.to_string ~pretty:true
                 (Service.Loadgen.report_to_json report));
            output_char oc '\n';
            close_out oc;
            Format.printf "wrote %s@." path);
        if
          report.Service.Loadgen.errors > 0
          || report.Service.Loadgen.gave_up > 0
        then die "submissions lost to exhausted retry budgets"
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Stream a synthetic trace at a running daemon at a target arrival \
          rate; reports accepted/rejected/retry counts and ack-latency \
          percentiles.  Use the same --model/--orgs/--machines/--seed as \
          `fairsched serve` so the cluster shapes agree.")
    Term.(
      const run $ to_arg $ model_arg $ norgs_arg $ machines_arg
      $ horizon_arg 50_000 $ seed_arg $ rate_arg $ count_arg $ drain_flag
      $ json_arg $ retry_attempts_arg $ retry_budget_arg $ connections_arg
      $ groups_arg $ window_arg $ timeout_arg)

(* --- examples / algorithms -------------------------------------------- *)

let examples_cmd =
  let run () =
    let f = Experiments.Worked_examples.figure2 () in
    Format.printf
      "Figure 2 (ψsp worked example):@.\
      \  ψsp(O1, 13) = %.0f (paper: 262)@.\
      \  ψsp(O1, 14) = %.0f (paper: 297)@.\
      \  flow time at 14 = %d (paper: 70)@.\
      \  gain if J(2)1 absent = %.0f (paper: 4)@.\
      \  loss if J6 delayed = %.0f (paper: 6)@.\
      \  loss if J9 dropped = %.0f (paper: 10)@."
      f.psi_o1_at_13 f.psi_o1_at_14 f.flow_time_at_14
      f.gain_without_competitor f.loss_delaying_j6 f.loss_dropping_j9;
    Format.printf "@.Proposition 5.5 (non-supermodularity):@.";
    List.iter
      (fun (c, v) -> Format.printf "  v%a = %.1f@." Shapley.Coalition.pp c v)
      (Experiments.Worked_examples.prop55_values ());
    Format.printf "  supermodular? %b (paper: false)@."
      (Experiments.Worked_examples.prop55_is_supermodular ())
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"Check the paper's worked examples.")
    Term.(const run $ const ())

let algorithms_cmd =
  let run () =
    List.iter (fun n -> Format.printf "%s@." n) Algorithms.Registry.all_names
  in
  Cmd.v
    (Cmd.info "algorithms" ~doc:"List registered scheduling algorithms.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "fairsched" ~version:"1.0.0"
      ~doc:
        "Non-monetary fair scheduling — Shapley-value cooperative-game \
         scheduling (Skowron & Rzadca, SPAA 2013) reproduction."
  in
  let group =
    Cmd.group info
      [
        simulate_cmd; table_cmd; fig10_cmd; utilization_cmd; ablate_cmd;
        trace_cmd; timeline_cmd; churn_cmd; federation_cmd; analyze_cmd;
        report_cmd; examples_cmd; algorithms_cmd; validate_trace_cmd;
        serve_cmd; submit_cmd; endow_cmd; status_cmd; top_cmd; ctl_cmd;
        loadgen_cmd;
      ]
  in
  (* Robustness contract: every user error — unknown subcommand, bad flag,
     failed flag conversion, unreadable trace file — exits 2 with a one-line
     message, never a backtrace.  [eval_value ~catch:false] lets us collapse
     cmdliner's error classes and our own runtime exceptions onto that one
     code. *)
  exit
    (try
       match Cmd.eval_value ~catch:false group with
       | Ok (`Ok ()) | Ok `Help | Ok `Version -> 0
       | Error (`Parse | `Term | `Exn) -> 2
     with Sys_error msg | Invalid_argument msg | Failure msg ->
       Format.eprintf "fairsched: %s@." msg;
       2)
