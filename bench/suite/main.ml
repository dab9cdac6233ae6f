(* The benchmark's command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--serve-exe PATH] [--out DIR]
     main.exe --smoke [--serve-exe PATH] [--out DIR]

   Runs one workload and prints, as the last line of standard output, one
   JSON object: whether every output check passed, the operations
   attempted and failed, and the metrics of the mode — the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].  The
   traced run also writes [DIR/NAME.trace.json].  [--smoke] runs every
   workload at about a second each, traced, and only checks outputs.
   Exits 1 when a check fails. *)

open Benchsuite

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
      [--serve-exe PATH] [--out DIR] | --smoke; workloads: "
    ^ String.concat ", " Workloads.names);
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let value flag =
  let rec go = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let int_arg flag default =
  match value flag with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let declared ~trace = if trace then Workloads.per_layer else Workloads.end_to_end

let result_line ~correct ~attempted ~failed metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  ( name,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ]
                  ))
                metrics) );
       ])

(* Run one workload; returns whether it passed, having printed its
   metrics. *)
let run_one ~serve_exe ~out ~seed ~seconds ~trace ~json (w : Workloads.t) =
  let work = Filename.concat out (Printf.sprintf "run-%d-%s" (Unix.getpid ()) w.name) in
  Daemon.rm work;
  Daemon.mkdir_p work;
  let ctx = { Workloads.seed; seconds; trace; serve_exe; work; out } in
  let t0 = Pct.now_s () in
  let o =
    match Fun.protect ~finally:(fun () -> Daemon.rm work) (fun () -> Workloads.run ctx w) with
    | o -> o
    | exception e ->
        let msg = Printexc.to_string e in
        Workloads.log "!! %s: %s" w.name msg;
        { Workloads.attempted = 1; failed = 1; errors = [ msg ]; metrics = [] }
  in
  let metrics =
    List.filter_map
      (fun (name, unit) ->
        Option.map (fun v -> (name, unit, v)) (List.assoc_opt name o.Workloads.metrics))
      (declared ~trace)
  in
  let complete = List.length metrics = List.length (declared ~trace) in
  let correct = o.Workloads.errors = [] && o.Workloads.failed = 0 && complete in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-28s %14.6g %s\n" name v unit)
    metrics;
  Printf.printf "%s: %s in %.1fs (seed %d, %.0fs measured, trace %b)\n" w.name
    (if correct then "ok" else "FAILED")
    (Pct.now_s () -. t0) seed seconds trace;
  if json then
    print_endline
      (result_line ~correct
         ~attempted:(Stdlib.max 1 o.Workloads.attempted)
         ~failed:o.Workloads.failed metrics);
  correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let serve_exe =
    Option.value (value "--serve-exe") ~default:"_build/default/bin/fairsched.exe"
  in
  let out = Option.value (value "--out") ~default:".bench_out" in
  Daemon.mkdir_p out;
  let ok =
    if List.mem "--smoke" args then
      List.for_all Fun.id
        (List.map
           (run_one ~serve_exe ~out ~seed:Pins.default_seed ~seconds:1. ~trace:true
              ~json:false)
           Workloads.smoke)
    else
      let name = match value "--workload" with Some n -> n | None -> usage () in
      let w =
        match List.find_opt (fun (w : Workloads.t) -> w.name = name) Workloads.full with
        | Some w -> w
        | None -> usage ()
      in
      let seconds =
        match value "--seconds" with
        | None -> Pins.run_seconds
        | Some v -> (
            match float_of_string_opt v with
            | Some s when s > 0. -> s
            | _ -> usage ())
      in
      run_one ~serve_exe ~out ~seed:(int_arg "--seed" Pins.default_seed) ~seconds
        ~trace:(int_arg "--trace" 0 = 1) ~json:true w
  in
  exit (if ok then 0 else 1)
