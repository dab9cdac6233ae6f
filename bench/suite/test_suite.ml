(* Unit tests of the benchmark's own machinery: the percentile it prints,
   the open-loop accounting, the declared metrics, and the policy wrapper
   the traced run uses. *)

open Benchsuite

(* --- Nearest-rank percentile ------------------------------------------- *)

let percentile_is_rank =
  QCheck.Test.make ~count:500 ~name:"nearest-rank percentile is the rank"
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 300) (float_range (-1e6) 1e6))
        (int_range 1 100))
    (fun (a, p) ->
      let n = Array.length a in
      let sorted = Array.copy a in
      Array.sort Float.compare sorted;
      (* integer ceiling of p·n/100, 1-based *)
      let rank = Stdlib.max 1 (((p * n) + 99) / 100) in
      Pct.percentile a (float_of_int p) = sorted.(rank - 1))

let histogram_is_close =
  QCheck.Test.make ~count:300 ~name:"histogram percentile within 1/64 of exact"
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 300) (int_range 0 1_000_000_000))
        (int_range 1 100))
    (fun (a, p) ->
      let h = Hist.create () in
      Array.iter (Hist.add h) a;
      let exact = Pct.percentile (Array.map float_of_int a) (float_of_int p) in
      Float.abs (Hist.percentile h (float_of_int p) -. exact) <= exact /. 64.)

let percentile_examples () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Pct.percentile a 50.);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (Pct.percentile a 99.);
  Alcotest.(check (float 0.)) "p100 is the max" 100. (Pct.percentile a 100.);
  Alcotest.(check (float 0.)) "one sample" 7. (Pct.percentile [| 7. |] 99.)

(* --- Open-loop accounting ---------------------------------------------- *)

(* A synthetic daemon on a virtual clock: FIFO, [service] seconds per
   request, and nothing starts during the stall [s0, s1).  The
   generator's [block]-th send takes [block_s] seconds. *)
let synthetic ~service ~stall:(s0, s1) ~block ~block_s =
  let clock = ref 0. and free = ref 0. and sent = ref 0 in
  let queue = Queue.create () in
  let send c _line =
    incr sent;
    if !sent = block then clock := !clock +. block_s;
    let start = Float.max !clock !free in
    let start = if start >= s0 && start < s1 then s1 else start in
    free := start +. service;
    Queue.push (c, !free) queue
  in
  let poll timeout =
    let deadline = !clock +. timeout in
    match Queue.peek_opt queue with
    | Some (_, t) when t <= deadline ->
        clock := Float.max !clock t;
        let rec take acc =
          match Queue.peek_opt queue with
          | Some (c, t) when t <= !clock ->
              ignore (Queue.pop queue);
              take ((c, "ok") :: acc)
          | _ -> List.rev acc
        in
        take []
    | _ ->
        clock := deadline;
        []
  in
  { Openloop.now = (fun () -> !clock); send; poll }

let open_loop_charges_stall () =
  let rate = 1000. and service = 0.0002 in
  let s0 = 0.1 and s1 = 0.15 in
  let tr = synthetic ~service ~stall:(s0, s1) ~block:max_int ~block_s:0. in
  let stream = Openloop.open_stream ~rate (Array.make 300 "req\n") in
  let r =
    (Openloop.run tr ~timeout:1. ~classify:(fun _ l -> l = "ok") [| stream |]).(0)
  in
  Alcotest.(check int) "no failures" 0 (Openloop.failed r);
  Array.iteri
    (fun i lat ->
      let due = stream.Openloop.due.(i) in
      if due >= s0 && due < s1 then begin
        if lat < s1 -. due then
          Alcotest.failf "request %d due at %.4f charged only %.4f of the stall" i
            due lat
      end
      else if due < s0 -. 0.01 && Float.abs (lat -. service) > 1e-9 then
        Alcotest.failf "request %d before the stall took %.6f" i lat)
    r.Openloop.latency;
  Alcotest.(check bool)
    "the stall shows in p99" true
    (Pct.percentile r.Openloop.latency 99. > 0.04);
  Alcotest.(check bool)
    "the generator was never late" true
    (Array.for_all (fun l -> l < 1e-9) r.Openloop.late)

let open_loop_counts_lateness () =
  let rate = 1000. in
  (* the 50th send blocks the generator for 50 ms *)
  let tr =
    synthetic ~service:0.0001 ~stall:(infinity, infinity) ~block:50 ~block_s:0.05
  in
  let stream = Openloop.open_stream ~rate (Array.make 200 "req\n") in
  let r =
    (Openloop.run tr ~timeout:1. ~classify:(fun _ l -> l = "ok") [| stream |]).(0)
  in
  let late = r.Openloop.late in
  Alcotest.(check bool) "before the block: on time" true (late.(48) < 1e-9);
  Alcotest.(check bool) "during the block: late" true (late.(60) > 0.03);
  Alcotest.(check bool)
    "latency from due includes the lateness" true
    (r.Openloop.latency.(60) >= late.(60));
  Alcotest.(check bool) "caught up after" true (late.(150) < 1e-9)

(* --- BENCHMARK.json ---------------------------------------------------- *)

let benchmark_json () =
  let json =
    match Obs.Json.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let field j k =
    match Obs.Json.member j k with
    | Some v -> v
    | None -> Alcotest.failf "missing %S" k
  in
  let str j k =
    match Obs.Json.get_string (field j k) with
    | Some s -> s
    | None -> Alcotest.failf "%S is not a string" k
  in
  let list j k =
    match Obs.Json.get_list (field j k) with
    | Some l -> l
    | None -> Alcotest.failf "%S is not a list" k
  in
  let name_ok s =
    s <> ""
    && String.length s <= 64
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = '.' || c = '-')
         s
  in
  (match json with
  | Obs.Json.Obj fields ->
      Alcotest.(check (list string))
        "top-level keys"
        [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
        (List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "not an object");
  Alcotest.(check (option (float 0.)))
    "run_seconds is the run length the digests are pinned at"
    (Some Pins.run_seconds)
    (Obs.Json.get_number (field json "run_seconds"));
  let workloads = List.map (fun w -> str w "name") (list json "workloads") in
  Alcotest.(check (list string)) "workloads" Workloads.names workloads;
  let metrics k = List.map (fun m -> (str m "name", str m "unit")) (list json k) in
  let e2e = metrics "end_to_end" and layers = metrics "per_layer" in
  List.iter
    (fun (n, _) -> if not (name_ok n) then Alcotest.failf "bad name %S" n)
    (e2e @ layers @ List.map (fun w -> (w, "")) workloads);
  Alcotest.(check bool) "<= 16 end-to-end" true (List.length e2e <= 16);
  Alcotest.(check bool) "<= 128 per-layer" true (List.length layers <= 128);
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics are the ones every run prints" Workloads.end_to_end e2e;
  Alcotest.(check (list (pair string string)))
    "per-layer metrics are the ones every traced run prints" Workloads.per_layer
    layers;
  let bounds =
    List.map
      (fun m ->
        match Obs.Json.get_number (field m "bound") with
        | Some b when b > 0. && b <= 0.25 -> (str m "name", b)
        | _ -> Alcotest.failf "%s: bound missing or outside (0, 0.25]" (str m "name"))
      (list json "end_to_end")
  in
  let setup = List.assoc "setup_s" bounds in
  List.iter
    (fun (n, b) ->
      if b > setup then Alcotest.failf "%s has a wider bound than setup_s" n)
    bounds

(* --- The wrapped maker changes nothing --------------------------------- *)

let wrapper_is_transparent name () =
  let instance =
    Workload.Scenario.instance
      (Workload.Scenario.default ~norgs:4 ~machines:8 ~horizon:20_000
         Workload.Traces.lpc_egee)
      ~seed:3
  in
  let maker = Algorithms.Registry.find_exn name in
  let run m = Sim.Driver.run ~instance ~rng:(Fstats.Rng.create ~seed:5) m in
  let plain = run maker in
  let spans = Spans.create ~epoch:(Pct.now_ns ()) ~cap:100 in
  let wrap = Wrap.create ~spans ~hooks:true () in
  let wrapped = run (Wrap.maker wrap maker) in
  Alcotest.(check (array int))
    "ψsp bit-identical" plain.Sim.Driver.utilities_scaled
    wrapped.Sim.Driver.utilities_scaled;
  Alcotest.(check (array int)) "parts" plain.Sim.Driver.parts wrapped.Sim.Driver.parts;
  Alcotest.(check string)
    "kernel counters"
    (Kernel.Stats.to_json plain.Sim.Driver.stats)
    (Kernel.Stats.to_json wrapped.Sim.Driver.stats);
  Alcotest.(check bool) "select calls timed" true (Hist.count wrap.Wrap.select > 0)

let () =
  Alcotest.run "bench-suite"
    [
      ( "percentile",
        [
          QCheck_alcotest.to_alcotest percentile_is_rank;
          QCheck_alcotest.to_alcotest histogram_is_close;
          Alcotest.test_case "examples" `Quick percentile_examples;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "stall charged to every request due in it" `Quick
            open_loop_charges_stall;
          Alcotest.test_case "generator lateness counted" `Quick
            open_loop_counts_lateness;
        ] );
      ("benchmark-json", [ Alcotest.test_case "self-check" `Quick benchmark_json ]);
      ( "wrapper",
        List.map
          (fun n -> Alcotest.test_case n `Quick (wrapper_is_transparent n))
          [ "ref"; "rand-15"; "fairshare" ] );
    ]
