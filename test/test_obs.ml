(* Tier-1 tests of the observability layer: the mockable clock, the JSON
   emitter/parser, the pure histogram core (qcheck properties), the metrics
   registry, and the trace recorder + Chrome trace-event validator. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Metrics/trace state is process-wide; every test that enables collection
   must leave it disabled and empty for the next one. *)
let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
    f

let with_trace f =
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    f

(* --- clock -------------------------------------------------------------- *)

let test_clock_mock () =
  let t = ref 1_000L in
  Obs.Clock.with_source
    (fun () -> !t)
    (fun () ->
      check Alcotest.int64 "mocked now" 1_000L (Obs.Clock.now_ns ());
      t := 3_500_000_000L;
      check (Alcotest.float 1e-4) "elapsed under mock" 3.5
        (Obs.Clock.elapsed 1_000L));
  (* Restored: the real clock is nowhere near the mock's epoch. *)
  checkb "real clock restored" true (Obs.Clock.now_ns () > 1_000_000_000_000L)

let test_clock_monotonic_clamp () =
  let t = ref 5_000L in
  Obs.Clock.with_source
    (fun () -> !t)
    (fun () ->
      check Alcotest.int64 "initial" 5_000L (Obs.Clock.now_ns ());
      t := 2_000L;
      (* The source stepped backwards; the reported time must not. *)
      check Alcotest.int64 "clamped" 5_000L (Obs.Clock.now_ns ());
      checkb "elapsed never negative" true (Obs.Clock.elapsed 5_000L >= 0.);
      t := 9_000L;
      check Alcotest.int64 "catches up" 9_000L (Obs.Clock.now_ns ()))

let test_clock_units () =
  check (Alcotest.float 1e-12) "ns_to_s" 1.5 (Obs.Clock.ns_to_s 1_500_000_000L)

(* --- json --------------------------------------------------------------- *)

let test_json_escaping () =
  check Alcotest.string "escape" {|"a\"b\\c\n\td\u0001"|}
    (Obs.Json.escape_string "a\"b\\c\n\td\001");
  check Alcotest.string "compact obj" {|{"k":[1,true,null,"x"]}|}
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ( "k",
              Obs.Json.List
                [
                  Obs.Json.Int 1; Obs.Json.Bool true; Obs.Json.Null;
                  Obs.Json.String "x";
                ] );
          ]))

let test_json_nonfinite () =
  check Alcotest.string "nan -> null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check Alcotest.string "inf -> null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse () =
  let ok s = Result.get_ok (Obs.Json.of_string s) in
  checkb "ints" true (ok "[1, -2, 0]" = Obs.Json.(List [ Int 1; Int (-2); Int 0 ]));
  checkb "unicode escape" true (ok {|"A"|} = Obs.Json.String "A");
  checkb "surrogate pair" true
    (ok {|"😀"|} = Obs.Json.String "\xf0\x9f\x98\x80");
  checkb "nested" true
    (ok {|{"a": {"b": [1.5]}}|}
    = Obs.Json.(Obj [ ("a", Obj [ ("b", List [ Float 1.5 ]) ]) ]));
  (match Obs.Json.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse should fail on missing value");
  match Obs.Json.of_string "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse should fail on unterminated array"

let json_gen =
  let open QCheck.Gen in
  (* Printable-ish strings plus control characters: exercises escaping. *)
  let str = string_size ~gen:(map Char.chr (int_range 1 126)) (int_bound 12) in
  sized @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            return Obs.Json.Null;
            map (fun b -> Obs.Json.Bool b) bool;
            map (fun i -> Obs.Json.Int i) int;
            map (fun s -> Obs.Json.String s) str;
            (* Finite floats only: non-finite serialize to null by design. *)
            map (fun f -> Obs.Json.Float f) (float_bound_inclusive 1e9);
          ]
      else
        oneof
          [
            map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n / 2)));
            map
              (fun kvs -> Obs.Json.Obj kvs)
              (list_size (int_bound 4)
                 (pair str (self (n / 2))));
          ])

(* Structural equality modulo duplicate object keys: the parser keeps all
   of them, but [member] sees the first, so just compare re-serializations. *)
let test_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json round-trip"
    (QCheck.make json_gen)
    (fun j ->
      let s = Obs.Json.to_string j in
      match Obs.Json.of_string s with
      | Error e -> QCheck.Test.fail_reportf "reparse failed on %s: %s" s e
      | Ok j' -> Obs.Json.to_string j' = s)

let test_json_pretty_roundtrip =
  QCheck.Test.make ~count:200 ~name:"pretty json reparses to same"
    (QCheck.make json_gen)
    (fun j ->
      match Obs.Json.of_string (Obs.Json.to_string ~pretty:true j) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok j' -> Obs.Json.to_string j' = Obs.Json.to_string j)

(* --- untrusted-input limits (the wire protocol's parser) ---------------- *)

let test_json_limits () =
  let limits = { Obs.Json.max_depth = 4; max_bytes = 64 } in
  (match Obs.Json.parse ~limits "[[[1]]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "depth 3 rejected: %s" (Obs.Json.error_to_string e));
  (match Obs.Json.parse ~limits "[[[[1]]]]" with
  | Error { kind = Obs.Json.Too_deep 4; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Json.error_to_string e)
  | Ok _ -> Alcotest.fail "depth 5 accepted");
  (match Obs.Json.parse ~limits (String.make 100 ' ' ^ "1") with
  | Error { kind = Obs.Json.Too_large { limit = 64; _ }; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Json.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized document accepted");
  (* A stack-burning payload under default limits must come back as a
     typed error, not a stack overflow. *)
  match Obs.Json.parse (String.make 100_000 '[') with
  | Error { kind = Obs.Json.Too_deep _; _ } -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Obs.Json.error_to_string e)
  | Ok _ -> Alcotest.fail "bomb accepted"

(* Fuzz: the parser is total — arbitrary bytes never raise, and whatever
   it accepts must re-serialize and reparse to the same document. *)
let test_json_fuzz_total =
  let arb =
    QCheck.make
      ~print:(fun s -> Printf.sprintf "%S" s)
      QCheck.Gen.(
        oneof
          [
            (* Raw bytes. *)
            string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 80);
            (* JSON-ish punctuation soup: much denser in near-misses. *)
            string_size
              ~gen:(oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '0'; '1';
                             'e'; '.'; '-'; '+'; 'n'; 't'; 'f'; '\\'; ' ' ])
              (int_bound 80);
          ])
  in
  QCheck.Test.make ~count:2_000 ~name:"parse never raises, accepts imply roundtrip"
    arb
    (fun s ->
      let limits = { Obs.Json.max_depth = 16; max_bytes = 1024 } in
      match Obs.Json.parse ~limits s with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s
      | Error _ -> true
      | Ok j -> (
          match Obs.Json.parse ~limits:Obs.Json.default_limits
                  (Obs.Json.to_string j)
          with
          | Ok j' -> Obs.Json.to_string j' = Obs.Json.to_string j
          | Error e ->
              QCheck.Test.fail_reportf "accepted %S but reparse failed: %s" s
                (Obs.Json.error_to_string e)))

(* --- histogram core (pure, property-tested) ----------------------------- *)

let obs_list_gen =
  QCheck.(list_of_size Gen.(int_bound 200) (float_bound_exclusive 1e12))

let hist_of xs =
  let b = Obs.Metrics.Hist.create () in
  List.iter (Obs.Metrics.Hist.add b) xs;
  b

let test_hist_count_conservation =
  QCheck.Test.make ~count:300 ~name:"hist count conservation"
    obs_list_gen
    (fun xs -> Obs.Metrics.Hist.count (hist_of xs) = List.length xs)

let test_hist_merge_assoc =
  QCheck.Test.make ~count:300 ~name:"hist merge associative+commutative"
    (QCheck.triple obs_list_gen obs_list_gen obs_list_gen)
    (fun (a, b, c) ->
      let ha = hist_of a and hb = hist_of b and hc = hist_of c in
      let open Obs.Metrics.Hist in
      merge (merge ha hb) hc = merge ha (merge hb hc)
      && merge ha hb = merge hb ha
      && merge (merge ha hb) hc = hist_of (a @ b @ c))

let test_hist_quantile_monotone =
  QCheck.Test.make ~count:300 ~name:"hist quantile monotone in q"
    (QCheck.pair obs_list_gen (QCheck.pair (QCheck.float_bound_inclusive 1.) (QCheck.float_bound_inclusive 1.)))
    (fun (xs, (q1, q2)) ->
      let h = hist_of xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Obs.Metrics.Hist.quantile h lo <= Obs.Metrics.Hist.quantile h hi)

let test_hist_quantile_bounds =
  QCheck.Test.make ~count:300 ~name:"hist q=1 covers the max"
    (QCheck.pair QCheck.(float_bound_exclusive 1e12) obs_list_gen)
    (fun (x, xs) ->
      let xs = x :: xs in
      let top = List.fold_left Float.max 0. xs in
      Obs.Metrics.Hist.quantile (hist_of xs) 1. >= top)

(* Exact below 128, then 64 sub-buckets per power of two; a fractional
   observation counts at its ceiling. *)
let test_hist_buckets () =
  let open Obs.Metrics.Hist in
  check Alcotest.int "bucket of 0" 0 (bucket_of 0.);
  check Alcotest.int "bucket of 0.5" 1 (bucket_of 0.5);
  check Alcotest.int "bucket of 1" 1 (bucket_of 1.);
  check Alcotest.int "bucket of 3" 3 (bucket_of 3.);
  check Alcotest.int "bucket of 63" 63 (bucket_of 63.);
  check Alcotest.int "bucket of 127" 127 (bucket_of 127.);
  check Alcotest.int "128 and 129 share a bucket" (bucket_of 128.)
    (bucket_of 129.);
  check Alcotest.int "130 starts the next" (bucket_of 128. + 1)
    (bucket_of 130.);
  check Alcotest.int "2^20 + 2^14 - 1 and 2^20 share a bucket"
    (bucket_of 1048576.) (bucket_of 1064959.);
  check Alcotest.int "2^20 + 2^14 starts the next" (bucket_of 1048576. + 1)
    (bucket_of 1064960.);
  check Alcotest.int "negative clamps to 0" 0 (bucket_of (-5.));
  check Alcotest.int "top bucket absorbs" (nbuckets - 1) (bucket_of 1e300);
  check (Alcotest.float 0.) "empty quantile" 0. (quantile (create ()) 0.5)

(* For integer observations, every quantile is at most 1/64 above the
   exact nearest-rank value of a sort, and never below it. *)
let test_hist_quantile_precision =
  QCheck.Test.make ~count:300 ~name:"hist quantile within 1/64 of exact"
    (QCheck.pair
       QCheck.(list_of_size Gen.(1 -- 300) (int_bound 1_000_000_000))
       (QCheck.float_bound_inclusive 1.))
    (fun (xs, q) ->
      let h = hist_of (List.map float_of_int xs) in
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      let rank =
        max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))
      in
      let exact = float_of_int sorted.(rank - 1) in
      let got = Obs.Metrics.Hist.quantile h q in
      if got < exact || got -. exact > exact /. 64. then
        QCheck.Test.fail_reportf "q=%g: histogram %g, exact %g" q got exact;
      true)

(* --- metrics registry --------------------------------------------------- *)

let test_metrics_disabled_noop () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter "t.disabled.c" in
  let h = Obs.Metrics.histogram "t.disabled.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Obs.Metrics.observe h 3.;
  check Alcotest.int "counter stays 0" 0 (Obs.Metrics.counter_value c);
  match List.assoc "t.disabled.h" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Histogram s -> check Alcotest.int "hist stays empty" 0 s.count
  | _ -> Alcotest.fail "wrong kind in snapshot"

let test_metrics_counter_gauge () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.c" in
  let g = Obs.Metrics.gauge "t.g" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Obs.Metrics.set g 2.5;
  check Alcotest.int "counter" 42 (Obs.Metrics.counter_value c);
  check (Alcotest.float 0.) "gauge" 2.5 (Obs.Metrics.gauge_value g);
  checkb "find-or-create returns same handle" true
    (Obs.Metrics.counter_value (Obs.Metrics.counter "t.c") = 42)

let test_metrics_cross_domain () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.par.c" in
  let h = Obs.Metrics.histogram "t.par.h" in
  let worker () =
    for i = 1 to 1000 do
      Obs.Metrics.incr c;
      Obs.Metrics.observe h (float_of_int i)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  check Alcotest.int "4 domains x 1000" 4000 (Obs.Metrics.counter_value c);
  match List.assoc "t.par.h" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Histogram s ->
      check Alcotest.int "all observations merged" 4000 s.count;
      check (Alcotest.float 0.) "exact max" 1000. s.max;
      checkb "quantiles ordered" true (s.p50 <= s.p90 && s.p90 <= s.p99);
      checkb "quantiles clamp to max" true (s.p99 <= s.max)
  | _ -> Alcotest.fail "wrong kind"

let test_metrics_kind_collision () =
  let _c = Obs.Metrics.counter "t.kind" in
  (match Obs.Metrics.gauge "t.kind" with
  | _ -> Alcotest.fail "kind collision must raise"
  | exception Invalid_argument _ -> ());
  match Obs.Metrics.histogram "t.kind" with
  | _ -> Alcotest.fail "kind collision must raise"
  | exception Invalid_argument _ -> ()

let test_metrics_json_and_reset () =
  with_metrics @@ fun () ->
  let c = Obs.Metrics.counter "t.json.c" in
  Obs.Metrics.add c 7;
  let j = Obs.Metrics.to_json () in
  (match Obs.Json.member j "t.json.c" with
  | Some (Obs.Json.Int 7) -> ()
  | _ -> Alcotest.fail "counter missing from to_json");
  (* And the dump must be parseable by our own parser. *)
  (match Obs.Json.of_string (Obs.Json.to_string ~pretty:true j) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("metrics JSON does not reparse: " ^ e));
  Obs.Metrics.reset ();
  check Alcotest.int "reset zeroes, handle survives" 0
    (Obs.Metrics.counter_value c)

(* qcheck: arbitrary per-domain operation lists hammered at ONE counter and
   ONE histogram from concurrently spawned domains must merge to exactly
   the sequential sum — the per-domain cells may lose no update and
   double-count none, whatever the interleaving. *)
let test_metrics_merge_is_sequential_sum =
  let ops_gen =
    (* One (counter increment, histogram observation) list per domain. *)
    QCheck.(
      list_of_size
        Gen.(1 -- 4)
        (list_of_size Gen.(int_bound 200)
           (pair (int_bound 50) (float_bound_exclusive 1e9))))
  in
  QCheck.Test.make ~count:20 ~name:"cross-domain merge = sequential sum"
    ops_gen (fun per_domain ->
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.set_enabled false;
          Obs.Metrics.reset ())
        (fun () ->
          let c = Obs.Metrics.counter "t.q.c" in
          let h = Obs.Metrics.histogram "t.q.h" in
          let apply ops =
            List.iter
              (fun (k, x) ->
                Obs.Metrics.add c k;
                Obs.Metrics.observe h x)
              ops
          in
          let ds =
            List.map (fun ops -> Domain.spawn (fun () -> apply ops)) per_domain
          in
          List.iter Domain.join ds;
          let want_count =
            List.fold_left (fun a ops -> a + List.length ops) 0 per_domain
          in
          let want_sum =
            List.fold_left
              (fun a ops -> List.fold_left (fun a (k, _) -> a + k) a ops)
              0 per_domain
          in
          let got_sum = Obs.Metrics.counter_value c in
          if got_sum <> want_sum then
            QCheck.Test.fail_reportf "counter merged to %d, sequential sum %d"
              got_sum want_sum;
          match List.assoc "t.q.h" (Obs.Metrics.snapshot ()) with
          | Obs.Metrics.Histogram s ->
              if s.Obs.Metrics.count <> want_count then
                QCheck.Test.fail_reportf
                  "histogram merged %d observations, expected %d"
                  s.Obs.Metrics.count want_count;
              if want_count > 0 then begin
                let want_max =
                  List.fold_left
                    (fun a ops ->
                      List.fold_left (fun a (_, x) -> Float.max a x) a ops)
                    0. per_domain
                in
                if s.Obs.Metrics.max <> want_max then
                  QCheck.Test.fail_reportf
                    "histogram max %g, sequential max %g" s.Obs.Metrics.max
                    want_max
              end;
              true
          | _ | (exception Not_found) ->
              QCheck.Test.fail_reportf "histogram missing from snapshot"))

(* qcheck: one histogram observed from several domains reads exactly as
   one histogram fed every value on a single domain. *)
let test_metrics_domains_merge_to_one =
  QCheck.Test.make ~count:20 ~name:"histograms merged across domains = one"
    QCheck.(
      list_of_size
        Gen.(1 -- 4)
        (list_of_size Gen.(int_bound 300) (float_bound_exclusive 1e9)))
    (fun per_domain ->
      with_metrics @@ fun () ->
      let spread = Obs.Metrics.histogram "t.md.spread" in
      let one = Obs.Metrics.histogram "t.md.one" in
      List.map
        (fun xs ->
          Domain.spawn (fun () -> List.iter (Obs.Metrics.observe spread) xs))
        per_domain
      |> List.iter Domain.join;
      List.iter (List.iter (Obs.Metrics.observe one)) per_domain;
      let snap = Obs.Metrics.snapshot () in
      match (List.assoc "t.md.spread" snap, List.assoc "t.md.one" snap) with
      | Obs.Metrics.Histogram a, Obs.Metrics.Histogram b ->
          if a <> b then
            QCheck.Test.fail_reportf
              "domains: count=%d p50=%g p90=%g p99=%g; one: count=%d p50=%g \
               p90=%g p99=%g"
              a.count a.p50 a.p90 a.p99 b.count b.p50 b.p90 b.p99;
          true
      | _ -> QCheck.Test.fail_reportf "wrong kind in snapshot")

(* --- trace recorder + validator ----------------------------------------- *)

let test_trace_disabled_records_nothing () =
  Obs.Trace.reset ();
  Obs.Trace.set_enabled false;
  Obs.Trace.span "t.off" (fun () -> ());
  Obs.Trace.instant "t.off.i";
  check Alcotest.int "no events" 0 (List.length (Obs.Trace.events ()))

let test_trace_spans () =
  with_trace @@ fun () ->
  Obs.Trace.span ~cat:"test" "outer" (fun () ->
      Obs.Trace.span ~cat:"test" "inner" (fun () -> ());
      Obs.Trace.instant ~cat:"test" "mark");
  let evs = Obs.Trace.events () in
  check Alcotest.int "3 events" 3 (List.length evs);
  let names = List.map (fun e -> e.Obs.Trace.name) evs in
  (* Sorted by start time: outer starts first, then inner, then the mark. *)
  check (Alcotest.list Alcotest.string) "order" [ "outer"; "inner"; "mark" ]
    names;
  List.iter
    (fun e ->
      checkb "ts >= 0" true (e.Obs.Trace.ts_ns >= 0L);
      checkb "dur >= 0" true (e.Obs.Trace.dur_ns >= 0L))
    evs;
  let outer = List.nth evs 0 and inner = List.nth evs 1 in
  checkb "outer contains inner" true
    (outer.Obs.Trace.dur_ns >= inner.Obs.Trace.dur_ns);
  match Obs.Trace.validate (Obs.Trace.to_json ()) with
  | Ok v ->
      check Alcotest.int "validator counts" 3 v.Obs.Trace.total_events;
      check
        (Alcotest.list Alcotest.string)
        "span names" [ "inner"; "outer" ] v.Obs.Trace.span_names
  | Error e -> Alcotest.fail e

exception Span_boom of int

let test_trace_span_survives_raise () =
  with_trace @@ fun () ->
  let original = Span_boom 7 in
  (match Obs.Trace.span "boom" (fun () -> raise original) with
  | () -> Alcotest.fail "the span swallowed the exception"
  | exception e -> checkb "the body's own exception escapes" true (e == original));
  check
    Alcotest.(list string)
    "exactly one span despite raise" [ "boom" ]
    (List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()))

let test_trace_write_and_validate_file () =
  with_trace @@ fun () ->
  Obs.Trace.span "t.file" (fun () -> ());
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n = Obs.Trace.write path in
      check Alcotest.int "one event written" 1 n;
      match Obs.Trace.validate_file path with
      | Ok v -> check Alcotest.int "file validates" 1 v.Obs.Trace.total_events
      | Error e -> Alcotest.fail e)

(* --- what the kernel records ----------------------------------------------- *)

let span_count name =
  List.length
    (List.filter (fun e -> e.Obs.Trace.name = name) (Obs.Trace.events ()))

let histogram_count name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Histogram s) -> s.Obs.Metrics.count
  | _ -> 0

let run_policy ?faults ?workers ~instance maker =
  Sim.Driver.run ~record:false ?faults ?workers ~instance
    ~rng:(Fstats.Rng.create ~seed:5) maker

(* Only the live engine is instrumented: the what-if coalition sims inside
   REF and RAND step many instants per live one and record no kernel span
   and no round sample, while their work still reaches [Kernel.Stats].
   Collection changes no result bit. *)
let test_whatif_sims_unobserved () =
  List.iter
    (fun (name, k, workers, maker) ->
      let instance =
        Workload.Scenario.instance
          (Workload.Scenario.default ~norgs:k ~machines:8 ~horizon:20_000
             Workload.Traces.lpc_egee)
          ~seed:21
      in
      let quiet = run_policy ~workers ~instance maker in
      with_metrics @@ fun () ->
      with_trace @@ fun () ->
      let r = run_policy ~workers ~instance maker in
      let live = r.Sim.Driver.events in
      (* Every contested decision reads the what-if sims. *)
      checkb (name ^ ": the policy ran what-if sims") true
        (Obs.Metrics.counter_value (Obs.Metrics.counter "ref.phi_walks")
         + Obs.Metrics.counter_value (Obs.Metrics.counter "rand.estimates")
        > 0);
      check Alcotest.int (name ^ ": kernel.round spans") live
        (span_count "kernel.round");
      check Alcotest.int (name ^ ": round latency samples") live
        (histogram_count "kernel.round_latency_ns");
      check Alcotest.int (name ^ ": round starts samples") live
        (histogram_count "kernel.round_starts");
      check Alcotest.int (name ^ ": nothing dropped") 0 (Obs.Trace.dropped ());
      (* No fault and no endowment stream: those phases never had work. *)
      check Alcotest.int (name ^ ": no kernel.faults") 0
        (span_count "kernel.faults");
      check Alcotest.int (name ^ ": no kernel.endowments") 0
        (span_count "kernel.endowments");
      check
        Alcotest.(array int)
        (name ^ ": psi unchanged by collection")
        quiet.Sim.Driver.utilities_scaled r.Sim.Driver.utilities_scaled;
      checkb (name ^ ": kernel stats unchanged by collection") true
        (Kernel.Stats.to_json quiet.Sim.Driver.stats
        = Kernel.Stats.to_json r.Sim.Driver.stats))
    [
      ("rand-15 k=6", 6, 1, Algorithms.Rand.rand15);
      ("ref k=4 workers=1", 4, 1, Algorithms.Reference.make ~workers:1 ());
      ("ref k=4 workers=2", 4, 2, Algorithms.Reference.make ~workers:2 ());
    ]

(* A phase span stands for work done: one machine down at 2 and back at 3
   gives exactly two [kernel.faults] spans. *)
let test_phase_spans_follow_work () =
  let instance =
    Core.Instance.make ~machines:[| 1 |]
      ~jobs:[ Core.Job.make ~org:0 ~index:0 ~release:0 ~size:5 () ]
      ~horizon:10
  in
  let faults =
    Faults.Model.scripted [ { Faults.Model.machine = 0; down_at = 2; up_at = 3 } ]
  in
  with_trace @@ fun () ->
  ignore (run_policy ~faults ~instance (Algorithms.Registry.find_exn "fifo"));
  check Alcotest.int "one span per fault instant" 2 (span_count "kernel.faults");
  check Alcotest.int "no endowment span" 0 (span_count "kernel.endowments")

let validate_str s =
  Obs.Trace.validate (Result.get_ok (Obs.Json.of_string s))

let test_validator_accepts () =
  (* Bare array form, B/E pairs, metadata events without timing. *)
  match
    validate_str
      {|[{"name":"a","ph":"B","ts":1,"tid":0},
         {"name":"a","ph":"E","ts":5,"tid":0},
         {"name":"thread_name","ph":"M","pid":1,"tid":0,
          "args":{"name":"main"}},
         {"name":"x","ph":"X","ts":6,"dur":2,"tid":0}]|}
  with
  | Ok v ->
      check Alcotest.int "events" 4 v.Obs.Trace.total_events;
      check (Alcotest.list Alcotest.int) "tids" [ 0 ] v.Obs.Trace.tids
  | Error e -> Alcotest.fail e

let test_validator_rejects () =
  let rejects s = checkb s true (Result.is_error (validate_str s)) in
  rejects {|[{"name":"a","ph":"E","ts":1,"tid":0}]|};
  (* unbalanced E *)
  rejects {|[{"name":"a","ph":"B","ts":1,"tid":0}]|};
  (* unclosed B *)
  rejects
    {|[{"name":"a","ph":"X","ts":5,"dur":1,"tid":0},
       {"name":"b","ph":"X","ts":3,"dur":1,"tid":0}]|};
  (* backwards ts on one tid *)
  rejects {|[{"name":"a","ph":"X","ts":1,"tid":0}]|};
  (* X without dur *)
  rejects {|[{"name":"a","ph":"X","ts":1,"dur":-2,"tid":0}]|};
  (* negative dur *)
  rejects {|[{"ph":"X","ts":1,"dur":1,"tid":0}]|};
  (* missing name *)
  rejects {|[{"name":"a","ph":"X","ts":1,"dur":1}]|};
  (* missing tid *)
  rejects {|[{"name":"a","ph":"?","ts":1,"tid":0}]|};
  (* unknown phase *)
  rejects {|[42]|};
  (* not an object *)
  rejects {|{"notTraceEvents": []}|}
(* missing traceEvents *)

let test_validator_interleaved_tids () =
  (* Monotonicity is per-tid: interleaved timestamps across tids are fine. *)
  match
    validate_str
      {|[{"name":"a","ph":"X","ts":10,"dur":1,"tid":0},
         {"name":"b","ph":"X","ts":5,"dur":1,"tid":1},
         {"name":"c","ph":"X","ts":11,"dur":1,"tid":0},
         {"name":"d","ph":"X","ts":6,"dur":1,"tid":1}]|}
  with
  | Ok v -> check (Alcotest.list Alcotest.int) "tids" [ 0; 1 ] v.Obs.Trace.tids
  | Error e -> Alcotest.fail e

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "mockable source" `Quick test_clock_mock;
          Alcotest.test_case "monotonic clamp" `Quick
            test_clock_monotonic_clamp;
          Alcotest.test_case "unit conversion" `Quick test_clock_units;
        ] );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "parser" `Quick test_json_parse;
          Alcotest.test_case "limits" `Quick test_json_limits;
          q test_json_roundtrip;
          q test_json_pretty_roundtrip;
          q test_json_fuzz_total;
        ] );
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_buckets;
          q test_hist_count_conservation;
          q test_hist_merge_assoc;
          q test_hist_quantile_monotone;
          q test_hist_quantile_bounds;
          q test_hist_quantile_precision;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_metrics_disabled_noop;
          Alcotest.test_case "counter and gauge" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "cross-domain merge" `Quick
            test_metrics_cross_domain;
          Alcotest.test_case "kind collision raises" `Quick
            test_metrics_kind_collision;
          Alcotest.test_case "json dump and reset" `Quick
            test_metrics_json_and_reset;
          q test_metrics_merge_is_sequential_sum;
          q test_metrics_domains_merge_to_one;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "span nesting" `Quick test_trace_spans;
          Alcotest.test_case "span survives raise" `Quick
            test_trace_span_survives_raise;
          Alcotest.test_case "write + validate_file" `Quick
            test_trace_write_and_validate_file;
          Alcotest.test_case "validator accepts" `Quick test_validator_accepts;
          Alcotest.test_case "validator rejects" `Quick test_validator_rejects;
          Alcotest.test_case "per-tid monotonicity" `Quick
            test_validator_interleaved_tids;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "what-if sims record nothing" `Quick
            test_whatif_sims_unobserved;
          Alcotest.test_case "phase spans follow work" `Quick
            test_phase_spans_follow_work;
        ] );
    ]
