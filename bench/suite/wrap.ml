(* Timing a registered policy from the outside.

   [maker t m] is [m] with its closures wrapped: the maker call itself and
   every [select] are timed, and with [hooks] also [on_release],
   [on_start] and [on_complete].  The wrapped policy calls exactly the
   closures it was given with exactly the same arguments, so a run with a
   wrapped maker is bit-identical to one without (the test suite checks
   this).  Durations go to per-domain histograms and atomic totals,
   because Table 1 runs its instances on a domain pool. *)

type t = {
  hooks : bool;
  spans : Spans.t option;
  make : Hist.t;
  select : Hist.t;
  make_ns : int Atomic.t;
  select_ns : int Atomic.t;
  hooks_ns : int Atomic.t;
}

let create ?spans ~hooks () =
  {
    hooks;
    spans;
    make = Hist.create ();
    select = Hist.create ();
    make_ns = Atomic.make 0;
    select_ns = Atomic.make 0;
    hooks_ns = Atomic.make 0;
  }

let reset t =
  Hist.clear t.make;
  Hist.clear t.select;
  Atomic.set t.make_ns 0;
  Atomic.set t.select_ns 0;
  Atomic.set t.hooks_ns 0

let record t hist total name ~t0 ~t1 =
  let d = Int64.to_int (Int64.sub t1 t0) in
  Option.iter (fun h -> Hist.add h d) hist;
  ignore (Atomic.fetch_and_add total d);
  match t.spans with Some s -> Spans.add s name ~t0 ~t1 | None -> ()

let timed_hook t name f =
  if not t.hooks then f
  else fun view ~time x ->
    let t0 = Pct.now_ns () in
    f view ~time x;
    record t None t.hooks_ns name ~t0 ~t1:(Pct.now_ns ())

let maker t (m : Algorithms.Policy.maker) : Algorithms.Policy.maker =
 fun instance ~rng ->
  let t0 = Pct.now_ns () in
  let p = m instance ~rng in
  record t (Some t.make) t.make_ns "policy.make" ~t0 ~t1:(Pct.now_ns ());
  let select view ~time =
    let t0 = Pct.now_ns () in
    let org = p.Algorithms.Policy.select view ~time in
    record t (Some t.select) t.select_ns "policy.select" ~t0 ~t1:(Pct.now_ns ());
    org
  in
  {
    p with
    Algorithms.Policy.select;
    on_release = timed_hook t "policy.on_release" p.Algorithms.Policy.on_release;
    on_start = timed_hook t "policy.on_start" p.Algorithms.Policy.on_start;
    on_complete =
      timed_hook t "policy.on_complete" p.Algorithms.Policy.on_complete;
  }

let seconds total = float_of_int (Atomic.get total) *. 1e-9
