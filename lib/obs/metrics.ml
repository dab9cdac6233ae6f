let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Counter shards are indexed by domain id modulo a fixed power of two:
   distinct domains usually hit distinct cells (no cross-domain contention
   on the hot path), and two domains that do collide are still correct
   because every cell is atomic. *)
let nshards = 32
let shard () = (Domain.self () :> int) land (nshards - 1)

(* --- pure histogram core ------------------------------------------------ *)

(* Log-linear buckets over the non-negative integers: one per integer
   below 128, then 64 linear sub-buckets per power of two, so a bucket's
   members are within 1/64 of each other.  Observations are counted at
   integer resolution (the daemon records ns and µs), rounded up so the
   bucket's largest member covers every value counted in it. *)
module Hist = struct
  type buckets = int array

  let sub = 64

  let index v =
    if v < sub then v
    else begin
      let e = ref 0 in
      while v lsr !e >= 2 * sub do
        incr e
      done;
      ((!e + 1) * sub) + ((v lsr !e) - sub)
    end

  let nbuckets = index max_int + 1
  let create () = Array.make nbuckets 0

  let bucket_of v =
    if not (v > 0.) then 0 (* negatives and nan clamp to the zero bucket *)
    else
      let c = Float.ceil v in
      if c >= 0x1p62 then nbuckets - 1 else index (int_of_float c)

  (* The largest integer bucket [b] holds. *)
  let upper_bound b =
    if b < sub then float_of_int b
    else
      let e = (b / sub) - 1 and m = (b mod sub) + sub in
      float_of_int (((m + 1) lsl e) - 1)

  let add h v =
    let b = bucket_of v in
    h.(b) <- h.(b) + 1

  let merge a b = Array.init nbuckets (fun i -> a.(i) + b.(i))
  let add_into dst src = Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src
  let count h = Array.fold_left ( + ) 0 h

  let quantile h q =
    let n = count h in
    if n = 0 then 0.
    else begin
      let rank =
        Stdlib.max 1
          (Stdlib.min n (int_of_float (Float.ceil (q *. float_of_int n))))
      in
      let rec go b acc =
        let acc = acc + h.(b) in
        if acc >= rank then upper_bound b else go (b + 1) acc
      in
      go 0 0
    end
end

(* --- concurrent metric cells -------------------------------------------- *)

type counter = { cells : int Atomic.t array }
type gauge = { bits : int64 Atomic.t (* float bits *) }

(* Each domain counts into its own plain array, allocated on its first
   observation; reads sum them under [lock].  A domain folds its counts
   into [retired] when it exits, so spawning domains does not grow the
   histogram. *)
type histogram = {
  local : Hist.buckets option Domain.DLS.key;
  lock : Mutex.t;
  mutable live : Hist.buckets list;
  mutable retired : Hist.buckets;  (* [||] until a domain exits *)
  hmax : int64 Atomic.t; (* float bits; valid order because values >= 0 *)
}

type handle = C of counter | G of gauge | H of histogram

let registry : (string, handle) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let register name make describe =
  Mutex.lock registry_mutex;
  let r =
    match Hashtbl.find_opt registry name with
    | Some h -> (
        match describe h with
        | Some v -> Ok v
        | None ->
            Error
              (Printf.sprintf
                 "Obs.Metrics: %S is already registered as another kind" name))
    | None ->
        let v, h = make () in
        Hashtbl.add registry name h;
        Ok v
  in
  Mutex.unlock registry_mutex;
  match r with Ok v -> v | Error msg -> invalid_arg msg

let counter name =
  register name
    (fun () ->
      let c = { cells = Array.init nshards (fun _ -> Atomic.make 0) } in
      (c, C c))
    (function C c -> Some c | G _ | H _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { bits = Atomic.make 0L } in
      (g, G g))
    (function G g -> Some g | C _ | H _ -> None)

let histogram name =
  register name
    (fun () ->
      let h =
        {
          local = Domain.DLS.new_key (fun () -> None);
          lock = Mutex.create ();
          live = [];
          retired = [||];
          hmax = Atomic.make 0L;
        }
      in
      (h, H h))
    (function H h -> Some h | C _ | G _ -> None)

let add c n =
  if Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.cells.(shard ()) n)

let incr c = add c 1
let set g v = if Atomic.get enabled_flag then Atomic.set g.bits (Int64.bits_of_float v)

let retire h counts =
  Mutex.protect h.lock (fun () ->
      h.live <- List.filter (( != ) counts) h.live;
      if Array.length h.retired = 0 then h.retired <- counts
      else Hist.add_into h.retired counts)

let local_counts h =
  match Domain.DLS.get h.local with
  | Some counts -> counts
  | None ->
      let counts = Hist.create () in
      Mutex.protect h.lock (fun () -> h.live <- counts :: h.live);
      Domain.DLS.set h.local (Some counts);
      Domain.at_exit (fun () -> retire h counts);
      counts

let observe h v =
  if Atomic.get enabled_flag then begin
    let v = if Float.is_finite v && v > 0. then v else 0. in
    Hist.add (local_counts h) v;
    let bits = Int64.bits_of_float v in
    let rec bump () =
      let cur = Atomic.get h.hmax in
      if Int64.compare bits cur > 0 then
        if not (Atomic.compare_and_set h.hmax cur bits) then bump ()
    in
    bump ()
  end

(* --- reading ------------------------------------------------------------ *)

let counter_value c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let gauge_value g = Int64.float_of_bits (Atomic.get g.bits)

(* [None] until some domain observes, so a registry snapshot costs
   nothing for histograms a run never fed (Sim.Driver.run takes one per
   simulation). *)
let merged_buckets h =
  Mutex.protect h.lock (fun () ->
      if h.live = [] && Array.length h.retired = 0 then None
      else begin
        let merged = Hist.create () in
        List.iter (Hist.add_into merged) (h.retired :: h.live);
        Some merged
      end)

type summary = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summary_codec =
  let open Json.Codec in
  obj
    [
      req "count" int;
      req "p50" number;
      req "p90" number;
      req "p99" number;
      req "max" number;
    ]
    (fun [ count; p50; p90; p99; max ] -> { count; p50; p90; p99; max })
    (fun s -> [ s.count; s.p50; s.p90; s.p99; s.max ])

type value = Counter of int | Gauge of float | Histogram of summary
type snapshot = (string * value) list

let summarize h =
  match merged_buckets h with
  | None -> { count = 0; p50 = 0.; p90 = 0.; p99 = 0.; max = 0. }
  | Some b ->
      let max = Int64.float_of_bits (Atomic.get h.hmax) in
      (* [Hist.quantile] answers with the largest member of the rank's
         bucket, which can overshoot the largest observation; the exact
         max is tracked on the side, so clamp to it. *)
      let q p = Float.min (Hist.quantile b p) max in
      { count = Hist.count b; p50 = q 0.5; p90 = q 0.9; p99 = q 0.99; max }

let snapshot () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  entries
  |> List.map (fun (name, h) ->
         ( name,
           match h with
           | C c -> Counter (counter_value c)
           | G g -> Gauge (gauge_value g)
           | H h -> Histogram (summarize h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json () =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json.Int n
           | Gauge v -> Json.Float v
           | Histogram s -> Json.Codec.encode summary_codec s ))
       (snapshot ()))

let pp ppf () =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "  %-32s %d@." name n
      | Gauge v -> Format.fprintf ppf "  %-32s %g@." name v
      | Histogram s ->
          Format.fprintf ppf
            "  %-32s count=%d p50=%g p90=%g p99=%g max=%g@." name s.count
            s.p50 s.p90 s.p99 s.max)
    (snapshot ())

let clear h =
  Mutex.protect h.lock (fun () ->
      List.iter (fun counts -> Array.fill counts 0 Hist.nbuckets 0) h.live;
      h.retired <- [||]);
  Atomic.set h.hmax 0L

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ h ->
      match h with
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | G g -> Atomic.set g.bits 0L
      | H h -> clear h)
    registry;
  Mutex.unlock registry_mutex
