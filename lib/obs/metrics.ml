let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Shards are indexed by domain id modulo a fixed power of two: distinct
   domains usually hit distinct cells (no cross-domain contention on the hot
   path), and two domains that do collide are still correct because every
   cell is atomic. *)
let nshards = 32
let shard () = (Domain.self () :> int) land (nshards - 1)

(* --- pure histogram core ------------------------------------------------ *)

module Hist = struct
  type buckets = int array

  let nbuckets = 64
  let create () = Array.make nbuckets 0

  let bucket_of v =
    if not (v > 0.) then 0 (* negatives and nan clamp to the zero bucket *)
    else
      let _, e = Float.frexp v in
      (* v = m·2^e with m in [0.5, 1), i.e. v in [2^(e-1), 2^e) *)
      if e <= 0 then 0 else Stdlib.min (nbuckets - 1) e

  let upper_bound b = if b = 0 then 1.0 else Float.ldexp 1.0 b
  let add h v = h.(bucket_of v) <- h.(bucket_of v) + 1
  let merge a b = Array.init nbuckets (fun i -> a.(i) + b.(i))
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

type histogram = {
  shards : int Atomic.t array array; (* nshards × Hist.nbuckets *)
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
          shards =
            Array.init nshards (fun _ ->
                Array.init Hist.nbuckets (fun _ -> Atomic.make 0));
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

let observe h v =
  if Atomic.get enabled_flag then begin
    let v = if Float.is_finite v && v > 0. then v else 0. in
    ignore (Atomic.fetch_and_add h.shards.(shard ()).(Hist.bucket_of v) 1);
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

let merged_buckets h =
  let merged = Hist.create () in
  Array.iter
    (fun sh ->
      Array.iteri (fun b cell -> merged.(b) <- merged.(b) + Atomic.get cell) sh)
    h.shards;
  merged

type summary = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

type value = Counter of int | Gauge of float | Histogram of summary
type snapshot = (string * value) list

let summarize h =
  let b = merged_buckets h in
  let max = Int64.float_of_bits (Atomic.get h.hmax) in
  (* [Hist.quantile] answers with the upper bound of the rank's bucket,
     which can overshoot the largest observation; the exact max is tracked
     on the side, so clamp to it. *)
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
           | Histogram s ->
               Json.Obj
                 [
                   ("count", Json.Int s.count);
                   ("p50", Json.Float s.p50);
                   ("p90", Json.Float s.p90);
                   ("p99", Json.Float s.p99);
                   ("max", Json.Float s.max);
                 ] ))
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
  Array.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.shards;
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
