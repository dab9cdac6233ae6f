(* Exact order statistics over measured samples.

   Every percentile the benchmark prints is the nearest-rank percentile of
   the full sample set: the smallest sample such that at least [p] percent
   of the samples are at or below it.  No histogram buckets, so a 3%
   regression reads as 3%, not as the next power of two. *)

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let ns_to_s d = Int64.to_float d *. 1e-9

(* 1-based rank of the [p]-th percentile among [n] samples.  [p *. n] is
   exact for integral [p] and any realistic [n], and a non-integral
   [p *. n /. 100.] is at least 0.01 away from the next integer, so the
   ceiling never rounds across a rank. *)
let rank ~n p =
  if n <= 0 then invalid_arg "Pct.rank: no samples";
  let r = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  Stdlib.min n (Stdlib.max 1 r)

let of_sorted sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile a p = of_sorted (sorted a) p
let median a = percentile a 50.

(* A growable float buffer: the per-call samples of one quantity. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n

end
