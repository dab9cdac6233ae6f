(* A log-linear histogram of non-negative integers (nanoseconds), for
   timings recorded millions of times per run: exact below 64, then 64
   buckets per power of two, so a percentile read from it is within 1/64
   of the exact nearest-rank value.  Recording allocates nothing, so it
   does not grow the process whose peak memory the benchmark reports.

   Each domain counts into its own array (Table 1 runs its instances on a
   domain pool); reads sum them.  [clear] starts a new generation, after
   which every domain starts a fresh array. *)

let sub = 64
let buckets = 58 * sub  (* covers every non-negative OCaml int *)

let index v =
  if v < sub then v
  else begin
    let e = ref 0 in
    while v lsr !e >= 2 * sub do
      incr e
    done;
    ((!e + 1) * sub) + ((v lsr !e) - sub)
  end

(* The midpoint of a bucket's range. *)
let value i =
  if i < sub then float_of_int i
  else
    let e = (i / sub) - 1 and m = (i mod sub) + sub in
    float_of_int (m lsl e) +. (float_of_int ((1 lsl e) - 1) /. 2.)

type t = {
  key : (int * int array) ref Domain.DLS.key;
  generation : int Atomic.t;
  mutable all : int array list;
  lock : Mutex.t;
}

let create () =
  {
    key = Domain.DLS.new_key (fun () -> ref (-1, [||]));
    generation = Atomic.make 0;
    all = [];
    lock = Mutex.create ();
  }

let add t v =
  let cell = Domain.DLS.get t.key in
  let g = Atomic.get t.generation in
  let counts =
    match !cell with
    | g', counts when g' = g -> counts
    | _ ->
        let counts = Array.make buckets 0 in
        Mutex.protect t.lock (fun () -> t.all <- counts :: t.all);
        cell := (g, counts);
        counts
  in
  let i = index (Stdlib.max 0 v) in
  counts.(i) <- counts.(i) + 1

let clear t =
  Mutex.protect t.lock (fun () ->
      Atomic.incr t.generation;
      t.all <- [])

let merged t =
  Mutex.protect t.lock (fun () ->
      let m = Array.make buckets 0 in
      List.iter (Array.iteri (fun i c -> m.(i) <- m.(i) + c)) t.all;
      m)

let count t = Array.fold_left ( + ) 0 (merged t)

(* Nearest-rank percentile, [nan] when nothing was recorded. *)
let percentile t p =
  let m = merged t in
  let n = Array.fold_left ( + ) 0 m in
  if n = 0 then nan
  else begin
    let r = Pct.rank ~n p and seen = ref 0 and i = ref (-1) in
    while !seen < r do
      incr i;
      seen := !seen + m.(!i)
    done;
    value !i
  end
