type t = {
  mutable slope : int;  (* Σ size over completed pieces *)
  mutable const : int;  (* −Σ size·(2·start + size − 1) over completed *)
  active : (int, int) Hashtbl.t;  (* key -> start *)
  (* The running pieces' share of the value polynomial, kept up to date by
     every state change: each running piece started at [s] contributes
     (at−s)(at−s+1) = at² + at·(1−2s) + s(s−1). *)
  mutable run_b : int;  (* Σ (1 − 2s) over running pieces *)
  mutable run_c : int;  (* Σ s(s − 1) over running pieces *)
  mutable run_s : int;  (* Σ s over running pieces, for [parts] *)
  mutable latest_start : int;  (* max start ever registered; min_int = none *)
}

let create () =
  {
    slope = 0;
    const = 0;
    active = Hashtbl.create 8;
    run_b = 0;
    run_c = 0;
    run_s = 0;
    latest_start = min_int;
  }

let on_start t ~key ~start =
  if Hashtbl.mem t.active key then
    invalid_arg "Tracker.on_start: duplicate active key";
  Hashtbl.add t.active key start;
  t.run_b <- t.run_b + 1 - (2 * start);
  t.run_c <- t.run_c + (start * (start - 1));
  t.run_s <- t.run_s + start;
  if start > t.latest_start then t.latest_start <- start

(* Drop a running piece's terms from the polynomial. *)
let retract t start =
  t.run_b <- t.run_b - 1 + (2 * start);
  t.run_c <- t.run_c - (start * (start - 1));
  t.run_s <- t.run_s - start

let on_complete t ~key ~size =
  match Hashtbl.find t.active key with
  | exception Not_found -> invalid_arg "Tracker.on_complete: unknown key"
  | start ->
      Hashtbl.remove t.active key;
      retract t start;
      t.slope <- t.slope + size;
      t.const <- t.const - (size * ((2 * start) + size - 1))

let on_abort t ~key =
  match Hashtbl.find t.active key with
  | exception Not_found -> invalid_arg "Tracker.on_abort: unknown key"
  | start ->
      Hashtbl.remove t.active key;
      retract t start

(* value_scaled ~at = a·at² + b·at + c for every [at] at or after the
   latest start.  Exact in wrap-around integers: evaluating the polynomial
   is bit-identical to the direct fold in [value_scaled_fold]. *)
let coeff_a t = Hashtbl.length t.active
let coeff_b t = (2 * t.slope) + t.run_b
let coeff_c t = t.const + t.run_c

let value_scaled t ~at =
  assert (at >= t.latest_start);
  (((coeff_a t * at) + coeff_b t) * at) + coeff_c t

let value t ~at = float_of_int (value_scaled t ~at) /. 2.

(* Σ (at − s) over running pieces = a·at − Σ s. *)
let parts t ~at =
  assert (at >= t.latest_start);
  t.slope + (coeff_a t * at) - t.run_s

let value_scaled_fold t ~at =
  let finished = (2 * t.slope * at) + t.const in
  Hashtbl.fold
    (fun _ start acc ->
      assert (start <= at);
      let run = at - start in
      acc + (run * (run + 1)))
    t.active finished

let parts_fold t ~at =
  Hashtbl.fold
    (fun _ start acc -> acc + Stdlib.max 0 (at - start))
    t.active t.slope

let active_count t = Hashtbl.length t.active
