(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

let piece_scaled ~start ~size ~at =
  if size < 0 then invalid_arg "Psp.piece_scaled: negative size";
  if start >= at || size = 0 then 0
  else
    let last = Stdlib.min (start + size - 1) (at - 1) in
    let parts = last - start + 1 in
    (* Σ_{i=start}^{last} 2(at − i) = parts · (2·at − start − last) *)
    parts * ((2 * at) - start - last)

let piece ~start ~size ~at = float_of_int (piece_scaled ~start ~size ~at) /. 2.

let of_pieces_scaled pieces ~at =
  List.fold_left
    (fun acc (start, size) -> acc + piece_scaled ~start ~size ~at)
    0 pieces

let of_schedule_scaled sched ~org ~at =
  List.fold_left
    (fun acc (p : Schedule.placement) ->
      if p.job.Job.org = org then
        acc + piece_scaled ~start:p.start ~size:p.Schedule.duration ~at
      else acc)
    0
    (Schedule.placements sched)

let of_schedule sched ~org ~at =
  float_of_int (of_schedule_scaled sched ~org ~at) /. 2.

let parts_of_piece ~start ~size ~at =
  if start >= at then 0 else Stdlib.min size (at - start)

let completed_parts_of_org sched ~org ~at =
  List.fold_left
    (fun acc (p : Schedule.placement) ->
      if p.job.Job.org = org then
        acc + parts_of_piece ~start:p.start ~size:p.Schedule.duration ~at
      else acc)
    0
    (Schedule.placements sched)

let flow_time_equiv_constant ~sizes ~count ~releases ~at =
  let p = float_of_int sizes and t = float_of_int at in
  let n = float_of_int count in
  let sum_r = float_of_int (List.fold_left ( + ) 0 releases) in
  (* ψsp(job) + p·flow(job) = pt + p(p+1)/2 − p·r for a completed job, so
     summing over the n jobs gives the constant below.  (The paper's proof
     of Prop. 4.2 prints the Σr term without the factor p — a typo; the
     property test checks this exact identity.) *)
  (n *. ((p *. t) +. (((p *. p) +. p) /. 2.))) -. (p *. sum_r)
