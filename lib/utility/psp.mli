(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** The strategy-proof utility function ψsp (Theorem 4.1, Equation 3).

    For a schedule σ and time t:

    ψsp(σ, t) = Σ_{(s,p) ∈ σ, s ≤ t} min(p, t−s) · (t − (s + min(s+p−1, t−1)) / 2)

    Equivalently: a job is a chain of unit parts, the part executed in slot
    [i] (i.e. during [i, i+1)) is worth [t − i] at time [t]; ψsp is the sum
    over all executed parts.  The paper proves this is the unique (up to
    affine transformation) utility satisfying task anonymity (start times and
    number of tasks) and strategy-resistance: organizations cannot gain by
    merging, splitting, or delaying jobs.

    ψsp takes half-integer values; we compute [2·ψsp] in exact integer
    arithmetic ("scaled" functions) and convert to float only at the
    boundary. *)

val piece_scaled : start:int -> size:int -> at:int -> int
(** [2·ψsp] contribution of a single job piece [(start, size)] at time [at].
    Zero if [start >= at].  Works for running jobs (counts only executed
    parts). *)

val piece : start:int -> size:int -> at:int -> float
(** [piece_scaled / 2]. *)

val of_pieces_scaled : (int * int) list -> at:int -> int
(** [2·ψsp] of a list of [(start, size)] pieces. *)

val of_schedule_scaled : Schedule.t -> org:int -> at:int -> int
(** [2·ψsp] of one organization's jobs in a schedule. *)

val of_schedule : Schedule.t -> org:int -> at:int -> float

val completed_parts_of_org : Schedule.t -> org:int -> at:int -> int
(** Executed unit parts of one organization's jobs before [at]; summed over
    the organizations, the paper's [p_tot] normalizer for the unfairness
    ratio. *)

(** {2 Properties (used by tests and documentation)}

    - Strategy-resistance:
      [piece ~start:s ~size:(p1+p2) = piece ~start:s ~size:p1 +
       piece ~start:(s+p1) ~size:p2] at every [at].
    - Start-time anonymity: delaying a completed piece by one slot costs
      exactly [size].
    - Flow-time link (Prop. 4.2): for equal-size jobs all completed before
      [t], maximizing ψsp minimizes total flow time. *)

val flow_time_equiv_constant : sizes:int -> count:int -> releases:int list -> at:int -> float
(** The constant [‖J‖(pt + (p²+p)/2) − Σ r] of Proposition 4.2, such that
    [ψsp = constant − p · flow_time] for [count] jobs of equal size [sizes]
    all completed before [at]. *)
