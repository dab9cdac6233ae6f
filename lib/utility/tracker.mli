(** Incremental ψsp accounting for one stream of job pieces.

    Recomputing ψsp from the full schedule at every scheduling event is
    O(jobs so far); this tracker splits ψsp(t) into a closed form:

    - a completed piece [(s,p)] contributes [p·t − p(2s+p−1)/2]: linear in
      [t], so finished jobs collapse into two accumulated coefficients;
    - a piece still running at [t] contributes the triangular number
      [(t−s)(t−s+1)/2] = [(t² + t·(1−2s) + s(s−1))/2], so the running
      pieces collapse into three sums kept up to date by every state
      change.

    Between two state changes ψsp is therefore an exact integer polynomial
    in [t] whose coefficients ({!coeff_a}, {!coeff_b}, {!coeff_c}) are read
    in O(1) without allocating; {!value_scaled} and {!parts} evaluate it.
    {!value_scaled_fold} and {!parts_fold} fold over the running pieces
    directly (O(active jobs)): they are the independent computation the
    polynomial is tested against.

    One tracker instance serves one organization in one (coalition)
    schedule.  The same structure also tracks the *contribution* estimate of
    DIRECTCONTR, keyed by machine owner instead of job owner: the tracker is
    agnostic about whose pieces it aggregates.

    All values are 2×-scaled exact integers, like {!Psp}. *)

type t

val create : unit -> t

val on_start : t -> key:int -> start:int -> unit
(** Register a piece starting at [start].  [key] must be unique among the
    currently active pieces of this tracker (use the job's per-organization
    FIFO index, or any per-stream serial). *)

val on_complete : t -> key:int -> size:int -> unit
(** Declare the piece registered under [key] completed with total length
    [size] (known only now — non-clairvoyance).
    @raise Invalid_argument if [key] is not active. *)

val on_abort : t -> key:int -> unit
(** Retract the piece registered under [key] without crediting anything: the
    machine failed, the work is lost, and — crucially for strategy-proofness
    (Theorem 4.1) — killed parts must not count toward ψsp, or failures
    would let an organization inflate its utility with work that never
    completed.  The piece simply disappears from the accounting, as if it
    had never started.  @raise Invalid_argument if [key] is not active. *)

val value_scaled : t -> at:int -> int
(** [2·ψsp] of everything seen so far, evaluated at [at]: the polynomial
    [a·at² + b·at + c], O(1) and allocation-free.  [at] must be at or after
    the latest [on_start] (values of running jobs would otherwise be
    miscounted); this is asserted. *)

val value : t -> at:int -> float

val parts : t -> at:int -> int
(** Executed unit parts before [at] (the derivative of ψsp, and the paper's
    [finUt]/[finCon] counters): [slope + a·at − Σ start] over the running
    pieces, O(1) and allocation-free.  Same precondition as
    {!value_scaled}, asserted. *)

val value_scaled_fold : t -> at:int -> int
(** {!value_scaled} computed by folding over the running pieces,
    O(active jobs): the reference the polynomial is tested against. *)

val parts_fold : t -> at:int -> int
(** {!parts} computed by folding over the running pieces (a piece starting
    after [at] counts 0), O(active jobs): the test reference. *)

val active_count : t -> int

val coeff_a : t -> int
val coeff_b : t -> int
val coeff_c : t -> int
(** [a], [b], [c] such that [value_scaled ~at = a·at² + b·at + c] for every
    [at] at or after the latest start — ψsp between two state changes is an
    exact integer polynomial in time (completed pieces are linear, each
    running piece adds one triangular term).  O(1), allocation-free;
    evaluating the polynomial is bit-identical to {!value_scaled_fold}. *)
