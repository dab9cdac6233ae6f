(** The simulation kernel: one event-driven engine for every scheduling
    loop in the system.

    Before this module existed, five separate event loops — the
    grand-coalition driver, the per-coalition what-if simulators inside REF
    and RAND, the generic REF engine, and the rigid-jobs extension — each
    re-implemented the same machinery: merging job releases, machine
    faults, and completions into one time-ordered stream; the canonical
    within-instant phase order; and the kill/resubmit/abandon bookkeeping.
    The kernel owns all of it once.  A concrete simulation supplies a
    {!model} — five closures over its own cluster state — and the kernel
    supplies the loop, the event streams, and the instrumentation
    ({!Stats}).

    {b Canonical within-instant order} (DESIGN.md §10): at one instant [t],

    + completions with [finish <= t] (a job finishing at [t] beats a
      failure at [t]);
    + fault events with [time <= t] (a machine down at [t] hosts nothing
      at [t]; one recovering at [t] is usable at [t]);
    + endowment events with [time <= t] (consortium membership and machine
      ownership as of [t] are in force before anything is placed at [t]);
    + job releases with [release <= t];
    + the greedy scheduling round (so a job started at [t] can never be
      killed at [t]: all faults at [t] were already delivered).

    The engine is deliberately agnostic about what a "job", "completion"
    or "machine" is: the uniform, related-speeds, rigid-width and
    slot-preemptive cluster models all drive it through the same five
    closures, which is what gives the extensions fault injection and
    restart budgets without code of their own. *)

(** What applying one fault event did, so the kernel can keep the
    kill/waste/abandon tallies at one choke point. *)
type fault_outcome =
  | Applied  (** a recovery, or a failure that hit an idle/down machine *)
  | Killed of { wasted : int; resubmitted : bool }
      (** a failure killed the hosted job after [wasted] executed parts;
          [resubmitted = false] means the restart budget was exhausted and
          the job was abandoned *)

(** What applying one endowment event did.  A [Leave] can retire several
    machines at once, so the kill effects come aggregated. *)
type endow_outcome = { e_kills : int; e_wasted : int; e_abandoned : int }

val no_endow_effect : endow_outcome
(** All zeroes — the outcome of pure ownership transfers, and the value
    models without a federation layer return unconditionally. *)

(** The cluster model: how one concrete simulation reacts to each phase.
    All closures are called with the instant being processed; the kernel
    guarantees the canonical phase order and monotone time. *)
type 'job model = {
  next_completion : unit -> int;
      (** earliest pending completion time, [max_int] if none *)
  pop_completion : time:int -> bool;
      (** handle one completion with [finish <= time]; [false] if none
          remain (the kernel calls it in a loop) *)
  apply_fault : time:int -> Faults.Event.t -> fault_outcome;
      (** apply one fault event: take the machine down (killing and
          resubmitting/abandoning its job) or bring it back up *)
  apply_endow : time:int -> Federation.Event.t -> endow_outcome;
      (** apply one endowment event: move consortium membership and machine
          ownership (retiring machines kills their jobs like a fault);
          models over a static consortium return {!no_endow_effect} *)
  admit : time:int -> 'job -> unit;  (** enqueue one released job *)
  round : time:int -> int;
      (** run the greedy scheduling round; returns the number of
          placements/decisions made *)
}

type 'job t

val create :
  ?observed:bool ->
  ?faults:Faults.Event.timed list ->
  ?endowments:Federation.Event.timed list ->
  ?machines:int ->
  ?checkpoints:int list ->
  release_time:('job -> int) ->
  'job array ->
  'job t
(** [create ~release_time jobs] builds a kernel over a static,
    release-sorted job array (use [[||]] for purely dynamic feeds, see
    {!push_job}).  [faults] is the static fault trace, sorted on entry;
    when [machines] is given the trace is validated against it
    ({!Faults.Event.validate}) and an invalid trace raises
    [Invalid_argument].  [endowments] is the static endowment trace, sorted
    on entry (validate it against the instance with
    {!Federation.Event.validate} before handing it over — the engine has no
    machine→org map of its own).  [checkpoints] are instants at which
    {!run} fires its [on_checkpoint] callback (clamped to the horizon).

    [observed] (default [true]) lets the engine record its [kernel.*]
    trace spans and its [kernel.round_latency_ns]/[kernel.round_starts]
    histogram samples while {!Obs.Trace}/{!Obs.Metrics} collection is on.
    The what-if coalition sims pass [false]: they are not the live
    schedule, and they step many instants per live one, so their
    work shows only in {!stats} and their owners' counters. *)

val push_job : 'job t -> 'job -> unit
(** Feed a job dynamically (the REF sub-coalition simulators receive their
    members' jobs from the outer loop as they are released).  Jobs must be
    pushed in release order; a release before {!now} is admitted at the
    next processed instant. *)

val push_fault : 'job t -> Faults.Event.timed -> unit
(** Feed a fault event dynamically, in time order. *)

val push_endow : 'job t -> Federation.Event.timed -> unit
(** Feed an endowment event dynamically, in time order. *)

val now : _ t -> int
(** Last processed instant (0 before any). *)

val stats : _ t -> Stats.t
(** The kernel's live instrumentation counters. *)

val next_event_time : 'job t -> 'job model -> int
(** Earliest pending event — release, fault, endowment, or completion —
    clamped to at least {!now} (an event fed late fires at the next
    instant, never in the past); [max_int] when nothing is pending.
    Allocation-free. *)

val process_instant : 'job t -> 'job model -> time:int -> unit
(** Run all five phases at one instant.  @raise Invalid_argument if [time]
    precedes {!now}. *)

val drain_events : 'job t -> 'job model -> time:int -> unit
(** Phases 1–4 only (completions, faults, endowments, releases) — the split
    entry
    point for the staged parallel REF engine, which runs the scheduling
    rounds of its simulations grouped by coalition size ({!run_round}).
    Counts the instant in {!Stats}. *)

val run_round : 'job t -> 'job model -> time:int -> unit
(** Phase 5 only: the scheduling round, counted into {!Stats}. *)

val run :
  'job t ->
  'job model ->
  horizon:int ->
  ?on_checkpoint:(at:int -> unit) ->
  unit ->
  unit
(** The closed-loop driver: process every instant with an event strictly
    before [horizon], firing [on_checkpoint] for each requested checkpoint
    [c] once every event before [c] has been processed, then flush the
    remaining checkpoints at the horizon. *)

val run_below : 'job t -> 'job model -> time:int -> unit
(** Process every instant with a pending event {e strictly} before [time],
    leaving the instant [time] itself untouched — the incremental form used
    by the online service façade: when a submission with release [r]
    arrives (events are fed in time order), everything before [r] is final
    and can be played out, while instant [r] must stay open because more
    events at [r] may still arrive.  Unlike {!advance_to}, {!now} is not
    pushed forward past the last processed instant.  Calling it repeatedly
    with non-decreasing bounds and then {!run} to the horizon processes
    exactly the instants one closed {!run} would have. *)

val advance_to : 'job t -> 'job model -> time:int -> unit
(** The lockstep form used by what-if simulators: process every instant
    with an event at or before [time], then advance {!now} to at least
    [time]. *)
