(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** A self-contained greedy simulation of one coalition's schedule.

    Algorithm REF (Fig. 1) keeps a schedule σ[C'] for {e every} sub-coalition
    C' of the grand coalition; Algorithm RAND (Fig. 6) keeps simplified
    schedules for the sampled coalitions.  Both are instances of this
    simulator: a cluster restricted to the members' machines, fed only the
    members' jobs, advanced lazily and in event order, with exact ψsp
    tracking per member.

    The simulator does not choose jobs itself: [advance_to] takes the
    selection rule as a callback, so REF can plug its recursive
    Shapley-based rule and RAND a plain FIFO.  The callback may consult
    other simulators' values — {!Coalition_set} steps a set of simulators
    in global event order (size-ascending at equal instants), which keeps
    every sub-coalition's value current when a larger coalition decides. *)

type t

val create :
  ?max_restarts:int ->
  ?record:bool ->
  ?federated:bool ->
  instance:Instance.t ->
  members:Shapley.Coalition.t ->
  unit -> t
(** Machines of the member organizations only; machine owners preserved.
    [max_restarts] bounds per-job resubmissions after kills, as in
    {!Core.Cluster.create}.  [record] (default [false]) keeps the
    placement list for {!schedule}, as the generic Fig. 1 REF needs.

    [federated] (default [false]) prepares the simulator for a live
    endowment stream: it hosts the {e full} global machine universe under
    identity machine ids, with non-members' machines absent, and replays
    events handed over via {!add_endow} against its own copy of the
    consortium ownership state — so the machine set backing the coalition's
    value tracks the {e current} owners, not the static endowment.  A
    federated simulator is valid even for coalitions that own no machine
    right now (a lend can endow them later).
    @raise Invalid_argument if the coalition is empty, or (non-federated)
    owns no machine. *)

val members : t -> Shapley.Coalition.t
val now : t -> int
(** Latest instant this simulator has been advanced to. *)

val stats : t -> Kernel.Stats.t
(** This simulator's kernel counters (instants, completions, rounds, …).
    They are its only instrumentation: a what-if schedule is not the live
    one, so its engine records no [kernel.*] trace span and no round
    histogram sample ({!Kernel.Engine.create}'s [observed]). *)

val add_release : t -> Job.t -> unit
(** Hand over a job owned by a member.  Jobs must arrive in non-decreasing
    release order, and never earlier than [now] (the driver delivers
    releases at their release instants). *)

val add_fault : t -> Faults.Event.timed -> unit
(** Hand over a machine fault, identified by {e global} (grand-coalition)
    machine id; it is translated to this coalition's local machine layout,
    and silently dropped when the machine belongs to a non-member.  Faults
    must arrive in non-decreasing time order, never earlier than [now].
    When processed, a failure kills the hosted job (its ψsp piece is
    retracted — lost work counts for nobody) and resubmits it at the head
    of the owner's queue; a recovery returns the machine to the free
    pool.  @raise Invalid_argument on an out-of-range machine id. *)

val add_endow : t -> Federation.Event.timed -> unit
(** Hand over an endowment event (global machine ids; no translation —
    federated simulators host the full universe).  Events must arrive in
    non-decreasing time order, never earlier than [now]; the kernel applies
    them between faults and releases.  Machines transferred to a member
    appear in the free pool; machines transferred away or retired vanish,
    killing their running job exactly like a fault (the ψsp piece is
    retracted); a member org leaving is suspended, rejoining resumed.
    @raise Invalid_argument if the simulator was not created [~federated]. *)

val next_event_time : t -> int
(** Earliest pending event: the front of the release backlog, the first
    pending fault or endowment, or the first completion — the times at
    which new scheduling decisions can arise; [max_int] when nothing is
    pending.  Allocation-free. *)

val advance_to : t -> time:int -> select:(t -> time:int -> int) -> unit
(** Process all events at instants [<= time] in order: move due backlog jobs
    into the waiting queues, pop completions, and greedily start jobs
    ([select] returns the member organization whose front job to start; it
    is called only while a machine is free and someone waits). *)

val step_releases_and_completions : t -> time:int -> unit
(** {!Coalition_set}'s building block: process arrivals and completions at
    exactly [time] without scheduling (the set runs the scheduling rounds
    of all its coalitions afterwards, size-ascending).  [time] must not
    precede [now]. *)

val schedule_round : t -> time:int -> select:(t -> time:int -> int) -> unit
(** Greedy scheduling at [time]: repeatedly start the [select]ed
    organization's front job while a machine is free and jobs wait. *)

(** {2 Values} *)

val value_scaled : t -> at:int -> int
(** [2·v(C, at)]: twice the coalition's total ψsp.  Between state changes
    it is an exact integer polynomial [a·at² + b·at + c] whose coefficients
    the simulator keeps up to date on every start, completion and kill, so
    this is O(1) and allocation-free.  [at] must be [>= now] and at most
    [now]'s next completion instant for exactness; REF and RAND query at
    the current round instant.  [at] at or after the latest start is
    asserted. *)

val value_scaled_fold : t -> at:int -> int
(** {!value_scaled} as the sum of the members'
    {!Utility.Tracker.value_scaled_fold} (O(members × running jobs)): the
    independent computation the polynomial is tested against. *)

val utility_scaled : t -> org:int -> at:int -> int
(** [2·ψsp(org)] within this coalition's schedule. *)

val pending : t -> Instant.t
(** Started-this-instant counters (the selection convention). *)

val waiting_orgs : t -> int list

val sole_waiting : t -> int
(** {!Core.Cluster.sole_waiting} of this simulator's cluster. *)

val fifo_org : t -> int
(** {!Core.Cluster.fifo_org} of this simulator's cluster: the waiting member
    with the earliest front release (ties: lowest id), allocation-free. *)

val has_waiting : t -> bool
val free_count : t -> int

val front : t -> int -> Job.t option
(** {!Core.Cluster.front} of this simulator's cluster. *)

val schedule : t -> Schedule.t
(** The placements so far, killed attempts excised; empty unless created
    with [~record:true]. *)

(** {2 Standalone values} *)

val fifo_value :
  instance:Instance.t -> members:Shapley.Coalition.t -> at:int -> float
(** [v(C, at)]: the total ψsp of the coalition scheduling all its members'
    jobs of [instance] alone, FIFO (the rule RAND simulates; by Prop. 5.4
    every greedy rule gives the same value on unit-size jobs).  0 for the
    empty coalition and for one owning no machine. *)
