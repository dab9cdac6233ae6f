(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** One live policy-over-cluster simulation, exposed incrementally.

    {!Driver.run} plays a closed {!Instance.t} to its horizon in one call;
    a session is the same machinery — the real cluster, the exact per-
    organization ψsp trackers, the policy wired into {!Kernel.Engine}'s
    canonical phase order — opened up so that events can also be {e fed} as
    they arrive and the state inspected between events.  The online
    scheduler daemon ({!module:Service} library) is the primary client:
    it feeds socket submissions with {!feed_job}, advances the engine no
    further than what is already final with {!advance_below}, and answers
    ψsp queries from {!psi_scaled}.

    Batch and fed runs are bit-identical: {!Driver.run} is a thin wrapper
    that creates a session with the instance's static job array and calls
    {!run_to_horizon}, and the kernel merges static and pushed streams
    into one canonical event order.  Feeding the same jobs (in release
    order) into an initially-empty session reproduces the batch schedule,
    utilities, and kernel counters exactly — the equivalence the service
    layer's golden tests pin down. *)

type t

val create :
  ?record:bool ->
  ?checkpoints:int list ->
  ?workers:int ->
  ?faults:Faults.Event.timed list ->
  ?endowments:Federation.Event.timed list ->
  ?federated:bool ->
  ?max_restarts:int ->
  instance:Instance.t ->
  rng:Fstats.Rng.t ->
  Algorithms.Policy.maker ->
  t
(** Build the cluster, trackers, policy, and kernel over
    [instance.jobs] (possibly empty — the daemon passes a job-less
    instance and feeds everything dynamically).  Parameters are exactly
    those of {!Driver.run}, with the same defaults and the same
    bit-identity across [workers] counts.

    [endowments] is the static endowment trace (validated against the
    instance's endowment); [federated] forces federated policy
    construction — {!Federation.Mode} raised around the maker so REF/RAND
    build time-varying sub-coalition simulators — even when the static
    trace is empty, which is how the daemon prepares for events fed later
    (default: [endowments <> []]).
    @raise Invalid_argument on an unsorted/out-of-range fault trace or an
    invalid endowment trace. *)

(** {2 Feeding events} *)

val feed_job : t -> Job.t -> unit
(** Push one job, in non-decreasing release order across calls (and not
    before any instant already processed).  [job.index] must be the
    organization's next FIFO rank — {!Instance.make} assigns ranks the
    same way for batch runs. *)

val feed_fault : t -> Faults.Event.timed -> unit
(** Push one fault event, in time order like {!feed_job}. *)

val feed_endow : t -> Federation.Event.timed -> unit
(** Push one endowment event, in time order like {!feed_job}.  The event
    must be valid in the ownership state its predecessors produce
    (pre-check with {!Federation.Event.Ownership.apply} on a copy of
    {!ownership}); an invalid event raises [Invalid_argument] when the
    engine applies it. *)

(** {2 Advancing} *)

val advance_below : t -> time:int -> unit
(** Process every instant with a pending event strictly before [time] and
    stop: instant [time] stays open for same-instant arrivals.  Call with
    the release of each newly fed event, then {!run_to_horizon} at drain —
    the instants processed are exactly those of a closed batch run. *)

val catch_up : t -> bool
(** One bounded slice of the policy's deferred work
    ({!Algorithms.Policy.t.catch_up}); [true] while some remains.  Changes
    no decision, so a caller may run it at any point between feeds. *)

val run_to_horizon : t -> ?on_checkpoint:(at:int -> unit) -> unit -> unit
(** Play every remaining event strictly before the instance horizon
    ({!Kernel.Engine.run} semantics, including checkpoint firing). *)

(** {2 Inspection} *)

val instance : t -> Instance.t
val cluster : t -> Cluster.t
val policy_name : t -> string
val horizon : t -> int

val now : t -> int
(** Last processed instant (0 before any) — the only instant at which
    {!psi_scaled} is exact, because completions between [now] and the next
    event have not been applied yet. *)

val psi_scaled : t -> at:int -> int array
(** [2·ψsp(u)] per organization at [at].  [at] must not precede the latest
    job start (asserted by the tracker); exact only for [at <= now]. *)

val parts_at : t -> at:int -> int array
(** Executed unit parts per organization at [at]. *)

val engine_stats : t -> Kernel.Stats.t
(** The kernel's live counters (no policy internals); not a copy. *)

val stats : t -> Kernel.Stats.t
(** Fresh copy of the kernel counters plus the policy's internal ones
    (REF's sub-coalition simulations), as reported by {!Driver.run}. *)

val schedule : t -> Schedule.t
(** @raise Invalid_argument unless created with [record:true]. *)

val wasted_total : t -> int
(** Executed-then-discarded unit parts summed over organizations. *)

val ownership : t -> Federation.Event.Ownership.t
(** Live consortium state (k(t), per-machine owner/presence), replayed in
    lockstep with the endowment stream — the source for the [fed.*]
    membership gauges.  Inert (everything present and active) without
    endowment events. *)
