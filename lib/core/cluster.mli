(** Mutable single-pool simulator: the shared machinery of every scheduling
    algorithm in this reproduction.

    A cluster owns a set of machines (each attributed to a contributing
    organization), a per-organization FIFO queue of released-but-unstarted
    jobs, and a completion heap of running jobs.  It performs no scheduling
    decisions itself: a policy chooses the organization (and optionally the
    machine) and calls {!start_front}.  The grand-coalition driver
    ({!module:Sim} library) and the per-coalition simulators inside REF and
    RAND all instantiate this module, which is what makes the exponential
    algorithm tractable to express.

    Non-clairvoyance is structural: the only way a policy learns a job's
    processing time is a completion event. *)

type t

type completion = {
  job : Job.t;
  start : int;
  finish : int;  (** [start + size] *)
  machine : int;
}

type kill = {
  k_job : Job.t;
  k_start : int;  (** when the killed attempt had started *)
  k_machine : int;
  k_wasted : int;  (** executed-then-lost parts: [kill time − k_start] *)
  k_resubmitted : bool;
      (** [false] when the restart budget is exhausted (job abandoned) *)
}

val create :
  ?record:bool ->
  ?speeds:float array ->
  ?max_restarts:int ->
  machine_owners:int array ->
  norgs:int ->
  unit ->
  t
(** [machine_owners.(i)] is the organization owning machine [i]; [norgs] is
    the number of organizations indexable by jobs (queues are allocated for
    all of them even if they own no machine here — a coalition simulator
    never receives jobs of non-members).  [record] keeps the full placement
    list for later analysis (default [false]).  [speeds] enables the
    related-machines extension: a job of size [p] occupies machine [i] for
    [ceil (p / speeds.(i))] time units (default: all 1.0).  [max_restarts]
    bounds how many times a job killed by machine failures is resubmitted
    before being abandoned (default: unbounded).
    @raise Invalid_argument if [max_restarts < 0]. *)

val machines : t -> int
val norgs : t -> int
val machine_owner : t -> int -> int
val machine_speed : t -> int -> float
val fastest_free_machine : t -> int option
(** Highest-speed free machine (ties: any); [None] when all busy. *)

(** {2 Job flow} *)

val release : t -> Job.t -> unit
(** Enqueue a job (it becomes visible to the policy immediately). *)

val next_completion : t -> int option
(** Finish time of the earliest-running job, if any. *)

val pop_completion_le : t -> int -> completion option
(** Pop one completion with [finish <= bound]; the machine returns to the
    free pool.  Call in a loop to drain all completions up to a time. *)

val free_count : t -> int
val free_machine_ids : t -> int list
(** Snapshot of currently free machine ids (unspecified order, deterministic
    for a given history). *)

val has_waiting : t -> bool
val waiting_orgs : t -> int list
(** Organizations with a non-empty queue, ascending. *)

val sole_waiting : t -> int
(** The only organization with a non-empty queue, or [-1] when none or
    several have one — a forced choice for any selection rule, detected
    without allocating. *)

val fifo_org : t -> int
(** The waiting organization whose front job was released earliest (ties:
    lowest organization id) — the FIFO rule, in one allocation-free scan.
    @raise Invalid_argument if nothing waits. *)

val waiting_count : t -> int -> int
(** Queue length of one organization. *)

val front : t -> int -> Job.t option
(** The FIFO-front job of an organization, without removing it. *)

val start_front : t -> org:int -> time:int -> ?machine:int -> unit -> Schedule.placement
(** Starts the front job of [org] at [time] on [machine] (default: an
    arbitrary free machine).  @raise Invalid_argument if the queue is empty,
    no machine is free, or the requested machine is busy. *)

(** {2 Accounting} *)

val running_count : t -> int -> int
(** Currently-running jobs of one organization (used by CURRFAIRSHARE). *)

val completed_work : t -> int -> int
(** Total size of completed jobs of one organization. *)

val placements : t -> Schedule.placement list
(** All placements so far, most recent first; empty unless [record] was
    set.  Killed attempts are excised (see {!fail_machine}); only surviving
    work is listed here. *)

(** {2 Machine faults}

    Jobs are non-preemptible (Section 2), so a machine failure kills the
    job it hosts: the executed prefix is discarded and the job restarts
    from scratch.  The killed job is resubmitted at the {e head} of its
    owner's queue (it keeps its FIFO rank — anything submitted later must
    still wait behind it), unless its restart budget is exhausted, in
    which case it is abandoned. *)

val fail_machine : t -> time:int -> int -> kill option
(** Take machine [m] down at [time].  Returns the kill record if a job was
    running there ([None] if the machine was free or already down).  The
    machine leaves the free pool until {!recover_machine}.  On recording
    clusters the optimistic full-duration placement of the killed attempt
    is replaced by a truncated segment in {!to_schedule}'s killed list
    (dropped when zero-length).  @raise Invalid_argument on a bad machine id or if
    [time] precedes the running job's start. *)

val recover_machine : t -> int -> bool
(** Bring a machine back up (it rejoins the free pool immediately and can
    host a job at the same instant).  Returns [false] if it was already
    up.  @raise Invalid_argument on a bad machine id. *)

val machine_up : t -> int -> bool
val up_count : t -> int
val down_count : t -> int

(** {2 Consortium endowments}

    The federation layer ({!module:Federation}) generalizes the static
    endowment: machines can be retired from the consortium (an org leaves
    and takes them home) and readmitted later, present machines can change
    owner (lending), and a departed organization is {e suspended} — its
    queued jobs stay put but are invisible to scheduling until it rejoins.
    Without endowment events every machine is present, every org active,
    and these operations are never called, so behaviour is bit-identical
    to the static cluster. *)

val retire_machine : t -> time:int -> int -> kill option
(** Remove machine [m] from the consortium at [time].  Like a fault, this
    kills the job it hosts (returned as a kill record, resubmitted under
    the same restart budget); unlike a fault the machine does not return
    on {!recover_machine} — only {!admit_machine} brings it back.  The
    up/down fault state keeps evolving while absent.  Returns [None] if
    already absent.  @raise Invalid_argument on a bad machine id. *)

val admit_machine : t -> org:int -> int -> unit
(** Readmit an absent machine under owner [org]; it joins the free pool
    immediately if it is up.  @raise Invalid_argument if already present
    or on a bad id. *)

val transfer_machine : t -> org:int -> int -> unit
(** Change the current owner of a present machine (lend/reclaim).  The job
    it may be running is unaffected — only future capacity attribution
    moves.  @raise Invalid_argument if absent or on a bad id. *)

val suspend_org : t -> int -> unit
(** Make an organization invisible to scheduling: its queue survives but
    {!waiting_orgs}/{!has_waiting} skip it and {!start_front} refuses it.
    Idempotent. *)

val resume_org : t -> int -> unit
(** Undo {!suspend_org}; queued jobs become schedulable again.  Idempotent. *)

val machine_present : t -> int -> bool
val present_count : t -> int
val org_active : t -> int -> bool
val active_count : t -> int

val killed_count : t -> int
(** Number of kills so far (counted even when not recording). *)

val wasted_work : t -> int -> int
(** Per-organization executed-then-discarded parts (Σ [k_wasted]). *)

val abandoned : t -> Job.t list
(** Jobs dropped after exhausting [max_restarts], in kill order. *)

val abandoned_count : t -> int

val to_schedule : t -> Schedule.t
(** Includes the truncated segments of killed attempts as the schedule's
    killed list.
    @raise Invalid_argument unless created with [record:true]. *)
