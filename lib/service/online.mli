(** The incremental engine behind the daemon: {!Sim.Session} plus the
    admission rules an untrusted submission stream needs.

    An [Online.t] is created from a {!Config.t} with an empty job set; the
    server feeds it job submissions and fault events as they arrive over
    the socket.  Admission enforces what a batch {!Core.Instance.make}
    would have enforced structurally — organization in range, positive
    size, releases non-decreasing — plus the online-only constraint that
    time never runs backwards past what the engine has already committed.

    Bit-identity contract: feeding the jobs of a batch instance in release
    order (with {!submit} assigning the FIFO ranks) and then {!drain}ing
    reproduces {!Sim.Driver.run}'s schedule, ψsp vector, and kernel
    counters exactly.  This is what makes WAL replay a complete recovery
    mechanism: the log stores inputs, not state. *)

type t

type error =
  | Bad_org of { org : int; norgs : int }
  | Bad_size of int
  | Bad_release of { release : int; frontier : int }
      (** releases must be non-decreasing across submissions *)
  | Past_horizon of { release : int; horizon : int }
  | Bad_machine of { machine : int; machines : int }
  | Bad_fault_time of { time : int; frontier : int }
  | Bad_endow_time of { time : int; frontier : int }
  | Bad_endow of string
      (** the event violates an ownership precondition (lending a machine
          the org does not own, joining while active, …) *)
  | Not_federated  (** endow feeds need a [federated] config *)
  | Drained  (** the session was already drained; no further feeding *)

val error_to_string : error -> string

val create : Config.t -> t
(** Fresh session over the config's empty instance.  Constructing the
    policy may be expensive (REF enumerates coalitions) — do it once, at
    daemon start. *)

val check_submit : t -> org:int -> size:int -> release:int -> (unit, error) result
(** Validation only — no state change.  The server calls this before
    writing the submission to the WAL, so the log never contains a record
    that {!submit} would reject. *)

val submit :
  t -> org:int -> ?user:int -> size:int -> release:int -> unit ->
  (int, error) result
(** Admit one job: validate, assign the organization's next FIFO rank
    (returned), advance the engine below [release], and feed the job.
    Instant [release] itself stays open so same-instant arrivals land in
    the same kernel phase, exactly as in a batch run. *)

val check_fault : t -> time:int -> Faults.Event.t -> (unit, error) result

val fault : t -> time:int -> Faults.Event.t -> (unit, error) result
(** Admit one fault event (same discipline as {!submit}: validate,
    advance below [time], feed). *)

val check_endow : t -> time:int -> Federation.Event.t -> (unit, error) result
(** Validation only: frontier discipline plus the event's ownership
    preconditions, replayed against a copy of the admission-time
    consortium state — no state change. *)

val endow : t -> time:int -> Federation.Event.t -> (unit, error) result
(** Admit one endowment event: validate against (and advance) the
    admission-time ownership state, advance the engine below [time], and
    feed the event.  Requires a [federated] config ({!Config.t}). *)

val catch_up : t -> bool
(** One bounded slice of the policy's deferred simulation work
    ({!Sim.Session.catch_up}); [true] while some remains.  The shard runs
    it when idle; it changes no ack and no ψsp. *)

val drain : t -> unit
(** Run every remaining event to the horizon.  Idempotent; after draining,
    further {!submit}/{!fault} calls return [Error Drained]. *)

(** {2 Inspection} *)

val config : t -> Config.t
val now : t -> int
(** Last processed instant ({!Sim.Session.now}). *)

val frontier : t -> int
(** Largest admitted release/fault time (0 initially) — the earliest time
    a future submission may carry. *)

val drained : t -> bool
val submitted : t -> int
(** Jobs admitted so far. *)

val faults_fed : t -> int
val endows_fed : t -> int

val ownership : t -> Federation.Event.Ownership.t
(** The admission-time consortium state: every admitted endow event has
    been applied (even if the engine has not yet processed its instant).
    Feeds the live membership gauges. *)

val psi_scaled : t -> int array
(** [2·ψsp(u)] per organization at {!now} — the last instant at which the
    value is exact. *)

val parts : t -> int array
val queue_depths : t -> int array
(** Waiting (released, unstarted) jobs per organization. *)

val stats : t -> Kernel.Stats.t
(** Kernel + policy counters, as {!Sim.Driver.run} reports them. *)

val schedule : t -> Core.Schedule.t
(** Placements so far (sessions are created with [record:true]). *)

val session : t -> Sim.Session.t
(** Escape hatch for the equivalence tests. *)
