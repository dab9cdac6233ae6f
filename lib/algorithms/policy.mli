(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** The interface between the simulation driver and a scheduling algorithm.

    The driver owns the grand-coalition cluster and the per-organization ψsp
    trackers; whenever a machine is free and some organization has a waiting
    job it asks the policy which organization's FIFO-front job to start
    (Section 2's definition of an online algorithm: [A(J,t)] returns an
    organization).  Policies are stateful closures created per instance; all
    randomness comes from the provided generator so runs are reproducible.

    The selection convention (see DESIGN.md): policies that compare utilities
    evaluate them "as of [t+1]" — every job started in the current instant
    counts one pending unit part for its owner.  This resolves the
    degeneracy of comparing ψsp at the very instant a job starts (it would
    always be 0) and matches the [+1] bookkeeping in the paper's Figures 6
    and 9. *)

type view = {
  instance : Instance.t;
  cluster : Cluster.t;  (** the real (grand-coalition) pool *)
  trackers : Utility.Tracker.t array;
      (** per-organization ψsp trackers, maintained by the driver *)
}

type t = {
  name : string;
  select : view -> time:int -> int;
      (** Must return an organization with a non-empty waiting queue.  Called
          only when the cluster has both a free machine and a waiting job. *)
  pick_machine : view -> time:int -> org:int -> int option;
      (** Optionally pin the machine for the next start (must be free);
          [None] lets the cluster choose. *)
  on_release : view -> time:int -> Job.t -> unit;
  on_start : view -> time:int -> Schedule.placement -> unit;
  on_complete : view -> time:int -> Cluster.completion -> unit;
  on_kill : view -> time:int -> Cluster.kill -> unit;
      (** A machine failure killed a running job (the driver has already
          updated the cluster and retracted the job's active ψsp piece —
          killed work never counts, Theorem 4.1).  Policies with internal
          per-job state must roll it back here. *)
  on_fault : view -> time:int -> Faults.Event.t -> unit;
      (** A machine went down or came back up (fired after {!on_kill} for
          the casualty, if any).  Policies running internal what-if
          simulations (REF, RAND) mirror the capacity change here. *)
  on_endow : view -> time:int -> Federation.Event.t -> unit;
      (** An endowment event moved consortium membership or machine
          ownership (fired after the driver updated the cluster and
          retracted any killed pieces).  Policies running internal what-if
          simulations broadcast the event to them here, so every coalition
          value tracks the live org set k(t). *)
  stats : (unit -> Kernel.Stats.t) option;
      (** Internal instrumentation of policies that run their own kernels
          (REF's sub-coalition simulations, its event-heap pops); merged
          into the driver's {!Kernel.Stats.t} at the end of a run. *)
  catch_up : unit -> bool;
      (** One bounded slice of work the policy deferred off its decision
          path; [true] while some remains.  RAND steps a sampled sim only
          when a contested decision reads it, and a slice steps lagging
          sims to the latest decision instant; a daemon's shards run
          slices after their acks are out and while idle.  Slices at any
          points between feeds change no decision; {!Sim.Driver.run} never
          calls it.  Default: [fun () -> false]. *)
}

val make :
  name:string ->
  ?pick_machine:(view -> time:int -> org:int -> int option) ->
  ?on_release:(view -> time:int -> Job.t -> unit) ->
  ?on_start:(view -> time:int -> Schedule.placement -> unit) ->
  ?on_complete:(view -> time:int -> Cluster.completion -> unit) ->
  ?on_kill:(view -> time:int -> Cluster.kill -> unit) ->
  ?on_fault:(view -> time:int -> Faults.Event.t -> unit) ->
  ?on_endow:(view -> time:int -> Federation.Event.t -> unit) ->
  ?stats:(unit -> Kernel.Stats.t) ->
  ?catch_up:(unit -> bool) ->
  select:(view -> time:int -> int) ->
  unit ->
  t
(** Build a policy with no-op defaults for the notification hooks. *)

type maker = Instance.t -> rng:Fstats.Rng.t -> t
(** How algorithms are registered: a fresh stateful policy per instance. *)

val utility_plus_pending_scaled :
  view -> pending:Instant.t -> org:int -> time:int -> int
(** [2·ψsp(org, t)] from the driver trackers plus 2 per pending (started
    this instant) job — the standard selection-time utility. *)
