(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** A set of what-if coalition schedules (Prop. 3.4) stepped in global
    event order: the one engine under REF (Fig. 1/3, every proper
    sub-coalition) and the generic Fig. 1 REF (recorded schedules).  The
    set owns the {!Coalition_sim}s, the routing of releases, faults and
    endowments to them, the event heap and the per-instant staging; each
    policy supplies only its selection rule and reads the values it needs.
    RAND (Fig. 6, the sampled prefix coalitions) uses the slots and the
    routing only: its sims schedule FIFO and read no other sim, so it
    steps each one on its own, when a value read needs it ({!Rand}).

    The simulators live in dense slots [0 .. length − 1].  A min-heap of
    [(time, slot)] entries holds a lower bound on every simulator's next
    event; {!advance_to} gathers the slots with an event at each instant,
    drains their arrivals/completions, and runs their scheduling rounds
    size-ascending (Fig. 1's [for s ← 1 to ‖C‖]).  A simulator with no
    event at an instant is not stepped: its last round left no free
    machine or no waiting job, and nothing changed since.  With
    [workers > 1] the drain and each size class run as parallel stages on
    {!Core.Domain_pool}; coalitions of equal size never read each other's
    state, so the output is bit-identical for every worker count. *)

type t

val create :
  ?max_restarts:int -> ?record:bool -> ?workers:int -> instance:Instance.t ->
  Shapley.Coalition.t array -> t
(** One simulator per given mask, in the given order.  The empty mask is
    dropped.  So are machine-less masks (their value is
    identically 0), unless the set is federated ({!Federation.Mode.enabled}
    at construction): a lend can endow any coalition later.  [workers]
    caps the domains per stage (1 = strictly sequential; default
    {!Core.Domain_pool.default_workers}).  [max_restarts]
    and [record] are passed to {!Coalition_sim.create}.
    @raise Invalid_argument if a mask is repeated. *)

val length : t -> int
val sim : t -> int -> Coalition_sim.t
val mask : t -> int -> Shapley.Coalition.t

val find : t -> Shapley.Coalition.t -> int
(** The slot simulating a mask, or [-1] if none does. *)

val federated : t -> bool

(** {2 Event routing} *)

val add_release : t -> Job.t -> unit
(** Hand the job to every simulator whose coalition contains its owner. *)

val add_fault : t -> Faults.Event.timed -> unit
(** Hand the fault (global machine id) to every simulator that can host the
    machine: those containing its owner, or every simulator when federated
    (ownership moves, so each simulator's own ownership state decides). *)

val add_endow : t -> Federation.Event.timed -> unit
(** Hand the endowment event to every simulator; a no-op on a static set. *)

(** {2 Stepping} *)

val advance_to :
  ?before_contested:(time:int -> unit) ->
  t -> time:int -> select:(Coalition_sim.t -> time:int -> int) -> unit
(** Process every simulator event at instants [<= time], in time order.
    At each instant where some stepped simulator has a free machine, the
    rounds run size-ascending with [select] as every simulator's rule;
    [before_contested] runs first when one of those simulators has two or
    more organizations waiting (a pick that may read coalition values). *)

val stats : t -> Kernel.Stats.t
(** The simulators' kernel counters summed, plus the heap pops. *)
