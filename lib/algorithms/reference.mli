(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** Algorithm REF (Fig. 1, specialised to ψsp as in Fig. 3): the exponential
    fair reference algorithm.

    REF maintains a full greedy schedule for {e every} non-empty
    sub-coalition of the grand coalition, each built recursively by the same
    rule; at any decision point of coalition [C] it serves the waiting
    organization maximizing [φ(u) − ψ(u)], where the contribution [φ(u)] is
    the Shapley share of [v(C) = Σ ψsp] computed from the current values of
    all sub-coalition schedules (the [UpdateVals] weights
    [(s−1)!(k−s)!/k!]).

    Cost per decision instant is O(k·3^k) plus the bookkeeping of 2^k − 1
    concurrent simulations (Proposition 3.4) — FPT in the number of
    organizations, practical for k ≲ 12.  The sub-coalition simulations
    advance in lockstep, in global event order and size-ascending within an
    instant, exactly like the [for s ← 1 to ‖C‖] loop of Fig. 1.

    The driver's own cluster plays the role of the grand coalition's
    schedule, so the utilities REF is fair about are the real ones.

    {b Engine.}  The advancement engine is event-driven and optionally
    domain-parallel: a global min-heap of (next-event-time, coalition)
    entries replaces the per-instant scan over all 2^k − 1 simulations, and
    within one instant the arrival/completion step and each size class of
    scheduling rounds run as parallel stages over the persistent
    {!Core.Domain_pool} (coalitions of equal size never read each other's
    state, and all coalition values are frozen within an instant).  Results
    are bit-identical for every worker count — parallelism never reorders
    any float accumulation or selection; see DESIGN.md, "Performance
    engineering". *)

val reference : Policy.maker
(** The paper's REF under the name ["ref"]. *)

val banzhaf : Policy.maker
(** The paper's future-work question ("other game-theoretic notions of
    fairness"): the same algorithm with contributions given by the
    {e normalized Banzhaf value} instead of the Shapley value (uniform
    sub-coalition weights, rescaled to the coalition value since Banzhaf is
    not efficient).  Named ["ref-banzhaf"]; the fairness-concept ablation
    measures how far its schedules drift from the Shapley-fair ones. *)

type concept = Shapley_value | Banzhaf_value

val make :
  ?name:string -> ?concept:concept -> ?workers:int -> ?max_restarts:int ->
  unit -> Policy.maker
(** [make ?name ?concept ?workers ()] builds a REF maker.  [workers] caps
    the number of domains the engine may use per stage (1 = strictly
    sequential, never touches the pool); it defaults to the driver's
    domain-local default ({!Core.Domain_pool.default_workers}, i.e.
    [Domain.recommended_domain_count () - 1] unless overridden via
    [Sim.Driver.run ?workers]).  The schedule produced is bit-identical for
    every worker count.

    Between two events of a sub-coalition simulation its value 2·v(t) is
    an exact integer polynomial in [t] whose coefficients the simulation
    keeps up to date, so every sub-coalition value REF reads is one O(1)
    evaluation ({!Coalition_sim.value_scaled}, DESIGN.md §13).

    Machine faults delivered through {!Policy.t.on_fault} are mirrored into
    every sub-coalition simulation containing the machine's owner, so the
    what-if values REF is fair about track the time-varying capacity.
    [max_restarts] bounds resubmissions {e inside} those simulations
    (default unbounded, matching the driver's default). *)

(** {2 Introspection (for tests and the worked examples)} *)

type internals

val make_with_internals :
  ?name:string -> ?concept:concept -> ?workers:int -> ?max_restarts:int ->
  unit -> Instance.t -> rng:Fstats.Rng.t ->
  Policy.t * internals

val contributions_scaled : internals -> view:Policy.view -> time:int -> float array
(** [2·φ(u)] of every organization in the grand coalition, at [time]
    (advances the sub-coalition simulations to [time] first). *)

val coalition_value_scaled : internals -> mask:Shapley.Coalition.t -> time:int -> int
(** [2·v(C)] of a proper sub-coalition's internal schedule at [time]. *)
