(* Shared scheduling vocabulary (Job, Schedule, Cluster). *)
open Core

(** Algorithm REF in full generality (Fig. 1): the fair algorithm for an
    {e arbitrary} utility function ψ, using the [Distance] procedure.

    Where {!Reference} exploits the structure of ψsp (incremental trackers,
    [argmax (φ − ψ)] selection), this implementation follows the paper's
    pseudo-code literally: every sub-coalition keeps a {e recorded} schedule;
    [UpdateVals] recomputes ψ, v and the Shapley contributions φ from those
    schedules with the [(s−1)!(k−s)!/k!] weights at each decision instant;
    [SelectAndSchedule] picks the organization minimizing

      Distance(C, u, t) = |φ_u + Δψ/‖C‖ − ψ_u − Δψ|
                          + Σ_{u' ≠ u} |φ_{u'} + Δψ/‖C‖ − ψ_{u'}|

    where Δψ is the utility increase from tentatively starting u's front job
    (evaluated at [t+1] — at [t] a just-started job has no executed part and
    the pseudo-code's comparison would be degenerate; see DESIGN.md).

    Cost is O(3^k · |σ|) per decision instant: strictly a reference
    implementation for small instances, worked examples, and the
    utility-function ablation.  For production use with ψsp, use
    {!Reference}, which this module is property-tested against.

    The recorded sub-coalition schedules run on the same {!Coalition_set}
    engine as {!Reference} (related machine speeds, faults and endowment
    churn included); only the selection rule above is this module's. *)

val make :
  utility:Utility.Functions.t -> ?name:string -> ?workers:int ->
  ?max_restarts:int -> unit -> Policy.maker
(** The driver must run with [record:true] (the default) — the grand
    coalition's utilities are evaluated on the recorded schedule.
    [workers] caps the domains used for the per-instant parallel stages
    (1 = strictly sequential); defaults to the driver's domain-local
    default ({!Core.Domain_pool.default_workers}).  Output is bit-identical
    for every worker count.  Machine faults and endowment events are
    mirrored into the sub-coalition schedules; killed attempts are excised
    from the recorded schedules, so the generic ψ evaluation never counts
    lost work.  [max_restarts] bounds resubmissions inside those
    simulations (default unbounded). *)

val make_with :
  (Instance.t -> Utility.Functions.t) -> ?name:string -> ?workers:int ->
  ?max_restarts:int -> unit -> Policy.maker
(** Like {!make} for utilities that need the instance (e.g.
    {!Utility.Functions.neg_flow_time} needs the job list). *)

val ref_psp : Policy.maker
(** [make ~utility:Utility.Functions.psp ()] under the name
    ["ref-generic-psp"]. *)
