(** Algorithm RAND (Fig. 6): Monte-Carlo estimation of the Shapley
    contributions.

    [Prepare] draws N random joining orders of the organizations; for every
    prefix coalition appearing in an order (de-duplicated) the algorithm
    maintains a simplified greedy schedule (FCFS here — by Proposition 5.4
    any greedy rule yields the same coalition value when all jobs are
    unit-size, which is the regime with the FPRAS guarantee of
    Theorem 5.6).  The contribution estimate of organization [u] is the
    average of [v(prefix ∪ u) − v(prefix)] over the sampled orders, and jobs
    are served by largest (φ̂ − ψ), as in REF.

    For workloads with arbitrary job sizes this is the paper's RAND
    {e heuristic} (evaluated with N = 15 and N = 75 in Tables 1–2).

    The sampled schedules run on the shared {!Coalition_set} engine with
    one worker.  They advance on every decision, but only the ones with an
    event due are stepped; each schedules FIFO and reads no other, so this
    is bit-identical to advancing every one of them. *)

val rand : n:int -> Policy.maker
(** N sampled orders; the policy is named ["rand-N"].  A sampled
    coalition's value is read from its simulator's O(1) polynomial
    ({!Coalition_sim.value_scaled}, DESIGN.md §13). *)

val rand15 : Policy.maker
val rand75 : Policy.maker

val rand_with_guarantee : epsilon:float -> confidence:float -> Policy.maker
(** N from the Hoeffding bound of Theorem 5.6 (can be large: k²/ε²·ln(k/(1−λ))). *)

(** {2 Introspection (for tests)} *)

type internals

val make_with_internals :
  n:int -> Core.Instance.t -> rng:Fstats.Rng.t -> Policy.t * internals
(** {!rand} and a handle on its estimator. *)

val contributions_scaled : internals -> time:int -> float array
(** [2·φ̂(u)] of every organization at [time], from the sampled orders
    (advances the sampled simulators to [time] first). *)
