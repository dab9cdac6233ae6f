(** Contribution-estimator specification: which engine computes the Shapley
    contributions a fair policy schedules by (DESIGN.md §13).

    - [Exact] — Algorithm REF: all 2^k − 1 sub-coalition schedules, the
      exact Shapley value, FPT in k (practical for k ≲ 12).
    - [Fixed n] — Algorithm RAND with [n] sampled joining orders (the
      paper's N = 15 / N = 75 heuristic); cost grows with [n·k], not 2^k,
      so k in the many dozens is live — this is the tier that makes
      [fairsched serve] feasible at k = 50–100.
    - [Sampled {epsilon; confidence}] — RAND with the sample count from the
      Hoeffding bound of Theorem 5.6: with probability ≥ [confidence] every
      estimated contribution is within [epsilon/k · v(grand)] of the exact
      Shapley value (unit-size jobs; a heuristic beyond).

    The textual form ([to_string]/[of_string]) is the estimator's persistent
    interface: it is what `--estimator` parses, what service configs store,
    and what the WAL replays, so it is stable and registry-resolvable. *)

type t =
  | Exact
  | Fixed of int
  | Sampled of { epsilon : float; confidence : float }

val of_string : string -> (t, string) result
(** Accepts ["exact"] (and the alias ["ref"]), ["rand-N"] with positive N,
    and ["rand:EPS,CONF"] with EPS > 0 and 0 < CONF < 1.  Malformed specs
    (["rand:"], ["rand:0.1"], confidence outside (0,1), non-numeric parts)
    return [Error] with a human-readable reason — the CLI maps these to
    exit 2. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on a malformed spec. *)

val to_string : t -> string
(** Round-trips through {!of_string}: ["exact"], ["rand-N"] or
    ["rand:EPS,CONF"]. *)

val algorithm_name : t -> string
(** The {!Registry}-resolvable algorithm name: ["ref"] for [Exact],
    otherwise {!to_string}. *)

val sample_count : t -> players:int -> int option
(** Resolved number of sampled orders ([None] for [Exact]); for [Sampled]
    this is Theorem 5.6's [⌈k²/ε² · ln(k/(1−λ))⌉], which gets large fast —
    surface it to the user before launching a run. *)

val maker : ?workers:int -> t -> Policy.maker
(** The policy implementing the spec: {!Reference.make} for [Exact] (where
    [workers] applies), {!Rand.rand} / {!Rand.rand_with_guarantee}
    otherwise.  A [Sampled] policy is renamed to the stable spec string so
    WAL replay resolves it back to the same estimator. *)
