(** Process-wide registry of named counters, gauges, and log-bucketed
    histograms.

    Handles are created once (typically at module initialization) and are
    cheap to update from any domain: every counter and histogram is backed
    by per-domain shards (atomic cells indexed by the calling domain's id)
    that are only merged when a {!snapshot} is taken, so hot-path updates
    never contend on a single cache line across the worker pool.

    Collection is {b off by default}: {!incr}, {!add}, {!set} and
    {!observe} are no-ops (one atomic load and a branch) until
    {!set_enabled}[ true] — instrumentation can therefore live permanently
    in hot loops such as the kernel's scheduling round. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Registration} — find-or-create by name.
    @raise Invalid_argument when the name is already registered as a
    different kind. *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Updates} — no-ops while collection is disabled *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> float -> unit
(** Last write wins (across domains, in an arbitrary race order). *)

val observe : histogram -> float -> unit
(** Record one observation.  Negative and non-finite values clamp to 0. *)

(** {1 Reading} *)

val counter_value : counter -> int
(** Merged over all domain shards. *)

val gauge_value : gauge -> float

type summary = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}
(** Quantiles are upper bounds of the log₂ bucket containing the rank (at
    most 2× the true value); [max] is exact. *)

type value = Counter of int | Gauge of float | Histogram of summary
type snapshot = (string * value) list

val snapshot : unit -> snapshot
(** Every registered metric, merged over domain shards, sorted by name. *)

val to_json : unit -> Json.t
val pp : Format.formatter -> unit -> unit

val reset : unit -> unit
(** Zero every registered metric (registrations and handles stay valid). *)

val clear : histogram -> unit
(** Zero one histogram, leaving every other metric as it is. *)

(** {1 Histogram buckets} — the pure core, exposed for property tests *)

module Hist : sig
  type buckets = int array
  (** [buckets.(0)] counts observations in [\[0, 1)]; [buckets.(b)] for
      [b >= 1] counts [\[2^(b-1), 2^b)]; the top bucket absorbs the
      overflow. *)

  val nbuckets : int
  val create : unit -> buckets
  val bucket_of : float -> int
  val add : buckets -> float -> unit

  val merge : buckets -> buckets -> buckets
  (** Pointwise sum (associative and commutative — exactly how domain
      shards combine). *)

  val count : buckets -> int

  val quantile : buckets -> float -> float
  (** [quantile h q] for [q] in [\[0, 1\]]: the upper bound of the bucket
      holding the observation of rank [⌈q·count⌉] (rank clamped to
      [\[1, count\]]); [0.] when empty.  Monotone in [q]. *)
end
