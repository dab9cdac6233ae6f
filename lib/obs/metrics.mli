(** Process-wide registry of named counters, gauges, and log-linear
    histograms.

    Handles are created once (typically at module initialization) and are
    cheap to update from any domain: every counter is backed by per-domain
    shards (atomic cells indexed by the calling domain's id) and every
    histogram by one plain count array per observing domain, all merged
    only when a {!snapshot} is taken, so hot-path updates never contend on
    a single cache line across the worker pool.

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
(** Quantiles are the largest member of the {!Hist} bucket holding the
    rank, clamped to [max]: exact for integer observations below 128,
    otherwise at most 1/64 above the exact nearest-rank value (plus the
    rounding of a fractional observation up to an integer); [max] is
    exact. *)

val summary_codec : summary Json.Codec.obj
(** [{"count":..,"p50":..,"p90":..,"p99":..,"max":..}], the shape of a
    histogram in {!to_json}, in [status] replies and in load reports. *)

type value = Counter of int | Gauge of float | Histogram of summary
type snapshot = (string * value) list

val snapshot : unit -> snapshot
(** Every registered metric, merged over domain shards, sorted by name. *)

val to_json : unit -> Json.t
val pp : Format.formatter -> unit -> unit

val reset : unit -> unit
(** Zero every registered metric (registrations and handles stay valid).
    Meant for quiescent points: an observation racing it may survive. *)

val clear : histogram -> unit
(** Zero one histogram, leaving every other metric as it is (same caveat
    as {!reset}). *)

(** {1 Histogram buckets} — the pure core, exposed for property tests *)

module Hist : sig
  type buckets = int array
  (** An observation [v] is counted at the integer [⌈v⌉] (negatives and
      nan at 0).  [buckets.(b)] counts exactly the integer [b] for
      [b < 128]; above, each power of two [\[2^k, 2^(k+1))] is split
      into 64 equal sub-buckets, so a bucket's members are within 1/64
      of each other.  The top bucket absorbs the overflow. *)

  val nbuckets : int
  val create : unit -> buckets
  val bucket_of : float -> int
  val add : buckets -> float -> unit

  val merge : buckets -> buckets -> buckets
  (** Pointwise sum (associative and commutative — exactly how domain
      shards combine). *)

  val count : buckets -> int

  val quantile : buckets -> float -> float
  (** [quantile h q] for [q] in [\[0, 1\]]: the largest member of the
      bucket holding the observation of rank [⌈q·count⌉] (rank clamped to
      [\[1, count\]]); [0.] when empty.  Monotone in [q]; for integer
      observations never below, and at most 1/64 above, the exact
      nearest-rank value. *)
end
