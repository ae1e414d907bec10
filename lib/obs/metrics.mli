(** Process-wide metrics registry: named counters, gauges, log-bucketed
    histograms and wall-clock timers.

    Instruments are created once (typically at module initialisation)
    and are safe to record into from any domain — counters and
    histogram buckets are [Atomic]s, gauges use a CAS loop, so there is
    no lock on the hot path.

    Recording is gated on one process-wide flag, {b off by default}:
    with metrics disabled every recording call is a single atomic load
    and an early return, so instrumented code paths stay bit-identical
    and effectively free (the overhead budget for the fully
    instrumented Table I kernel is < 2%, see [test/test_obs.ml]).
    Instrument {e creation} is not gated — a [counter] handle obtained
    while disabled records normally once metrics are enabled. *)

val enabled : unit -> bool

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered instrument (counts, sums, buckets, gauges).
    The registry itself — the set of instrument names — is kept. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create by name; the same name always returns the same
    instrument, whatever module asks. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** {2 Gauges} — last/min/max of a sampled quantity (condition
    estimates, fill-in, pool sizes). *)

type gauge

val gauge : string -> gauge

val set_gauge : gauge -> float -> unit

val gauge_last : gauge -> float
(** [nan] when never set. *)

(** {2 Histograms} — fixed log-scale buckets, 5 per decade from 1e-9 to
    1e3 (62 buckets including the two clamp ends). The layout is fixed
    so snapshots from different runs merge bucket-by-bucket. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk; when metrics are enabled, additionally observe its
    wall-clock duration in seconds. The thunk's exceptions pass
    through untimed. *)

val lap_start : unit -> float
(** Timestamp opening a chain of {!lap} calls ([0.] when disabled). *)

val lap : histogram -> float -> float
(** [lap h t_prev] observes the elapsed time since [t_prev] and returns
    the new timestamp — one clock read per loop iteration, where
    wrapping the body in {!time} would cost two. Disabled: returns
    [t_prev], observes nothing. *)

val lap_mean : histogram -> int -> float -> float
(** [lap_mean h k t_prev] observes [(now − t_prev) / k] — the mean of
    the [k] iterations since [t_prev] — and returns the new timestamp.
    Sampling variant of {!lap} for loops short enough that even one
    clock read per iteration is measurable overhead. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val bucket_count : int
(** Number of buckets ([62]). *)

val bucket_lower_bound : int -> float
(** Inclusive lower bound of bucket [i]; bucket 0 is the underflow
    clamp ([lower bound 0]). *)

(** {2 Export} *)

val snapshot : unit -> Json.t
(** [{"counters": {name: n, …}, "gauges": {name: {last, min, max}, …},
     "histograms": {name: {count, sum, min, max, mean, p50, p90, p99,
     buckets: [[lower_bound, count], …]}, …}}] — histogram [buckets]
    lists only non-empty buckets; quantiles are bucket-resolution
    estimates. *)

val to_text : unit -> string
(** Flat human-readable dump, one instrument per line, sorted by
    name. A gauge not set since creation or the last {!reset} prints
    [(unset)], a histogram without observations [(empty)]. *)
