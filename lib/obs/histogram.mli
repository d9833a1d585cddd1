(** Log-bucketed (geometric) histograms.

    Values are counted in buckets whose bounds grow by a factor [gamma],
    so a percentile estimate is within a relative error of [gamma - 1]
    of the exact nearest-rank answer while the histogram itself is a
    fixed few hundred integers — mergeable, constant-memory, and never
    re-sorted.  Count, sum, mean, min and max are tracked exactly.

    This is the one percentile implementation in the tree: the server's
    latency report and the metrics registry's histogram exposition are
    both built on it. *)

type t

val create : ?gamma:float -> ?floor:float -> ?ceiling:float -> unit -> t
(** [gamma] (default 1.05) is the bucket growth factor and the relative
    error bound; [floor] (default 1e-9) and [ceiling] (default 1e12)
    bound the resolvable range — values outside are clamped into the
    first/last bucket (exact min/max still remember them).
    @raise Invalid_argument unless [gamma > 1.] and [0 < floor < ceiling]. *)

val observe : t -> float -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float

val min_value : t -> float
(** Exact smallest observation; [0.] when empty. *)

val max_value : t -> float
(** Exact largest observation; [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [[0, 1]]: the upper bound of the bucket
    holding the nearest-rank observation, clamped into
    [[min_value, max_value]] (so [percentile t 0. = min_value],
    [percentile t 1. = max_value], and estimates are monotone in [p]).
    [0.] when empty. *)

val gamma : t -> float

val reset : t -> unit

val merge_into : into:t -> t -> unit
(** Add [t]'s counts into [into].
    @raise Invalid_argument if the histograms were created with different
    shapes. *)

val nonempty_buckets : t -> (float * int) list
(** [(upper_bound, count)] for each non-empty bucket, bounds increasing —
    what a Prometheus cumulative [_bucket] exposition needs. *)
