(** Latency histogram with exponential (power-of-two) buckets.

    Values are virtual-time latencies in microseconds. Bucket [i] covers
    [[2^(i-1), 2^i)] microseconds ([i = 0] covers everything below 1us),
    and the last bucket is open-ended, so the full range from sub-
    microsecond to hours fits in a fixed 40-slot array with no allocation
    per sample. Percentiles are approximate: the reported value is the
    upper bound of the bucket where the cumulative count crosses the
    requested quantile (at most 2x the true value, which is plenty for
    per-phase breakdowns). *)

type t

val num_buckets : int

val create : unit -> t

val add : t -> float -> unit
(** Record one latency in microseconds. Negative values clamp to 0. *)

val count : t -> int
val sum_us : t -> float
val mean_us : t -> float
(** 0 when empty. *)

val max_us : t -> float
(** Largest recorded value (exact, not bucketed); 0 when empty. *)

val bucket_index : float -> int
(** The bucket a value falls into (exposed for tests). *)

val percentile_us : t -> float -> float
(** [percentile_us t 0.99]: upper bound of the bucket holding the p-th
    quantile; 0 when empty. For the open-ended last bucket the exact
    maximum is returned instead of infinity. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s samples into [dst]. *)
