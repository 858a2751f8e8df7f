(** Campaign partitioning and straggler deadlines.

    The partition is the load-balanced contiguous one: shard [i] of
    [N] covers global test indices [[i*count/N, (i+1)*count/N)], so
    shard sizes differ by at most one, the ranges tile [[0, count)] in
    order, and concatenating per-shard results in shard index order
    reproduces global test order — the property the deterministic
    merge rests on. *)

val shard_range : count:int -> shards:int -> int -> int * int
(** [shard_range ~count ~shards i] is shard [i]'s (0-based) global
    range [(lo, hi)]; may be empty when [shards > count].
    @raise Invalid_argument on a bad index or counts. *)

val partition : count:int -> shards:int -> (int * int) array
(** All shard ranges in order, with [shards] clamped to [count] so no
    range is empty ([[||]] when [count = 0]). *)

val parse_shard : string -> (int * int, string) result
(** Parse a CLI ["k/N"] shard spec (1-based, as printed by CI
    matrices) into 0-based [(k-1, n)]. *)

(** {1 Straggler deadlines}

    An exponentially-weighted moving average of observed shard
    wall-clock seconds: the supervisor feeds it every completed shard's
    latency and re-dispatches any shard in flight longer than
    {!deadline}. *)

type ewma

val ewma_create : ?alpha:float -> unit -> ewma
(** [alpha] (default 0.3) weights the newest sample. *)

val observe : ewma -> float -> unit
val mean : ewma -> float
val samples : ewma -> int

val deadline : ?factor:float -> ?floor:float -> ewma -> float
(** [factor] (default 4.0) × the EWMA mean, at least [floor] (default
    0.5 s); [infinity] before the first observation, so nothing is
    ever re-dispatched on zero evidence. *)
