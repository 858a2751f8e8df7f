(** Metrics registry: named counters, gauges, and histograms.

    Names are hierarchical slash-separated paths
    ([core0/fsb/occupancy], [mem/l1/miss_rate], ...).  Registration is
    idempotent — asking for an existing name of the same kind returns
    the same handle, so instrumentation sites can register lazily —
    but re-registering a name as a different kind raises
    [Invalid_argument] (a name collision is a bug, not data).

    Handles ([counter], [gauge], histogram) are plain mutable cells:
    updating one is a single store, no hashing, no allocation — cheap
    enough for per-event instrumentation on simulator hot paths.
    Histograms reuse {!Ise_util.Stats}. *)

type t

type counter
type gauge

val create : unit -> t

(** {1 Registration} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> Ise_util.Stats.t

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** For end-of-run absolute values mirrored from component stats. *)

val value : counter -> int
val set : gauge -> float -> unit
val get : gauge -> float

(** {1 Snapshot} *)

type summary = {
  s_count : int;
  s_mean : float;
  s_min : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

type snap =
  | Snap_counter of int
  | Snap_gauge of float
  | Snap_histogram of summary

val snapshot : t -> (string * snap) list
(** Point-in-time view, sorted by name (hierarchical paths group
    naturally). *)

val reset : t -> unit
(** Zeroes counters and gauges and clears histograms; handles stay
    valid. *)

(** {1 Emitters} *)

val pp_text : Format.formatter -> t -> unit
val to_csv : t -> string
(** Header [name,kind,value,count,mean,min,p50,p90,p99,max]; counters
    and gauges leave the histogram columns empty. *)

val to_json : t -> Json.t
