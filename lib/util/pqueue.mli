(** Minimum priority queue keyed by integer priority (binary heap).

    Drives the discrete-event simulation engine: events are ordered by
    firing time, with a monotonically increasing sequence number
    breaking ties so same-cycle events fire in insertion order
    (deterministic simulation). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q prio v] inserts [v] with priority [prio]. *)

val pop : 'a t -> (int * 'a) option
(** Removes the minimum-priority element; FIFO among equals. *)

val min_prio : 'a t -> int
(** The minimum priority, without allocating.
    @raise Invalid_argument when empty. *)

val pop_value : 'a t -> 'a
(** [pop] without the option and pair: the event loop's hot path.
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
