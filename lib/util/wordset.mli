(** A set of non-negative integers (word addresses) emptied in O(1).

    Open addressing over a power-of-two table whose slots carry the
    generation that filled them: {!clear} just starts a new generation,
    so a set that is emptied and refilled on every simulated cycle
    allocates nothing after {!create}.  Backs the per-cycle same-word
    tracking of the core's issue scan and the store buffer's drain
    selection. *)

type t

val create : capacity:int -> t
(** An empty set able to hold [capacity] distinct elements between two
    {!clear}s. *)

val clear : t -> unit

val add : t -> int -> unit
(** @raise Invalid_argument when the set already holds [capacity]
    distinct elements. *)

val mem : t -> int -> bool
