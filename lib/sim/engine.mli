(** Discrete-event scheduler.

    The machine advances a global cycle counter; components schedule
    callbacks at absolute or relative cycles (memory responses, FSBC
    drain completions, OS handler phases).  Events scheduled for the
    same cycle fire in scheduling order, keeping runs deterministic. *)

type t

val create : unit -> t
val now : t -> int

val schedule_at : t -> int -> (unit -> unit) -> unit
(** @raise Invalid_argument if the cycle is in the past. *)

val schedule_in : t -> int -> (unit -> unit) -> unit

val run_due : t -> bool
(** Runs every event due at or before the current cycle; returns
    whether anything ran. *)

val advance : t -> unit
(** Moves to the next cycle. *)

val skip_to_next_event : t -> bool
(** Fast-forwards the clock to the next scheduled event when all
    components are idle; returns whether time moved. *)

val pending : t -> int
