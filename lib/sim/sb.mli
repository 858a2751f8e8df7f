(** The store buffer: retired stores awaiting completion (§2.2).

    The reordering source of the whole study.  Under PC the buffer
    drains strictly in FIFO order, one outstanding store at a time;
    under WC any waiting entry may drain, several concurrently, and
    same-word stores coalesce.  Same-address ordering is always
    preserved (an entry never drains while an older entry to the same
    word is outstanding), and loads forward from the newest same-word
    entry. *)

type status =
  | Waiting  (** retired, not yet sent to the memory system *)
  | Inflight  (** drain transaction outstanding *)
  | Faulted of Ise_core.Fault.code  (** drain denied: imprecise exception *)

type entry = {
  seq : int;  (** retirement order *)
  e_addr : int;
  mutable e_data : int;
  mutable e_mask : int;
  mutable status : status;
}

type t

val create : capacity:int -> mode:Ise_model.Axiom.model -> t
val capacity : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool
val inflight : t -> int
val has_fault : t -> bool
(** Some entry is [Faulted].  [length], [is_full], [inflight] and
    [has_fault] are O(1). *)

val push : t -> seq:int -> addr:int -> data:int -> mask:int -> bool
(** Inserts (coalescing under WC when a waiting same-word entry
    exists).  Returns [false] when full. *)

val drainable : t -> max_inflight:int -> entry list
(** Entries that may be sent to the memory system this cycle, given
    the consistency mode and the concurrency budget. *)

val mark_inflight : t -> entry -> unit
val complete : t -> entry -> unit
(** Removes a drained entry. *)

val mark_faulted : t -> entry -> Ise_core.Fault.code -> unit

val forward : t -> addr:int -> int option
(** Newest same-word entry's data, if any (store→load forwarding). *)

val take_all : t -> entry list
(** Removes and returns everything, oldest first — the
    exception-drain path. *)

val completed : t -> int
(** Stores drained to memory over the buffer's lifetime. *)

val occupancy_watermark : t -> int
val inflight_watermark : t -> int
