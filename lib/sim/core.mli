(** An out-of-order core: dispatch → issue → in-order retirement, with
    a store buffer, the FSB/FSBC extension, and the imprecise
    store-exception flow of §5.3.

    Consistency modes (Table 2's WC system, plus the SC and PC
    comparison points of §2.3/§3):
    - SC: stores issue to memory when oldest in the ROB and complete
      before retiring (no store buffer) — store faults are precise;
    - PC: retired stores drain FIFO, one outstanding at a time; loads
      issue in order among themselves (conservative TSO);
    - WC: retired stores drain concurrently and coalesce; loads issue
      when their dependencies resolve (same-address order kept).

    On an imprecise store exception the core stops dispatch, waits for
    outstanding drains, routes the store-buffer contents per the
    protocol mode (same-stream: everything to the FSB; split-stream:
    clean stores to memory), flushes the pipeline, and invokes the OS
    hook.  Unretired instructions replay after the handler resumes the
    core.

    {b Issue-scan invariant.}  Each cycle the issue stage scans the ROB
    entries that are not yet complete, oldest first.  The scan is a
    pure function of the ROB, the store buffer, the phase and (for
    waiting [Nop]s) the cycle, and every mutation of these bumps a
    per-core version: retirement, dispatch, a pipeline flush, a return
    to the running phase, each completion callback, each store-buffer
    mutation, and each change the scan itself makes.  A scan that would
    start from the same version as the last one, before any [Nop] it
    saw is due, is skipped and repeats that scan's pipeline activity.
    Code that changes anything the scan reads must bump the version,
    or cycle counts change. *)

type env = {
  trace : Ise_core.Contract.event -> unit;
  on_imprecise : int -> unit;
      (** invoked (core id) once the FSB is populated and the pipeline
          is flushed; the handler must eventually call {!resume} *)
  on_precise :
    core:int -> addr:int -> code:Ise_core.Fault.code -> retry:(unit -> unit)
    -> unit;
      (** invoked for faults on loads/AMOs (and SC stores), which are
          precise; the handler resolves and calls [retry] *)
}

type stats = {
  mutable retired : int;
  mutable loads : int;
  mutable stores : int;
  mutable fences : int;
  mutable imprecise_exceptions : int;
  mutable faulting_stores : int;
  mutable precise_exceptions : int;
  mutable drain_uarch_cycles : int;
      (** FSBC drain + pipeline-flush cycles (Figure 5's µarch part) *)
  mutable sb_full_stalls : int;
  mutable rob_full_stalls : int;
  mutable fsb_overflow_stalls : int;
      (** appends that found the FSB full (or chaos backpressure) and
          stalled under [Fsb_stall] *)
  mutable fsb_overflow_drops : int;
      (** records withheld from a full FSB under [Fsb_degrade] and
          re-executed as ordinary stores after resume *)
}

type t

val create :
  Config.t -> Engine.t -> Memsys.t -> env -> id:int ->
  program:Sim_instr.stream -> t

val id : t -> int
val step : t -> bool
(** One cycle; returns whether any pipeline activity happened. *)

val is_done : t -> bool
(** Program exhausted, pipeline and store buffer empty, no handler in
    flight. *)

val is_terminated : t -> bool
val terminate : t -> unit
(** Irrecoverable fault: discard all state and stop the core. *)

val resume : t -> unit
(** OS handler completion: restart dispatch (traces [Resume]). *)

val interrupt : t -> handler_cycles:int -> bool
(** Delivers an asynchronous interrupt: the core pauses for
    [handler_cycles] while retired stores keep draining in the
    background; an imprecise store exception detected meanwhile is
    deferred until the interrupt handler returns (the IE-bit
    serialisation of §5.3).  Returns [false] — the caller should queue
    the delivery — when the core cannot take interrupts (IE set). *)

val fsb : t -> Ise_core.Fsb.t
val stats : t -> stats
val reg : t -> int -> int
(** Architectural register value (committed state). *)

val sb_occupancy_watermark : t -> int
val sb_inflight_watermark : t -> int

(** {1 Chaos hooks}

    Consulted by the FSBC on each append when a fault-injection plane
    is attached ({!Ise_chaos} installs one); absent by default. *)

type chaos_hooks = {
  ch_put_delay : unit -> int;
      (** extra cycles before an FSBC append starts (a slow drain slot) *)
  ch_backpressure : unit -> bool;
      (** transient append-port backpressure: the append retries after a
          short stall.  The plane must bound consecutive [true]s so the
          retry always converges. *)
}

val set_chaos : t -> chaos_hooks option -> unit

val in_exception_drain : t -> bool
(** The core is between DETECT and the pipeline flush: waiting for
    outstanding drains or moving store-buffer contents to the FSB.  An
    early-invoked handler (FSB-overflow stall) polls this to know when
    the PUT stream is complete. *)

val phase_name : t -> string
(** Lower-case phase label for diagnostics and watchdog snapshots. *)

(** {1 Telemetry} *)

val set_telemetry : t -> Ise_telemetry.Sink.t -> unit
(** Registers this core's counters ([core<id>/sb/drained],
    [core<id>/sb/drain_faults], [core<id>/ise/episodes],
    [core<id>/rob/flushes]) and starts emitting trace spans/instants
    for exception episodes.  When never called the core performs no
    telemetry work beyond a single [option] check per site. *)

val sb_occupancy : t -> int
val rob_occupancy : t -> int
(** Instantaneous occupancies, for periodic probes. *)
