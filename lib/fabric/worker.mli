(** The [ise fabric worker] daemon: executes shard-range jobs for a
    fabric supervisor.

    Built on {!Ise_serve.Framed}, so it has the same connection
    discipline as [ise serve]: Hello-first handshake, typed error
    frames for malformed/oversized/version-skewed traffic,
    SIGTERM/SIGINT drain that unlinks the socket, and stale-socket
    replacement on startup.  A misbehaving supervisor — or a hostile
    wire — can never wedge or crash the worker: every mutated frame
    {!Ise_fabric.Netchaos.Mutate} can produce decodes to a typed
    error, an error frame, or a clean close.

    Protocol: the worker speaks exactly {!Wire.version}.  A frame
    whose protocol byte is any other version is refused with
    [Unsupported_proto], and every request payload is
    {!Ise_pool.Codec.unseal}ed, so a payload that fails its digest or
    its structural check is a [Malformed_frame] error rather than a
    crash (a well-formed value of the wrong type is not detected; see
    {!Ise_pool.Codec}).  {!Wire.Ping} is answered with {!Wire.Pong}.

    Work model: {!Wire.Set_spec} installs the campaign — fuzz
    ({!Ise_fuzz.Campaign.check_range}) or chaos
    ({!Ise_chaos.Chaos_run.check_range}); each {!Wire.Run} job names a
    global unit range, checked in this process.  A worker is one
    checking process: a host runs one worker per core.  A check that
    raises — a range outside the spec's count included — answers
    {!Wire.Shard_failed} naming the exception and leaves the
    connection open, so the supervisor's retry-then-lose policy is
    the only failure policy in a fabric run.  The fuzz test stream is
    regenerated from the spec and memoized per spec fingerprint, so
    only ranges cross the wire.  Raw results go back unshrunk and
    unlogged: shrinking, reporting and merging are the supervisor's
    (deterministic) job. *)

type config = {
  socket_path : string;
  max_payload : int;
  trace_out : string option;
      (** Chrome trace file for this worker's shard spans (wall-clock
          µs domain), rewritten atomically after every traced shard —
          a SIGKILLed worker still leaves its last-completed-shard
          trace for [ise trace stitch].  Spans are only emitted for
          jobs that carry a {!Wire.job.j_ctx}, so the file stays an
          empty skeleton unless the supervisor traces the campaign *)
  log : string -> unit;
}

val default_config : socket_path:string -> config
(** 64 MiB max payload, no trace file, silent. *)

type t

val create : config -> t
(** Binds and listens (replacing a dead predecessor's stale socket,
    refusing to steal a live one). *)

val request_drain : t -> unit
val install_signal_handlers : t -> unit
val stats : t -> Wire.worker_stats

val serve_forever : t -> unit
val run : config -> unit
(** [create] + {!install_signal_handlers} + {!serve_forever}. *)
