(** Generic framed Unix-socket server loop, shared by every daemon in
    the tree ([ise serve], [ise fabric worker]).

    A daemon built on this module gets the full connection discipline
    of {!Server} for free: a select loop over a listening socket and
    its accepted connections, per-connection growable receive buffers,
    streaming {!Ise_pool.Codec} frame peeling, and the typed-error
    mapping for everything that can go wrong {e below} the payload —
    oversized frames, unknown Codec versions, garbage bytes, and
    protocol-byte mismatches.  The caller supplies only the payload
    layer: how to decode a request (every socket payload is
    {!Ise_pool.Codec.seal}ed, so that is {!Ise_pool.Codec.unseal}),
    how to render a typed error frame, and what a Hello means
    ({!hello_done}/{!mark_hello} carry the "first request must be
    Hello" state).

    The error callback owns the response: it must send its protocol's
    typed error frame and close the connection (via {!close_conn}), so
    a malformed peer can never desynchronise the stream. *)

(** {1 Typed error kinds}

    One set of kinds for every framed protocol; each daemon renders
    them into its own error response constructor. *)

type err_kind =
  | Unsupported_proto
  | Bad_request  (** well-formed frame, invalid at this point (no Hello…) *)
  | Frame_too_large
  | Malformed_frame  (** framing or payload did not decode *)
  | Internal

val err_name : err_kind -> string

(** {1 Connections} *)

type conn

val fd : conn -> Unix.file_descr
val closed : conn -> bool

val hello_done : conn -> bool
(** Has this connection completed its protocol handshake?  Starts
    [false]; the caller's request handler flips it with
    {!mark_hello}. *)

val mark_hello : conn -> unit

(** {1 The server} *)

type t

val create : socket_path:string -> unit -> t
(** Binds and listens.  An existing socket file is probe-connected
    first: a live daemon answers the probe and [create] raises
    [Unix.Unix_error (EADDRINUSE, _, _)] instead of stealing its
    address; a dead predecessor's socket (connect refused — the owner
    was SIGKILLed before it could unlink) is silently replaced.
    @raise Unix.Unix_error on a live owner or bind/listen failure. *)

val connections : t -> int
(** Accepted over the server's lifetime. *)

val draining : t -> bool
val request_drain : t -> unit

val install_signal_handlers : t -> unit
(** SIGTERM/SIGINT request a drain; SIGPIPE is ignored (a dying client
    must not kill the daemon mid-write).  Draining unlinks the socket,
    so a signalled daemon never leaves a stale file behind. *)

val close_conn : t -> conn -> unit

val serve :
  ?tick:(unit -> unit) ->
  t ->
  proto:int ->
  max_payload:int ->
  error:(conn -> err_kind -> string -> unit) ->
  request:(conn -> string -> unit) ->
  on_drained:(unit -> unit) ->
  unit
(** Run the select loop until {!request_drain}.  Inbound frames must
    carry exactly [proto] in their Codec protocol byte: a daemon
    speaks one protocol version, and any other byte is answered with
    [Unsupported_proto].  [max_payload] bounds one frame.
    [request conn payload] receives each well-framed payload (still
    sealed — the caller decodes, and reports its own decode failures
    through its error path); [error conn kind msg] receives every
    framing-layer failure.
    [tick] runs once per loop iteration (at least every second) — the
    heartbeat/housekeeping hook.  On drain: every connection is
    closed, [on_drained] runs (close pools, log), then the listening
    socket is closed and unlinked. *)
