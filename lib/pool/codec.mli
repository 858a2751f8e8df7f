(** Length-prefixed message framing for pipe and socket IPC, and the
    sealed payload envelope of every socket message.

    Every message exchanged between the pool supervisor and its forked
    workers — and between the socket daemons ({!Ise_serve} and the
    fabric) and their peers — is one {e frame}: a fixed 10-byte header
    — 4 magic bytes (["ISEP"]), 1 frame-format version byte, 1
    protocol byte, 4 big-endian payload-length bytes — followed by the
    payload.  The header makes stream desynchronisation (a worker
    writing garbage, a partial write cut off by a kill) detectable
    instead of silently corrupting the next message.  The protocol
    byte carries the {e application} protocol version; each socket
    protocol accepts exactly its own.

    There is one frame layout: a frame whose version byte is not
    {!version} is rejected with [Unsupported_version] at that byte,
    before any layout-dependent field is read.

    Payloads come in two kinds:

    - pool pipes carry bare {!marshal}/{!unmarshal} — safe because
      supervisor and workers are forks of one executable image, never
      input from outside the process;
    - sockets carry {!seal}ed payloads ({!write_sealed},
      {!read_sealed}): an MD5 digest of the marshalled value, then the
      value.  {!unseal} checks the digest {e and} the structure of the
      marshal stream, so a corrupted or malformed payload is a typed
      decode failure rather than a crash of its reader.

    What no envelope can check is the {e type}: a structurally valid
    stream of some other value, behind a digest its sender computed,
    still decodes as the caller's type.  Socket peers are therefore
    assumed to be the same executable image — the protocol byte and
    the [Hello] refuse an honest peer of another protocol or version —
    and a peer that deliberately sends well-formed values of the wrong
    type is outside this codec's threat model. *)

val version : int
(** The frame-format version (2), written into every header. *)

val header_bytes : int
(** Size of the fixed frame header (10). *)

val default_max_payload : int
(** Default refusal threshold for claimed payload sizes (64 MiB); a
    length field above it is treated as corruption, not as a request to
    allocate. *)

(** {1 Errors} *)

type error =
  | Bad_magic  (** header does not start with the magic bytes *)
  | Unsupported_version of int
      (** recognised magic, but a frame-format version other than
          {!version} *)
  | Oversized of int  (** claimed payload length exceeds the cap *)
  | Truncated  (** stream ended inside a frame *)

val error_to_string : error -> string

(** {1 Encoding} *)

val encode : ?proto:int -> string -> string
(** [encode payload] is the framed message (header ^ payload).
    [proto] (default 0, range 0..255) is the application-protocol
    byte. *)

(** {1 Streaming decode}

    For the supervisor's non-blocking reads: bytes accumulate in a
    buffer and frames are peeled off the front as they complete. *)

type decoded =
  | Frame of { payload : string; proto : int; consumed : int }
      (** payload, application-protocol byte, and total bytes
          consumed (header + payload) *)
  | Need_more  (** a valid prefix, but the frame is incomplete *)
  | Corrupt of error

val decode : ?max_payload:int -> bytes -> pos:int -> len:int -> decoded
(** Examine [len] bytes starting at [pos].  Never raises; never
    consumes anything on [Need_more] or [Corrupt]. *)

(** {1 Blocking file-descriptor helpers}

    Used by workers and by serve clients, whose lives are simple: read
    one frame, compute, write one frame. *)

val write_frame : ?proto:int -> Unix.file_descr -> string -> unit
(** Writes the whole framed message, looping over partial writes.
    Raises [Unix.Unix_error] (e.g. [EPIPE]) if the peer is gone. *)

val read_frame :
  ?max_payload:int -> Unix.file_descr -> (string, [ `Eof | `Corrupt of error ]) result
(** Blocking read of exactly one frame, discarding the protocol byte.
    [`Eof] only on a clean end-of-stream at a frame boundary; an EOF
    mid-frame is [`Corrupt Truncated]. *)

val read_frame_ext :
  ?max_payload:int ->
  Unix.file_descr ->
  (int * string, [ `Eof | `Corrupt of error ]) result
(** Like {!read_frame} but returns [(proto, payload)]. *)

(** {1 Marshal convenience} *)

val marshal : 'a -> string
val unmarshal : string -> 'a
(** [unmarshal] trusts the payload — only use on frames produced by
    [marshal] in the same executable image (the pool's pipes). *)

val valid_marshal : string -> bool
(** Structural validation of a marshal stream without decoding it.
    Walks the compact extern format with every read bounds-checked and
    cross-checks the header's data length, shared-object count, and
    64-bit word size — the three invariants the runtime's intern loop
    trusts blindly.  A stream that passes cannot crash
    [Marshal.from_string]; one that fails would (or uses opcodes this
    codec never produces, e.g. closures or custom blocks). *)

val unmarshal_opt : string -> 'a option
(** Crash-safe [unmarshal] for untrusted bytes: [None] unless the
    stream passes {!valid_marshal} and decodes cleanly.  Structural
    validity is not integrity — a corrupted stream can still decode to
    a wrong value of the right shape; {!seal} layers a checksum on
    top. *)

(** {1 Sealed socket payloads} *)

val seal : 'a -> string
(** MD5 of the marshalled value, then the marshalled value.  Any
    corruption of a sealed payload decodes as [None] rather than as a
    plausible wrong value. *)

val unseal : string -> 'a option
(** [None] unless the digest matches {e and} the marshal stream passes
    {!unmarshal_opt} — a digest is no defence against a peer that
    computes it over a malformed stream, so the structural check runs
    too.  Never raises, and a malformed stream never reaches
    [Marshal.from_string]; a well-formed stream of another type still
    decodes (see the threat model above). *)

val write_sealed : proto:int -> Unix.file_descr -> 'a -> unit
(** [write_frame ~proto fd (seal v)]. *)

val read_sealed :
  ?max_payload:int ->
  proto:int ->
  peer:string ->
  Unix.file_descr ->
  ('a, string) result
(** Blocking read of one sealed frame.  [Error] describes EOF, framing
    corruption, a protocol byte other than [proto], or a payload that
    does not {!unseal}; [peer] names the other end in those messages
    (["daemon"], ["worker"]). *)
