(** The serve wire protocol: request/response payloads and cache keys.

    Frames are {!Ise_pool.Codec} frames whose protocol byte carries
    {!version}; payloads are {!Ise_pool.Codec.seal}ed values of the
    types below — [Marshal]ed, because daemon and client are the same
    [ise] executable image.  Three guards keep that assumption honest:

    - the Codec protocol byte is checked on {e every} frame before the
      payload is decoded, so a frame from an incompatible peer is
      answered with a typed {!err_kind} frame, never mis-decoded;
    - every payload goes through {!Ise_pool.Codec.unseal} — digest,
      then structural validation of the marshal stream — so a
      corrupted or malformed payload is a [Malformed_frame] error,
      not a crash of the daemon (a well-formed value of another type
      is not detected: peers are the same image, see
      {!Ise_pool.Codec});
    - the first request on a connection must be {!Hello}, carrying the
      client's git revision.

    Cache keys pair {!Ise_litmus.Lit_test.fingerprint} (what program)
    with a configuration fingerprint (how it was run): machine
    configuration, run parameters, {!store_abi}, and the
    enumeration-engine epoch {!Ise_model.Enum.epoch}.  [store_abi]
    must be bumped whenever the {e meaning or rendering} of a stored
    result changes — new summary-line format, new pass criterion,
    simulator semantic fix; the engine epoch is bumped by
    [Ise_model.Enum] itself when the enumerator changes — either bump
    makes stale entries unreachable instead of wrong.  The git
    revision is deliberately {e not} part of the key: rebuilding the
    tree must not empty the cache. *)

open Ise_litmus

val version : int
(** Application-protocol version (5), carried in the Codec protocol
    byte of every frame and checked there only, by strict equality;
    any other version is refused with [Unsupported_proto].  It never
    equals the fabric's
    [Ise_fabric.Wire.version]: the two protocols share frame layout,
    envelope and Hello shape, so the protocol byte is what refuses a
    client that dialled the wrong kind of socket. *)

val store_abi : int
(** Result-store compatibility epoch (see above for the bump rule). *)

(** {1 Run parameters and cache keys} *)

type run_params = {
  seeds : int;
  inject_faults : bool;
  timer_interrupts : bool;
  model : Ise_model.Axiom.model;
}

val default_params : run_params
(** [ise litmus] defaults: 20 seeds, faults injected, no timer, WC. *)

val cfg_of_params : run_params -> Ise_sim.Config.t

val litmus_key : Lit_test.t -> run_params -> string
(** [(test fingerprint, config fingerprint)] joined — the result-store
    key of a litmus run. *)

val litmus_key_at : enum_epoch:int -> Lit_test.t -> run_params -> string
(** {!litmus_key} with an explicit engine epoch in place of
    {!Ise_model.Enum.epoch} — lets the epoch-invalidation test build
    the key a {e previous} engine would have used and prove an
    epoch bump makes old entries miss. *)

val replay_key : Ise_fuzz.Corpus.entry -> seeds:int -> string
(** Store key of a corpus-entry replay: test fingerprint × (variant,
    expectation, seeds, {!store_abi}, engine epoch). *)

(** {1 Cached payload} *)

type litmus_payload = { lp_line : string; lp_pass : bool }
(** What the store holds per litmus run: the canonical
    {!Lit_run.summary_line} rendering and the CLI pass bit
    ([pass && contract_ok]). *)

val litmus_payload_to_string : litmus_payload -> string
val litmus_payload_of_string : string -> litmus_payload option
(** [None] if the payload does not decode
    ({!Ise_pool.Codec.unmarshal_opt}: defence in depth — the store
    checksum already rejects torn entries). *)

val replay_payload_to_string : (unit, string) result -> string
val replay_payload_of_string : string -> (unit, string) result option

(** {1 Requests} *)

type request =
  | Hello of { git_rev : string }
      (** mandatory first request of every connection *)
  | Litmus of { tests : Lit_test.t list; params : run_params }
  | Fuzz_replay of { entry : Ise_fuzz.Corpus.entry; seeds : int }
  | Stats_req
  | Shutdown  (** ask the daemon to drain and exit *)

(** {1 Responses} *)

type litmus_reply = {
  r_line : string;  (** byte-identical to a cold [ise litmus -j 1] line *)
  r_pass : bool;
  r_cached : bool;
}

type store_view = {
  v_mem_hits : int;
  v_disk_hits : int;
  v_misses : int;
  v_writes : int;
  v_corrupt_skipped : int;
  v_mem_evictions : int;
}

type server_stats = {
  ss_pid : int;
  ss_uptime_s : float;
  ss_git_rev : string;
  ss_connections : int;  (** accepted over the daemon's lifetime *)
  ss_requests : int;
  ss_litmus_runs : int;  (** cold runs actually executed *)
  ss_replays : int;  (** cold corpus replays executed *)
  ss_errors : int;  (** typed error frames sent *)
  ss_store : store_view option;  (** [None] when caching is disabled *)
}

type err_kind = Framed.err_kind =
  | Unsupported_proto
  | Bad_request  (** well-formed frame, invalid at this point (no Hello…) *)
  | Frame_too_large
  | Malformed_frame  (** framing or payload did not decode *)
  | Internal
      (** shared with every framed daemon — see {!Framed.err_kind} *)

val err_name : err_kind -> string

type response =
  | Hello_ok of { git_rev : string }
  | Litmus_done of litmus_reply list  (** in request order *)
  | Replay_done of { result : (unit, string) result; cached : bool }
  | Stats of server_stats
  | Shutting_down
  | Error of err_kind * string
      (** typed error frame; the daemon closes the connection after
          sending one *)

(** {1 Framed I/O} *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit

val read_response :
  ?max_payload:int ->
  Unix.file_descr ->
  (response, string) result
(** Blocking read of one response frame; [Error] describes EOF,
    corruption, a protocol-byte mismatch, or a payload that does not
    {!Ise_pool.Codec.unseal}. *)
