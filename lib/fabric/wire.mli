(** The fabric wire protocol: supervisor↔worker messages and shard
    cache keys.

    Same stack and discipline as {!Ise_serve.Proto}: versioned
    {!Ise_pool.Codec} frames, [Marshal]ed payloads (safe because
    supervisor and workers are the same [ise] executable image), a
    mandatory {!Hello} handshake, and typed {!Ise_serve.Framed.err_kind}
    error frames for anything malformed.

    {b Versioning.}  v1 (PR 8) payloads are bare marshal; v2 payloads
    carry a leading MD5 digest of the marshalled value, and v2 adds
    {!Ping}/{!Pong} liveness frames and chaos campaigns.  v3 adds the
    observability plane: trace context and a streaming flag on
    {!job}, and unsolicited {!Telemetry} delta-snapshot frames from
    the worker.  {!Hello} and {!Hello_ok} always travel at v1 framing
    ({!hello_proto}) so the handshake itself needs no negotiation;
    each side advertises the highest version it speaks and the
    connection proceeds at the minimum of the two.  A supervisor never
    sends {!Ping} or a context-carrying job (or any other
    higher-version construct) on a connection negotiated below it —
    old workers still speak, they just don't stream.

    A connection carries one campaign: the supervisor sends
    {!Set_spec} once — the full {!campaign} description, from which
    the worker re-derives the test/trial stream — and then streams
    {!Run} jobs that name only shard {e ranges}.  Shipping the spec
    once and ranges thereafter keeps per-shard frames tiny regardless
    of campaign size. *)

open Ise_fuzz

val version : int
(** Highest fabric protocol version this build speaks (3). *)

val min_version : int
(** Lowest version still accepted (1). *)

val hello_proto : int
(** The framing version of Hello/Hello_ok frames (= {!min_version}). *)

(** {1 Campaigns} *)

type campaign =
  | Fuzz of Campaign.spec
  | Chaos of Ise_chaos.Chaos_run.spec

val campaign_count : campaign -> int
(** Tests (fuzz) or trials (chaos) — the unit {!Plan.partition}
    shards. *)

val campaign_seed : campaign -> int

(** {1 Messages} *)

type job = {
  j_shard : int;  (** shard index, echoed back in the result *)
  j_lo : int;  (** global test/trial range [j_lo, j_hi) *)
  j_hi : int;
  j_ctx : (string * string) option;
      (** v3: [(trace_id, dispatch_span_id)] — the worker parents its
          shard span under the supervisor's dispatch span.  [None] on
          connections below v3 or when tracing is off *)
  j_stream : bool;
      (** v3: ask the worker to follow Shard_done / Pong with a
          {!Telemetry} delta-snapshot.  Never set below v3 *)
}

val plain_job : shard:int -> lo:int -> hi:int -> job
(** A job with no observability fields set — what a v1/v2 supervisor
    would have sent. *)

type request =
  | Hello of { proto : int; git_rev : string }
      (** mandatory first request of every connection; [proto] is the
          highest version the supervisor speaks *)
  | Set_spec of campaign  (** the campaign; must precede any {!Run} *)
  | Run of job
  | Ping of int
      (** v2 liveness probe; the worker echoes the token in {!Pong}.
          Sent only on connections negotiated at ≥ 2 *)
  | Worker_stats_req
  | Shutdown  (** ask the worker to drain and exit *)

type shard_payload =
  | Fuzz_raw of Campaign.raw_failure list  (** in global check order *)
  | Chaos_reports of Ise_chaos.Chaos_run.report list
      (** in global trial order *)

type shard_result = {
  sr_shard : int;
  sr_lo : int;
  sr_hi : int;
  sr_payload : shard_payload;
}

type worker_stats = {
  ws_pid : int;
  ws_proto : int;  (** highest version the worker speaks *)
  ws_shards_run : int;
  ws_pings : int;  (** pings answered *)
  ws_uptime_s : float;
}

type telemetry_update = {
  tu_pid : int;  (** sender's pid, for per-worker attribution *)
  tu_seq : int;  (** per-worker monotonic sequence number *)
  tu_metrics : Ise_telemetry.Registry.drained;
      (** delta since the worker's previous drain *)
}

type response =
  | Hello_ok of { proto : int; git_rev : string; pid : int }
      (** [proto] is the negotiated version: min(worker's, peer's) *)
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
      (** the shard's checks raised or its pool lost workers; the
          supervisor re-dispatches *)
  | Worker_stats of worker_stats
  | Telemetry of telemetry_update
      (** v3: unsolicited delta-snapshot, sent after Shard_done/Pong
          when the campaign streams.  Observability-only — the
          supervisor folds it into live aggregates and it never
          touches the result path *)
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string
      (** typed error frame; the worker closes the connection after
          sending one *)

(** {1 Payload envelopes} *)

val encode_payload : proto:int -> 'a -> string
(** At [proto >= 2]: MD5-of-marshal prefix + marshal, so any payload
    corruption is {e guaranteed} to decode as [None] rather than
    silently yielding a plausible wrong value.  At v1: bare marshal. *)

val decode_payload : proto:int -> string -> 'a option

(** {1 Framed I/O} *)

val write_request : ?proto:int -> Unix.file_descr -> request -> unit
val write_response : ?proto:int -> Unix.file_descr -> response -> unit
(** [proto] defaults to {!version}; pass the connection's negotiated
    version after a handshake. *)

val read_response :
  ?max_payload:int -> Unix.file_descr -> (response, string) result
(** Blocking read of one response frame; the frame's own protocol byte
    selects the payload envelope. *)

(** {1 Shard cache keys} *)

val spec_fp : Campaign.spec -> string
(** Fingerprint of a fuzz campaign description (params, counts,
    variants, seed) — the "what program" half of a shard key. *)

val campaign_fp : campaign -> string

val shard_key : campaign -> lo:int -> hi:int -> string
(** {!Ise_serve.Store} key of one shard's payload: campaign
    fingerprint × (seed, range) under the ["fuzz-shard"] /
    ["chaos-shard"] domain of {!Ise_serve.Cache.config_fp}, so
    {!Ise_serve.Cache.store_abi} and the enumeration-engine epoch
    invalidate shard results exactly like litmus and replay results. *)

val shard_payload_to_string : shard_payload -> string
val shard_payload_of_string : string -> shard_payload option
(** [None] if the payload does not decode (digest-checked). *)
