(** The fabric wire protocol: supervisor↔worker messages and shard
    cache keys.

    Same stack and discipline as {!Ise_serve.Proto}: {!Ise_pool.Codec}
    frames whose protocol byte is {!version}, {!Ise_pool.Codec.seal}ed
    payloads (digest-checked and structurally validated before they
    are unmarshalled), a mandatory {!Hello} handshake, and typed
    {!Ise_serve.Framed.err_kind} error frames for anything malformed.

    {b Versioning.}  One version per build, checked by strict
    equality on every frame's protocol byte, and nowhere else.
    Supervisor and workers are the same [ise] executable image —
    payloads are [Marshal]ed — so there is no older peer to negotiate
    with; a frame of another version is refused with
    [Unsupported_proto].  Liveness ({!Ping}/{!Pong}) and trace
    context are therefore available on every connection.

    A connection carries one campaign: the supervisor sends
    {!Set_spec} once — the full {!campaign} description, from which
    the worker re-derives the test/trial stream — and then streams
    {!Run} jobs that name only shard {e ranges}.  Shipping the spec
    once and ranges thereafter keeps per-shard frames tiny regardless
    of campaign size. *)

open Ise_fuzz

val version : int
(** The fabric protocol version this build speaks (6).  It never
    equals {!Ise_serve.Proto.version}, so a fabric frame sent to a
    serve daemon (or the reverse) is refused by its protocol byte. *)

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
      (** [(trace_id, dispatch_span_id)] — the worker parents its
          shard span under the supervisor's dispatch span.  [None]
          when tracing is off *)
}

val plain_job : shard:int -> lo:int -> hi:int -> job
(** A job with no trace context. *)

type request =
  | Hello of { git_rev : string }
      (** mandatory first request of every connection *)
  | Set_spec of campaign  (** the campaign; must precede any {!Run} *)
  | Run of job
  | Ping of int
      (** liveness probe; the worker echoes the token in {!Pong} *)
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
  ws_shards_run : int;
  ws_pings : int;  (** pings answered *)
  ws_uptime_s : float;
}

type response =
  | Hello_ok of { git_rev : string; pid : int }
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
      (** the shard's checks raised; the supervisor re-dispatches *)
  | Worker_stats of worker_stats
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string
      (** typed error frame; the worker closes the connection after
          sending one *)

(** {1 Framed I/O} *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit
(** One sealed frame at {!version}. *)

val read_response :
  ?max_payload:int -> Unix.file_descr -> (response, string) result
(** Blocking read of one response frame ({!Ise_pool.Codec.read_sealed}
    at {!version}). *)

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
(** [None] if the payload does not {!Ise_pool.Codec.unseal}. *)
