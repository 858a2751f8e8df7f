(** Fork-based ordered map.

    [map f items] runs [f] over [items] on a pool of worker processes
    ([Unix.fork] + pipe IPC, {!Codec} frames) and returns the outcomes
    {e in input order} — parallelism is an implementation detail, never
    a source of nondeterminism:

    - results are delivered to [on_result] strictly in index order
      (index [k] is reported only once [0..k-1] have been), so streamed
      output is byte-identical whatever the worker count or scheduling;
    - [jobs <= 1] bypasses forking entirely and runs [f] in-process, so
      single-process debugging (breakpoints, printf, backtraces) sees
      exactly the production code path minus the IPC.

    There is one failure policy, because a 500-shard campaign must not
    die at shard 347:

    - {b crash detection and bounded retry}: a worker that dies
      mid-job (signal, [exit], OOM kill) is reaped and respawned, and
      the job is retried up to 2 times, after a 0.05 s backoff that
      doubles per attempt;
    - {b failure isolation}: a job that exhausts its retries — or
      whose [f] raises, which is deterministic and not retried — is
      reported as a [Failed] outcome; the rest of the batch completes;
    - {b graceful drain on SIGINT}: no new jobs are dispatched,
      in-flight jobs finish, queued jobs come back as
      [Failed Cancelled], and the partial outcome array is returned
      normally.  A {e second} SIGINT kills the in-flight workers, whose
      jobs come back as [Failed (Crashed _)] — the way to stop a
      wedged job, since jobs have no timeout.

    Jobs and results cross the pipes via [Marshal], which is safe
    because workers are forks of the supervisor (same code image) —
    but it means ['a] and ['r] must not contain closures or custom
    blocks.  [f] itself never crosses a pipe: each worker inherits it
    at fork time.

    {b Persistent pools}: {!create} returns a handle whose workers
    survive across {!run} calls — each worker is forked once (lazily,
    at its first batch) and then blocks between batches waiting for
    the next job frame.  A server issuing many batches pays the fork
    cost once per worker instead of once per batch.  {!map} is the
    one-shot composition [create → run → close]. *)

(** {1 Outcomes} *)

type error =
  | Crashed of string  (** worker died mid-job (description of how) *)
  | Exception of string  (** [f] raised (deterministic; not retried) *)
  | Cancelled  (** never dispatched: SIGINT drain *)

val error_to_string : error -> string

type 'r outcome = Done of 'r | Failed of error

type stats = {
  st_jobs : int;  (** input size *)
  st_workers : int;  (** pool size actually used *)
  st_dispatched : int;  (** dispatches, including retries *)
  st_completed : int;  (** jobs that returned a result *)
  st_retried : int;
  st_crashes : int;
  st_cancelled : int;
  st_spawned : int;  (** workers forked during this batch (0 when the
                         pool's persistent workers were all alive) *)
  st_wall_s : float;
}

val zero_stats : stats

(** {1 Sizing} *)

val fork_available : bool
(** False on platforms without [Unix.fork] (Windows); [map] then always
    uses the in-process path. *)

val default_jobs : unit -> int
(** Detected core count ([Domain.recommended_domain_count], falling
    back to the [nproc] utility, falling back to 1). *)

(** {1 Persistent pools} *)

type ('a, 'r) t
(** A persistent pool of workers for jobs of type ['a] producing
    results of type ['r].  Workers are forked lazily at the first
    {!run} and kept alive between batches. *)

val create :
  ?jobs:int ->
  ?telemetry:Ise_telemetry.Sink.t ->
  ?journal_dir:string ->
  ('a -> 'r) ->
  ('a, 'r) t
(** Create a handle; no processes are forked until the first {!run}.
    Parameters are as for {!map} and apply to every batch.  [f] is
    fixed for the pool's lifetime — per-batch inputs must travel in
    the job values. *)

val run :
  ?on_result:(int -> 'r outcome -> unit) ->
  ('a, 'r) t ->
  'a array ->
  'r outcome array * stats
(** Run one batch on the pool, reusing live workers and (re)forking
    only dead or not-yet-started ones ([stats.st_spawned] counts the
    forks this batch caused).  Semantics are exactly {!map}'s: results
    in input order, in-order [on_result] streaming, retries, SIGINT
    drain.  A batch smaller than the pool uses only
    the first [length items] workers; extra live workers stay parked.
    After a SIGINT drain the workers are shut down (the caller is
    abandoning the pool).  Raises [Invalid_argument] on a closed
    pool. *)

val prespawn : ('a, 'r) t -> unit
(** Fork all workers now instead of at the first {!run} — a daemon
    calls this at startup so workers inherit a pristine address space
    (no client connections), and benchmarks call it to keep fork cost
    out of the measured region.  No-op on single-job pools, platforms
    without fork, and already-live workers. *)

val close : ('a, 'r) t -> unit
(** Shut the workers down (EOF on the job pipe, then reap) and remove
    their journals.  Idempotent. *)

val with_pool :
  ?jobs:int ->
  ?telemetry:Ise_telemetry.Sink.t ->
  ?journal_dir:string ->
  ('a -> 'r) ->
  (('a, 'r) t -> 'b) ->
  'b
(** [with_pool … f k] = [create … f] passed to [k], closed on the way
    out (also on exception). *)

val alive_workers : ('a, 'r) t -> int
(** Number of currently live (forked, not shut down) workers —
    observability for tests and telemetry. *)

(** {1 Running} *)

val map :
  ?jobs:int ->
  ?telemetry:Ise_telemetry.Sink.t ->
  ?on_result:(int -> 'r outcome -> unit) ->
  ?journal_dir:string ->
  ('a -> 'r) ->
  'a array ->
  'r outcome array * stats
(** [jobs] defaults to {!default_jobs}[ ()] (capped at the number of
    items).

    With [telemetry], maintains [pool/*] counters (jobs, dispatched,
    completed, retried, crashes, workers_spawned), a
    per-worker [pool/worker<k>/job_ms] latency histogram, and one
    [pool]-category trace span per dispatch (tid = worker slot,
    timestamps in µs since the call), visible in Perfetto.

    With [journal_dir] (forked path only), every worker enables the
    process-global {!Ise_obs.Recorder} with a line-flushed spill file
    [journal_dir/worker<slot>-<pid>.jnl]: job code that records into
    the global recorder (e.g. chaos runs mirroring their lifecycle
    events) leaves a decodable journal tail on disk even when the
    worker is killed mid-job.  A worker death that exhausts its
    retries names the journal path in the [Crashed] error; journals of
    cleanly-exited workers are removed. *)
