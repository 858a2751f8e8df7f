(** Single-host fabric simulation: N "remote" workers as forked
    daemons on local sockets — optionally behind per-worker
    {!Netchaos} fault-injecting proxies.

    This is what keeps the fabric tier-1 testable — the supervisor,
    wire protocol, straggler re-dispatch, heartbeat/rejoin, and merge
    run exactly as they would across machines, but every worker is a
    local child whose pid the test can {!kill} mid-campaign (and
    {!restart}, to exercise rejoin). *)

val available : bool
(** [Ise_pool.Pool.fork_available] — tests and bench skip the
    simulation where fork does not exist. *)

type t

val start :
  ?log:(string -> unit) ->
  ?netchaos:int * Netchaos.profile ->
  ?trace_dir:string ->
  dir:string ->
  n:int ->
  unit ->
  t
(** Fork [n] worker daemons listening on [dir/worker<k>.sock], each
    one checking process.  With [netchaos = (seed, profile)], each worker
    instead listens on [dir/worker<k>.real.sock] and a forked
    {!Netchaos.spawn} proxy serves [dir/worker<k>.sock] in front of
    it, seeded deterministically per worker ([seed + 7919·k]).  With
    [trace_dir], worker [k] writes its shard-span trace to
    [trace_dir/worker<k>.trace.json] (created if missing) after every
    traced shard — readable even after {!stop}'s SIGKILL.  The
    children [_exit]; the parent keeps their pids.
    @raise Invalid_argument when fork is unavailable or [n <= 0]. *)

val sockets : t -> string list
(** In worker order — feed straight into
    {!Supervisor.config.workers}.  With netchaos these are the proxy
    sockets: every supervisor byte crosses the hostile wire. *)

val pids : t -> int list
(** Worker pids (not proxies), current after any {!restart}. *)

val kill : t -> int -> unit
(** SIGKILL worker [k] and reap it — the kill-mid-campaign test. *)

val restart : t -> int -> unit
(** Fork a fresh worker [k] on its original socket and block (≤ 5 s)
    until it accepts.  The predecessor was SIGKILLed, so the fresh
    daemon probe-replaces the stale socket file on startup; a
    supervisor's rejoin probe then re-admits it mid-campaign. *)

val stop : t -> unit
(** SIGTERM+SIGKILL and reap every worker, stop the proxies, remove
    the sockets.  Idempotent with {!kill}. *)
