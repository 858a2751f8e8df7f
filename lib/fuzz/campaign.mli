(** Differential fuzzing campaigns over the configuration lattice.

    A campaign generates random litmus programs ({!Ise_litmus.Gen}),
    runs each one under a deterministic selection of lattice variants,
    and checks, per §6.3:

    - {b differential}: every outcome the operational machine exhibits
      is allowed by the axiomatic model (observed ⊆ allowed);
    - {b contract}: every run's architectural-interface trace satisfies
      the Table 5 rules (checked inside {!Ise_litmus.Lit_run});
    - {b model-vs-model} (proofs-by-enumeration, §4.6): allowed(SC) ⊆
      allowed(PC) ⊆ allowed(WC); same-stream fault handling preserves
      the base model exactly; split-stream only ever {e adds}
      outcomes.

    Any failure is minimized with {!Shrink} — re-running the failed
    check on every candidate — and recorded as a {!Corpus} artifact, so
    it replays from the file alone.  The whole campaign is a pure
    function of its integer seed. *)

open Ise_model
open Ise_litmus

(** {1 The lattice} *)

type mem_variant = Mem_default | Mem_2x | Mem_skew4x

type variant = {
  v_model : Axiom.model;
  v_protocol : Ise_core.Protocol.mode;
  v_faults : bool;  (** mark every test page faulting (error injection) *)
  v_timer : bool;  (** periodic timer interrupts during runs (§5.3) *)
  v_mem : mem_variant;  (** Table 3 cache/NoC/memory latency variants *)
  v_ordered_drain : bool;
      (** force [sb_max_inflight = 1] (single ordered drain) instead of
          the wide ASO-checkpoint-style concurrent drain *)
  v_chaos : string option;
      (** when set, the variant's check is the chaos-hardened litmus
          run of {!Ise_chaos.Chaos_run.lit_check} under the named
          {!Ise_chaos.Profile}; [None] in every {!all_variants} point *)
}

val all_variants : variant list
(** The swept lattice: SC/PC/WC × same/split stream × fault injection ×
    timer interrupts × drain width, plus per-model memory-latency
    variants.  Meaningless corners (split-stream without fault
    injection; drain width under PC, whose protocol already forces a
    single drain) are pruned. *)

val variant_name : variant -> string
(** Canonical compact name, e.g. ["pc+same+faults"],
    ["wc+split+faults+timer+ordered"] — the [variant] field of corpus
    artifacts. *)

val chaos_variants : variant list
(** One lattice point per {!Ise_chaos.Profile.outcome_transparent}
    profile, on the paper's default (WC, same-stream) configuration.
    Kept out of {!all_variants} — chaos runs are an order of magnitude
    slower, so campaigns opt in ([ise chaos campaign],
    [ise fuzz run --chaos]). *)

val variant_named : string -> variant option
(** Searches {!all_variants} and {!chaos_variants}. *)

val base_variant : variant
(** [wc+same+faults] — the paper's default configuration. *)

val cfg_of_variant : variant -> Ise_sim.Config.t

(** {1 Checks} *)

type check_kind =
  | Differential  (** observed ⊄ allowed *)
  | Contract  (** Table 5 interface-order violation *)
  | Model_mono  (** allowed(SC) ⊆ allowed(PC) ⊆ allowed(WC) broken *)
  | Same_stream_equiv  (** same-stream changed the allowed set (§4.6) *)
  | Split_subset  (** split-stream removed an outcome *)
  | Watchdog
      (** chaos run failed: bad outcome, contract breach, or an
          invariant-watchdog violation under fault injection *)

val kind_name : check_kind -> string
val kind_named : string -> check_kind option

val failing_check :
  ?seeds:int -> ?model_checks:bool -> variant -> Lit_test.t ->
  (check_kind * string) option
(** First failing check of the test under the variant, with a one-line
    explanation; [None] when everything passes.  [seeds] (default 10)
    is the number of perturbed operational runs; [model_checks]
    (default true) enables the model-vs-model enumeration checks. *)

(** {1 Campaigns} *)

type failure = {
  f_test : Lit_test.t;  (** as generated *)
  f_shrunk : Lit_test.t;
  f_variant : variant;
  f_kind : check_kind;
  f_detail : string;
  f_shrink_steps : int;
}

type report = {
  r_seed : int;
  r_tests : int;  (** tests whose checks actually ran *)
  r_checks : int;  (** test×variant checks executed *)
  r_failures : failure list;  (** discovery order *)
  r_lost_tests : int;
      (** tests lost to a failed parallel shard (a crash after
          retries, or a SIGINT drain); always 0 sequentially and on a
          healthy pool *)
}

(** {1 Specs: the shippable description of a campaign}

    A {!spec} is everything a worker — a forked pool process or a
    remote fabric worker — needs to re-derive the campaign's test
    stream and check schedule: plain data, [Marshal]-safe, no
    closures.  {!run} is [tests_of_spec] + {!check_range} over
    [0, count) + {!report_of_raw}; the fabric supervisor runs the same
    three stages with the middle one distributed, which is why its
    merged output is byte-identical by construction. *)

type spec = {
  s_params : Gen.params;
  s_count : int;
  s_seeds_per_test : int;
  s_variants : variant list;
  s_variants_per_test : int;  (** clamped to [|s_variants|] *)
  s_model_checks : bool;
  s_shrink_evals : int;
  s_seed : int;
}

val spec :
  ?params:Gen.params -> ?count:int -> ?seeds_per_test:int ->
  ?variants:variant list -> ?variants_per_test:int ->
  ?model_checks:bool -> ?shrink_evals:int ->
  seed:int -> unit -> spec
(** Same defaults and validation as {!run}.
    @raise Invalid_argument on bad generator parameters or an empty
    variant list. *)

val tests_of_spec : spec -> Lit_test.t array
(** The campaign's full test stream, in global test order — a pure
    function of [s_seed] and [s_params]. *)

type raw_failure = {
  rf_test : int;  (** global test index *)
  rf_slot : int;  (** variant slot [0 .. s_variants_per_test) *)
  rf_kind : check_kind;
  rf_detail : string;
}
(** The pure, shippable outcome of a failed check: enough to rebuild
    the full {!failure} record (test, variant, shrinking) on the
    supervisor side from the spec alone. *)

val check_range :
  spec -> tests:Lit_test.t array -> lo:int -> hi:int -> raw_failure list
(** Run every check of tests [lo .. hi-1] (global indices into
    [tests_of_spec]); failures come back in global check order.  Pure:
    no logging, shrinking, or telemetry.
    @raise Invalid_argument when the range falls outside [tests]. *)

val report_of_raw :
  ?log:(string -> unit) ->
  spec -> tests:Lit_test.t array -> lost:int -> raw_failure list -> report
(** Fold raw failures — concatenated in global check order — into a
    campaign report: logs each failure, records it with the flight
    recorder, shrinks it, exactly as {!run} does, so
    [report_of_raw s ~tests ~lost:0 (check_range s ~tests ~lo:0
    ~hi:s.s_count)] is byte-identical to [run ~seed ()].  [lost] is
    the number of tests whose shards never completed
    ([r_lost_tests]). *)

val run :
  ?params:Gen.params -> ?count:int -> ?seeds_per_test:int ->
  ?variants:variant list -> ?variants_per_test:int ->
  ?model_checks:bool -> ?shrink_evals:int ->
  ?jobs:int -> ?journal_dir:string ->
  ?telemetry:Ise_telemetry.Sink.t -> ?log:(string -> unit) ->
  ?range:int * int ->
  seed:int -> unit -> report
(** Deterministic in [seed].  [count] (default 100) programs are
    generated; test [i] runs under [variants_per_test] (default 2)
    variants chosen round-robin from [variants] (default
    {!all_variants}).  Failures are shrunk with at most [shrink_evals]
    (default 400) candidate re-checks each.  When [telemetry] is given,
    the campaign maintains [fuzz/*] counters and emits one trace span
    per generated test (sequentially) or one [pool] span per shard.

    [jobs] (default 1) > 1 fans the test×variant checks out over an
    {!Ise_pool.Pool.map} of forked workers, as one batch of contiguous
    shards of [ceil (n / (4 * jobs))] tests each ([n] the tests in
    [range]); test generation, logging, shrinking, and artifact
    construction stay in the supervisor, and shard results are consumed
    in shard order, so the report — failures, shrunk tests, log stream
    — is byte-identical to a [jobs = 1] run of the same seed.  A shard whose worker dies even
    after retries, or that a SIGINT drain cancels, is {e reported}
    ([r_lost_tests], a [LOST] log line) rather than aborting the
    campaign.

    [journal_dir] is passed to {!Ise_pool.Pool.map}: forked workers
    keep crash journals there, and each chaos-variant machine mirrors
    its lifecycle events into them.

    [range] (default [(0, count)]) restricts checking to global test
    indices [lo .. hi-1] — the [--shard k/N] entry point.  The {e
    full} test stream is still generated, so the checked tests and
    their variant schedule are exactly the slice the unsharded run
    would execute: concatenating the failure streams of a contiguous
    partition of [0, count) reproduces the unsharded run's stream.
    [r_tests]/[r_checks] count only the range. *)

(** {1 Corpus integration} *)

val entry_of_failure : seed:int -> failure -> Corpus.entry
(** A [Must_fail] artifact for a freshly-found failure (flip it to
    [Must_pass] once the bug it witnesses is fixed). *)

val seed_entries : unit -> Corpus.entry list
(** Hand-picked [Must_pass] entries, one distinct library test per
    Table 6 relation family, so replay coverage is non-empty from day
    one ([ise fuzz seed-corpus] writes them to disk). *)

val replay : ?seeds:int -> Corpus.entry -> (unit, string) result
(** Re-runs the entry's checks under its recorded variant and compares
    with its [expect] field: [Must_pass] entries must pass every
    check; [Must_fail] entries must fail their recorded [kind].
    Unknown variant names are an [Error]. *)
