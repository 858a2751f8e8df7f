open Ise_model
open Ise_litmus
open Ise_sim
open Ise_util

(* ------------------------------------------------------------------ *)
(* the lattice                                                         *)

type mem_variant = Mem_default | Mem_2x | Mem_skew4x

type variant = {
  v_model : Axiom.model;
  v_protocol : Ise_core.Protocol.mode;
  v_faults : bool;
  v_timer : bool;
  v_mem : mem_variant;
  v_ordered_drain : bool;
  v_chaos : string option;
}

let model_tag = function Axiom.Sc -> "sc" | Axiom.Pc -> "pc" | Axiom.Wc -> "wc"

let variant_name v =
  String.concat "+"
    ([
       model_tag v.v_model;
       (match v.v_protocol with
        | Ise_core.Protocol.Same_stream -> "same"
        | Ise_core.Protocol.Split_stream -> "split");
       (if v.v_faults then "faults" else "nofaults");
     ]
    @ (if v.v_timer then [ "timer" ] else [])
    @ (match v.v_mem with
       | Mem_default -> []
       | Mem_2x -> [ "mem2x" ]
       | Mem_skew4x -> [ "skew4x" ])
    @ (if v.v_ordered_drain then [ "ordered" ] else [])
    @ match v.v_chaos with None -> [] | Some p -> [ "chaos-" ^ p ])

let base_variant =
  {
    v_model = Axiom.Wc;
    v_protocol = Ise_core.Protocol.Same_stream;
    v_faults = true;
    v_timer = false;
    v_mem = Mem_default;
    v_ordered_drain = false;
    v_chaos = None;
  }

let all_variants =
  let acc = ref [] in
  List.iter
    (fun m ->
      (* split-stream without fault injection degenerates to same-stream *)
      List.iter
        (fun (proto, faults) ->
          List.iter
            (fun timer ->
              List.iter
                (fun ordered ->
                  (* PC's protocol already forces a single ordered drain *)
                  if not (m = Axiom.Pc && ordered) then
                    acc :=
                      { base_variant with v_model = m; v_protocol = proto;
                        v_faults = faults; v_timer = timer;
                        v_ordered_drain = ordered }
                      :: !acc)
                [ false; true ])
            [ false; true ])
        [
          (Ise_core.Protocol.Same_stream, true);
          (Ise_core.Protocol.Same_stream, false);
          (Ise_core.Protocol.Split_stream, true);
        ];
      List.iter
        (fun mem -> acc := { base_variant with v_model = m; v_mem = mem } :: !acc)
        [ Mem_2x; Mem_skew4x ])
    [ Axiom.Sc; Axiom.Pc; Axiom.Wc ];
  List.rev !acc

(* Chaos rides on the paper's default configuration: every
   outcome-transparent profile becomes one more lattice point whose
   check is the chaos-hardened litmus run (plane + watchdog).  The
   [fsb-degrade] profile is only outcome-transparent under WC (dropping
   a record to precise re-execution reorders the store FIFO that SC/PC
   expose), which the base variant already is. *)
let chaos_variants =
  List.filter_map
    (fun (p : Ise_chaos.Profile.t) ->
      if Ise_chaos.Profile.outcome_transparent p then
        Some { base_variant with v_chaos = Some p.Ise_chaos.Profile.name }
      else None)
    Ise_chaos.Profile.all

let variant_named name =
  List.find_opt
    (fun v -> variant_name v = name)
    (all_variants @ chaos_variants)

let cfg_of_variant v =
  let cfg = Config.with_consistency v.v_model Config.default in
  let cfg =
    match v.v_mem with
    | Mem_default -> cfg
    | Mem_2x -> Config.with_2x_memory cfg
    | Mem_skew4x -> Config.with_4x_store_skew cfg
  in
  let cfg = { cfg with Config.protocol_mode = v.v_protocol } in
  if v.v_ordered_drain then { cfg with Config.sb_max_inflight = 1 } else cfg

(* ------------------------------------------------------------------ *)
(* checks                                                              *)

type check_kind =
  | Differential
  | Contract
  | Model_mono
  | Same_stream_equiv
  | Split_subset
  | Watchdog

let kind_name = function
  | Differential -> "differential"
  | Contract -> "contract"
  | Model_mono -> "model-mono"
  | Same_stream_equiv -> "same-stream-equiv"
  | Split_subset -> "split-subset"
  | Watchdog -> "watchdog"

let kind_named = function
  | "differential" -> Some Differential
  | "contract" -> Some Contract
  | "model-mono" -> Some Model_mono
  | "same-stream-equiv" -> Some Same_stream_equiv
  | "split-subset" -> Some Split_subset
  | "watchdog" -> Some Watchdog
  | _ -> None

let render_extra observed allowed =
  let extra = Outcome.Set.diff observed allowed in
  let shown =
    Outcome.Set.fold
      (fun o acc ->
        if List.length acc < 3 then Format.asprintf "%a" Outcome.pp o :: acc
        else acc)
      extra []
  in
  Printf.sprintf "%d outcome(s) observed but not allowed, e.g. %s"
    (Outcome.Set.cardinal extra)
    (String.concat " | " (List.rev shown))

(* The operational (simulator) side: differential + Table 5 contract. *)
let operational ~seeds v t =
  let r =
    Lit_run.run ~seeds ~inject_faults:v.v_faults ~timer_interrupts:v.v_timer
      ~cfg:(cfg_of_variant v) t
  in
  let diff =
    if r.Lit_run.pass then None
    else Some (render_extra r.Lit_run.observed r.Lit_run.allowed)
  in
  let contract =
    if r.Lit_run.contract_ok then None
    else Some "interface trace violates a Table 5 rule"
  in
  (diff, contract)

(* Model-vs-model enumeration checks (§4.6). *)
let model_check kind v (t : Lit_test.t) =
  let threads = t.Lit_test.threads in
  let faulting = Lit_test.stores_of t in
  match kind with
  | Model_mono ->
    if not (Check.subset Axiom.sc Axiom.pc threads) then
      Some "allowed(SC) ⊄ allowed(PC)"
    else if not (Check.subset Axiom.pc Axiom.wc threads) then
      Some "allowed(PC) ⊄ allowed(WC)"
    else None
  | Same_stream_equiv ->
    let precise = { Axiom.model = v.v_model; faults = Axiom.Precise } in
    let same = { Axiom.model = v.v_model; faults = Axiom.Same_stream } in
    if Check.equivalent ~faulting precise same threads then None
    else Some (Printf.sprintf "same-stream changed allowed(%s)" (model_tag v.v_model))
  | Split_subset ->
    let precise = { Axiom.model = v.v_model; faults = Axiom.Precise } in
    let split = { Axiom.model = v.v_model; faults = Axiom.Split_stream } in
    if Check.subset ~faulting precise split threads then None
    else
      Some
        (Printf.sprintf "split-stream removed an outcome from allowed(%s)"
           (model_tag v.v_model))
  | Differential | Contract | Watchdog -> None

let model_kinds = [ Model_mono; Same_stream_equiv; Split_subset ]

(* The chaos check subsumes differential, contract, and the watchdog
   invariants — under a plane that perturbs every layer. *)
let chaos_check ~seeds v t =
  match v.v_chaos with
  | None -> None
  | Some pname -> (
    match Ise_chaos.Profile.named pname with
    | None -> Some ("unknown chaos profile " ^ pname)
    | Some profile ->
      Ise_chaos.Chaos_run.lit_check ~seeds ~cfg:(cfg_of_variant v) ~profile t)

let failing_check ?(seeds = 10) ?(model_checks = true) v t =
  match v.v_chaos with
  | Some _ -> Option.map (fun d -> (Watchdog, d)) (chaos_check ~seeds v t)
  | None -> (
    let diff, contract = operational ~seeds v t in
    match (diff, contract) with
    | Some d, _ -> Some (Differential, d)
    | None, Some d -> Some (Contract, d)
    | None, None ->
      if not model_checks then None
      else
        List.find_map
          (fun kind ->
            Option.map (fun d -> (kind, d)) (model_check kind v t))
          model_kinds)

(* Does exactly [kind] still fail on [t]?  Used as the shrinking
   property so minimization cannot drift to a different bug. *)
let kind_fails ~seeds v kind t =
  match kind with
  | Differential -> fst (operational ~seeds v t) <> None
  | Contract -> snd (operational ~seeds v t) <> None
  | Watchdog -> chaos_check ~seeds v t <> None
  | Model_mono | Same_stream_equiv | Split_subset ->
    model_check kind v t <> None

(* ------------------------------------------------------------------ *)
(* campaigns                                                           *)

type failure = {
  f_test : Lit_test.t;
  f_shrunk : Lit_test.t;
  f_variant : variant;
  f_kind : check_kind;
  f_detail : string;
  f_shrink_steps : int;
}

type report = {
  r_seed : int;
  r_tests : int;
  r_checks : int;
  r_failures : failure list;
  r_lost_tests : int;
}

(* ------------------------------------------------------------------ *)
(* specs: the shippable description of a campaign                      *)

type spec = {
  s_params : Gen.params;
  s_count : int;
  s_seeds_per_test : int;
  s_variants : variant list;
  s_variants_per_test : int;  (* clamped to |s_variants| at build time *)
  s_model_checks : bool;
  s_shrink_evals : int;
  s_seed : int;
}

let make_spec ~who ?(params = Gen.default_params) ?(count = 100)
    ?(seeds_per_test = 10) ?(variants = all_variants) ?(variants_per_test = 2)
    ?(model_checks = true) ?(shrink_evals = 400) ~seed () =
  (match Gen.validate params with
   | Ok () -> ()
   | Error msg -> invalid_arg (who ^ ": " ^ msg));
  if variants = [] then invalid_arg (who ^ ": empty variant list");
  {
    s_params = params;
    s_count = count;
    s_seeds_per_test = seeds_per_test;
    s_variants = variants;
    s_variants_per_test = min variants_per_test (List.length variants);
    s_model_checks = model_checks;
    s_shrink_evals = shrink_evals;
    s_seed = seed;
  }

let spec = make_spec ~who:"Campaign.spec"

(* Generation stays in test order, so the test stream is one pure
   function of [s_seed] whatever the worker (or machine) count. *)
let tests_of_spec s =
  let rng = Rng.create s.s_seed in
  Array.init s.s_count (fun _ -> Gen.generate (Rng.split rng) s.s_params)

type raw_failure = {
  rf_test : int;
  rf_slot : int;
  rf_kind : check_kind;
  rf_detail : string;
}

(* the variant schedule is a function of the global test index *)
let variant_of s =
  let varr = Array.of_list s.s_variants in
  let nv = Array.length varr in
  fun i j -> varr.(((i * s.s_variants_per_test) + j) mod nv)

(* The pure, shippable part of a check: no logging, no shrinking, no
   telemetry — exactly what a worker process (or remote worker) runs. *)
let check_test s vof i t =
  let acc = ref [] in
  for j = 0 to s.s_variants_per_test - 1 do
    (* model-vs-model checks don't depend on the simulator knobs,
       so run them only on the test's first variant *)
    match
      failing_check ~seeds:s.s_seeds_per_test
        ~model_checks:(s.s_model_checks && j = 0) (vof i j) t
    with
    | None -> ()
    | Some (kind, detail) ->
      acc :=
        { rf_test = i; rf_slot = j; rf_kind = kind; rf_detail = detail }
        :: !acc
  done;
  List.rev !acc

let check_range s ~tests ~lo ~hi =
  if lo < 0 || hi > Array.length tests || lo > hi then
    invalid_arg "Campaign.check_range: bad range";
  let vof = variant_of s in
  let acc = ref [] in
  for i = lo to hi - 1 do
    acc := List.rev_append (check_test s vof i tests.(i)) !acc
  done;
  List.rev !acc

(* Shrinking stays in the supervisor: it is where the failure is
   logged, minimized, and turned into a record, identically for the
   sequential, the parallel, and the fabric path. *)
let process_failure s ~log ~count_failure tests vof rf =
  let t = tests.(rf.rf_test) in
  let v = vof rf.rf_test rf.rf_slot in
  log
    (Printf.sprintf "FAIL %s under %s [%s]: %s" t.Lit_test.name
       (variant_name v) (kind_name rf.rf_kind) rf.rf_detail);
  Ise_obs.Recorder.note "fuzz/failure"
    ~args:
      [ ("test", Ise_telemetry.Json.String t.Lit_test.name);
        ("variant", Ise_telemetry.Json.String (variant_name v));
        ("kind", Ise_telemetry.Json.String (kind_name rf.rf_kind)) ];
  let shrunk, steps =
    Shrink.minimize ~max_evals:s.s_shrink_evals
      ~keeps_failing:(kind_fails ~seeds:s.s_seeds_per_test v rf.rf_kind)
      t
  in
  if steps > 0 then
    log
      (Printf.sprintf "  shrunk %s: %d -> %d instrs in %d steps"
         t.Lit_test.name
         (Array.fold_left (fun a is -> a + List.length is) 0
            t.Lit_test.threads)
         (Array.fold_left (fun a is -> a + List.length is) 0
            shrunk.Lit_test.threads)
         steps);
  count_failure steps;
  { f_test = t; f_shrunk = shrunk; f_variant = v; f_kind = rf.rf_kind;
    f_detail = rf.rf_detail; f_shrink_steps = steps }

let report_of_raw ?(log = fun (_ : string) -> ()) s ~tests ~lost raws =
  let vof = variant_of s in
  let failures =
    List.map (process_failure s ~log ~count_failure:ignore tests vof) raws
  in
  {
    r_seed = s.s_seed;
    r_tests = s.s_count - lost;
    r_checks = (s.s_count - lost) * s.s_variants_per_test;
    r_failures = failures;
    r_lost_tests = lost;
  }

let run ?params ?count ?seeds_per_test ?variants ?variants_per_test
    ?model_checks ?shrink_evals ?(jobs = 1) ?journal_dir ?telemetry
    ?(log = fun (_ : string) -> ()) ?range ~seed () =
  let s =
    make_spec ~who:"Campaign.run" ?params ?count ?seeds_per_test ?variants
      ?variants_per_test ?model_checks ?shrink_evals ~seed ()
  in
  let lo, hi =
    match range with
    | None -> (0, s.s_count)
    | Some (lo, hi) ->
      if lo < 0 || hi > s.s_count || lo > hi then
        invalid_arg "Campaign.run: range outside [0, count]";
      (lo, hi)
  in
  let n = hi - lo in
  let counters =
    Option.map
      (fun sink ->
        let reg = Ise_telemetry.Sink.registry sink in
        ( Ise_telemetry.Registry.counter reg "fuzz/tests",
          Ise_telemetry.Registry.counter reg "fuzz/checks",
          Ise_telemetry.Registry.counter reg "fuzz/failures",
          Ise_telemetry.Registry.counter reg "fuzz/shrink_steps" ))
      telemetry
  in
  let count_tests n =
    Option.iter (fun (t, _, _, _) -> Ise_telemetry.Registry.add t n) counters
  and count_checks n =
    Option.iter (fun (_, c, _, _) -> Ise_telemetry.Registry.add c n) counters
  and count_failure steps =
    Option.iter
      (fun (_, _, f, s) ->
        Ise_telemetry.Registry.incr f;
        Ise_telemetry.Registry.add s steps)
      counters
  in
  let trace = Option.map Ise_telemetry.Sink.trace telemetry in
  let tests = tests_of_spec s in
  let vof = variant_of s in
  let proc rf = process_failure s ~log ~count_failure tests vof rf in
  let failures = ref [] in
  let lost = ref 0 in
  if jobs <= 1 || not Ise_pool.Pool.fork_available || n = 0 then
    for i = lo to hi - 1 do
      let t = tests.(i) in
      count_tests 1;
      Option.iter
        (fun tr ->
          Ise_telemetry.Trace.span_begin tr ~cat:"fuzz"
            ~name:t.Lit_test.name ~tid:0 i)
        trace;
      count_checks s.s_variants_per_test;
      List.iter
        (fun rf -> failures := proc rf :: !failures)
        (check_test s vof i t);
      Option.iter
        (fun tr ->
          Ise_telemetry.Trace.span_end tr ~cat:"fuzz"
            ~name:t.Lit_test.name ~tid:0 (i + 1))
        trace
    done
  else begin
    (* contiguous shards keep each test's global index — the variant
       schedule depends on it — and results come back in shard order,
       so the failure stream is byte-identical to the sequential one *)
    let worker (base, ts) =
      let acc = ref [] in
      Array.iteri
        (fun k t -> acc := List.rev_append (check_test s vof (base + k) t) !acc)
        ts;
      List.rev !acc
    in
    let shard_size = max 1 ((n + (jobs * 4) - 1) / (jobs * 4)) in
    let shards =
      Array.init
        ((n + shard_size - 1) / shard_size)
        (fun sh ->
          let base = lo + (sh * shard_size) in
          (base, Array.sub tests base (min shard_size (hi - base))))
    in
    let outcomes, _stats =
      Ise_pool.Pool.map ~jobs ?telemetry ?journal_dir worker shards
    in
    Array.iteri
      (fun sh outcome ->
        let base, ts = shards.(sh) in
        match outcome with
        | Ise_pool.Pool.Done fs ->
          count_tests (Array.length ts);
          count_checks (Array.length ts * s.s_variants_per_test);
          List.iter (fun rf -> failures := proc rf :: !failures) fs
        | Ise_pool.Pool.Failed err ->
          lost := !lost + Array.length ts;
          log
            (Printf.sprintf "LOST shard %d (tests %d-%d): %s" sh base
               (base + Array.length ts - 1)
               (Ise_pool.Pool.error_to_string err)))
      outcomes
  end;
  {
    r_seed = s.s_seed;
    r_tests = n - !lost;
    r_checks = (n - !lost) * s.s_variants_per_test;
    r_failures = List.rev !failures;
    r_lost_tests = !lost;
  }

(* ------------------------------------------------------------------ *)
(* corpus integration                                                  *)

let entry_of_failure ~seed f =
  {
    Corpus.e_seed = seed;
    e_variant = variant_name f.f_variant;
    e_kind = kind_name f.f_kind;
    e_detail = f.f_detail;
    e_expect = Corpus.Must_fail;
    e_test = f.f_shrunk;
  }

let seed_entries () =
  let used = ref [] in
  List.filter_map
    (fun cat ->
      let pick =
        List.find_opt
          (fun t ->
            (not (List.mem t.Lit_test.name !used))
            && List.mem cat (Classify.classify t))
          Library.all
      in
      match pick with
      | None -> None
      | Some t ->
        used := t.Lit_test.name :: !used;
        Some
          {
            Corpus.e_seed = 0;
            e_variant = variant_name base_variant;
            e_kind = "seed";
            e_detail = "seed corpus: " ^ Classify.name cat;
            e_expect = Corpus.Must_pass;
            e_test = t;
          })
    Classify.all_categories

let replay ?(seeds = 10) (e : Corpus.entry) =
  match variant_named e.Corpus.e_variant with
  | None ->
    Error (Printf.sprintf "unknown lattice variant %S" e.Corpus.e_variant)
  | Some v -> (
    let result = failing_check ~seeds v e.Corpus.e_test in
    match (e.Corpus.e_expect, result) with
    | Corpus.Must_pass, None -> Ok ()
    | Corpus.Must_pass, Some (kind, detail) ->
      Error
        (Printf.sprintf "expected pass, but %s failed: %s" (kind_name kind)
           detail)
    | Corpus.Must_fail, Some (kind, _) when kind_name kind = e.Corpus.e_kind ->
      Ok ()
    | Corpus.Must_fail, Some (kind, detail) ->
      Error
        (Printf.sprintf "expected a %s failure, but %s failed instead: %s"
           e.Corpus.e_kind (kind_name kind) detail)
    | Corpus.Must_fail, None ->
      Error
        (Printf.sprintf "expected a %s failure, but every check passed"
           e.Corpus.e_kind))
