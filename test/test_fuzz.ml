(* Tests for the differential fuzzing harness: model properties of the
   Ise_util structures it builds on, generator parameter validation,
   the litmus shrinker, the corpus format, and campaign
   end-to-end behaviour (including finding, shrinking, and replaying
   an injected model bug). *)

open Ise_fuzz
module Rng = Ise_util.Rng
module Instr = Ise_model.Instr
module Lit_test = Ise_litmus.Lit_test

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Ise_util properties *)

module RB = Ise_util.Ring_buffer
module PQ = Ise_util.Pqueue
module BS = Ise_util.Bitset

(* fixed seeds: every run checks the same cases, and a failure replays *)
let qtest ~seed t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

type rop = RPush of int | RPop | RPeek | RClear

let pp_rop = function
  | RPush v -> Printf.sprintf "push %d" v
  | RPop -> "pop"
  | RPeek -> "peek"
  | RClear -> "clear"

let ring_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_rop ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(
      list_size (int_range 0 40)
        (frequency
           [ (5, map (fun v -> RPush v) (int_range 0 99));
             (3, return RPop);
             (1, return RPeek);
             (1, return RClear) ]))

(* Ring_buffer against the obvious list model, including the
   raise-on-full / raise-on-empty contract. *)
let ring_buffer_agrees ops =
  let rb = RB.create ~capacity:4 in
  let model = ref [] in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | RPush v ->
        if List.length !model < 4 then begin
          RB.push rb v;
          model := !model @ [ v ]
        end
        else begin
          match RB.push rb v with
          | () -> ok := false
          | exception Failure _ -> ()
        end
      | RPop -> begin
          match (RB.pop rb, !model) with
          | v, m :: rest ->
            if v <> m then ok := false else model := rest
          | _, [] -> ok := false
          | exception Failure _ -> if !model <> [] then ok := false
        end
      | RPeek ->
        let expected = match !model with [] -> None | m :: _ -> Some m in
        if RB.peek rb <> expected then ok := false
      | RClear ->
        RB.clear rb;
        model := [])
    ops;
  !ok && RB.to_list rb = !model && RB.length rb = List.length !model
  && RB.is_empty rb = (!model = [])

let prop_ring_buffer_model =
  QCheck.Test.make ~name:"util: ring buffer vs list model" ~count:300 ring_ops
    ring_buffer_agrees

let prop_pqueue_ordering =
  QCheck.Test.make ~name:"util: pqueue ordering" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 0 9))
    (fun prios ->
      let q = PQ.create () in
      List.iteri (fun idx p -> PQ.push q p idx) prios;
      let popped = ref [] in
      let rec drain () =
        match PQ.pop q with
        | Some pv ->
          popped := pv :: !popped;
          drain ()
        | None -> ()
      in
      drain ();
      let expected =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          (List.mapi (fun idx p -> (p, idx)) prios)
      in
      List.rev !popped = expected && PQ.is_empty q)

let prop_bitset_model =
  let n = 16 in
  QCheck.Test.make ~name:"util: bitset vs bool array" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 60) (pair bool (int_range 0 (n - 1))))
    (fun ops ->
      let bs = BS.create n in
      let model = Array.make n false in
      List.iter
        (fun (set, i) ->
          if set then BS.set bs i else BS.clear bs i;
          model.(i) <- set)
        ops;
      let members = List.filter (fun i -> model.(i)) (List.init n Fun.id) in
      BS.to_list bs = members
      && BS.cardinal bs = List.length members
      && List.for_all (fun i -> BS.mem bs i = model.(i)) (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Generator parameter validation *)

let test_gen_validate () =
  let module Gen = Ise_litmus.Gen in
  let p = Gen.default_params in
  let expect_error field p =
    match Gen.validate p with
    | Error msg ->
      checkb (Printf.sprintf "error names %s" field) true
        (contains_substring msg field)
    | Ok () -> Alcotest.failf "expected %s to be rejected" field
  in
  expect_error "max_threads" { p with Gen.max_threads = 1 };
  expect_error "max_threads" { p with Gen.max_threads = 9 };
  expect_error "max_instrs" { p with Gen.max_instrs = 0 };
  expect_error "max_instrs" { p with Gen.max_instrs = 17 };
  expect_error "max_locs" { p with Gen.max_locs = 0 };
  expect_error "max_locs" { p with Gen.max_locs = 9 };
  checkb "defaults validate" true (Gen.validate p = Ok ());
  (match Gen.generate (Rng.create 1) { p with Gen.max_threads = 1 } with
  | _ -> Alcotest.fail "generate must reject invalid params"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Litmus shrinker *)

let total_instrs (t : Lit_test.t) =
  Array.fold_left (fun a is -> a + List.length is) 0 t.Lit_test.threads

let has_fence (t : Lit_test.t) =
  Array.exists (List.exists (fun i -> i = Instr.Fence)) t.Lit_test.threads

let test_shrink_candidates_decrease () =
  let tests =
    Ise_litmus.Gen.generate_suite ~seed:5 ~count:15
      Ise_litmus.Gen.default_params
  in
  List.iter
    (fun t ->
      let s = Shrink.size t in
      Seq.iter
        (fun c ->
          if Shrink.size c >= s then
            Alcotest.failf "candidate of %s does not shrink: %d >= %d"
              t.Lit_test.name (Shrink.size c) s)
        (Shrink.candidates t))
    tests

let test_shrink_preserves_and_terminates () =
  (* structural property: "the test contains a fence" — minimization
     must keep it failing and land on the 1-thread 1-instruction
     minimum *)
  let t =
    Lit_test.make ~name:"shrink-meta"
      [| [ Instr.Store (0, 1); Instr.Fence; Instr.Load (0, 1) ];
         [ Instr.Store (1, 2); Instr.Load (1, 0); Instr.Fence ] |]
      []
  in
  checkb "input fails" true (has_fence t);
  let shrunk, steps = Shrink.minimize ~keeps_failing:has_fence t in
  checkb "failure preserved" true (has_fence shrunk);
  checkb "made progress" true (steps > 0);
  checki "one thread" 1 (Array.length shrunk.Lit_test.threads);
  checki "one instruction" 1 (total_instrs shrunk);
  check Alcotest.string "name preserved" t.Lit_test.name shrunk.Lit_test.name;
  let again, steps' = Shrink.minimize ~keeps_failing:has_fence shrunk in
  checki "idempotent: zero further steps" 0 steps';
  checki "idempotent: same size" (Shrink.size shrunk) (Shrink.size again);
  (* max_evals bounds the checks; a spent budget stops at the input *)
  let evals = ref 0 in
  let counting t = incr evals; has_fence t in
  let same, steps0 = Shrink.minimize ~max_evals:0 ~keeps_failing:counting t in
  checki "no budget: no checks" 0 !evals;
  checki "no budget: no steps" 0 steps0;
  checkb "no budget: input returned" true (same == t);
  let _, _ = Shrink.minimize ~max_evals:3 ~keeps_failing:counting t in
  checki "budget of 3: exactly 3 checks" 3 !evals

let test_shrink_keeps_cond_locations () =
  (* tests with a condition must never have locations merged away *)
  let t =
    Lit_test.make ~name:"cond-locs"
      [| [ Instr.Store (0, 1); Instr.Load (0, 1) ];
         [ Instr.Store (1, 1) ] |]
      [ Lit_test.Mem_is (1, 1) ]
  in
  (* merge_locs proposes nothing when a condition is present: every
     candidate must come from drops/simplifications only, so location 1
     of the condition is never renamed *)
  checkb "no candidate renames locations" true
    (Seq.for_all
       (fun (c : Lit_test.t) ->
         Array.for_all
           (List.for_all (fun i ->
                match Instr.loc_of i with Some l -> l <= 1 | None -> true))
           c.Lit_test.threads)
       (Shrink.candidates t))

(* ------------------------------------------------------------------ *)
(* Corpus format *)

let entry_equal (a : Corpus.entry) (b : Corpus.entry) =
  a.Corpus.e_seed = b.Corpus.e_seed
  && a.Corpus.e_variant = b.Corpus.e_variant
  && a.Corpus.e_kind = b.Corpus.e_kind
  && a.Corpus.e_detail = b.Corpus.e_detail
  && a.Corpus.e_expect = b.Corpus.e_expect
  && a.Corpus.e_test.Lit_test.name = b.Corpus.e_test.Lit_test.name
  && a.Corpus.e_test.Lit_test.threads = b.Corpus.e_test.Lit_test.threads
  && a.Corpus.e_test.Lit_test.cond = b.Corpus.e_test.Lit_test.cond

let test_corpus_roundtrip () =
  let entries = Campaign.seed_entries () in
  checkb "seed corpus is non-empty" true (entries <> []);
  List.iter
    (fun e ->
      match Corpus.of_string (Corpus.to_string e) with
      | Ok e' ->
        checkb
          (Printf.sprintf "%s round-trips" e.Corpus.e_test.Lit_test.name)
          true (entry_equal e e')
      | Error msg ->
        Alcotest.failf "%s failed to parse back: %s"
          e.Corpus.e_test.Lit_test.name msg)
    entries

let test_corpus_rejects_garbage () =
  let is_error = function Error _ -> true | Ok _ -> false in
  checkb "bad header" true (is_error (Corpus.of_string "not-a-corpus\n"));
  checkb "empty" true (is_error (Corpus.of_string ""));
  checkb "bad instruction" true
    (is_error
       (Corpus.of_string
          "ise-fuzz v1\nname t\nseed 1\nvariant wc+same+faults\nkind \
           seed\nexpect pass\nthread Q x 1\n"));
  checkb "bad expect" true
    (is_error
       (Corpus.of_string
          "ise-fuzz v1\nname t\nseed 1\nvariant wc+same+faults\nkind \
           seed\nexpect maybe\nthread W x 1\n"))

(* the checked-in corpus, relative to _build/default/test *)
let corpus_dir () =
  let candidates =
    [ "../../../corpus"; "../../corpus"; "../corpus"; "corpus" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> Alcotest.fail "corpus/ directory not found from test cwd"

let test_corpus_replays_green () =
  let entries = Corpus.load_dir (corpus_dir ()) in
  checkb "checked-in corpus is non-empty" true (entries <> []);
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error msg -> Alcotest.failf "%s does not parse: %s" path msg
      | Ok entry -> begin
          match Campaign.replay entry with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s does not replay: %s" path msg
        end)
    entries

(* ------------------------------------------------------------------ *)
(* Campaign *)

let test_variant_names_roundtrip () =
  let names = List.map Campaign.variant_name Campaign.all_variants in
  checki "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun v ->
      match Campaign.variant_named (Campaign.variant_name v) with
      | Some v' ->
        checkb (Campaign.variant_name v) true (v = v')
      | None ->
        Alcotest.failf "variant %s does not parse back"
          (Campaign.variant_name v))
    Campaign.all_variants;
  List.iter
    (fun k ->
      checkb (Campaign.kind_name k) true
        (Campaign.kind_named (Campaign.kind_name k) = Some k))
    [ Campaign.Differential; Campaign.Contract; Campaign.Model_mono;
      Campaign.Same_stream_equiv; Campaign.Split_subset ]

let test_campaign_clean_is_sound () =
  (* a bounded sweep over the lattice must find nothing on the sound
     model: the harness itself must not produce false positives *)
  let report =
    Campaign.run ~count:8 ~seeds_per_test:5 ~seed:3 ()
  in
  checki "tests run" 8 report.Campaign.r_tests;
  checkb "checks executed" true (report.Campaign.r_checks >= 8);
  checki "no false positives" 0 (List.length report.Campaign.r_failures)

let test_campaign_telemetry () =
  let sink = Ise_telemetry.Sink.create () in
  let _report =
    Campaign.run ~telemetry:sink ~count:3 ~seeds_per_test:3 ~seed:1 ()
  in
  let snap = Ise_telemetry.Registry.snapshot (Ise_telemetry.Sink.registry sink) in
  let counter name =
    match List.assoc_opt name snap with
    | Some (Ise_telemetry.Registry.Snap_counter n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  checki "fuzz/tests counter" 3 (counter "fuzz/tests");
  checkb "fuzz/checks counter" true (counter "fuzz/checks" >= 3);
  checki "fuzz/failures counter" 0 (counter "fuzz/failures")

let test_campaign_validates_params () =
  let bad = { Ise_litmus.Gen.default_params with Ise_litmus.Gen.max_threads = 1 } in
  (match Campaign.run ~params:bad ~count:1 ~seed:1 () with
  | _ -> Alcotest.fail "invalid generator params must be rejected"
  | exception Invalid_argument _ -> ());
  match Campaign.run ~variants:[] ~count:1 ~seed:1 () with
  | _ -> Alcotest.fail "empty variant list must be rejected"
  | exception Invalid_argument _ -> ()

let with_injected_bug f =
  Ise_model.Axiom.fuzz_unsound_strict_ppo := true;
  Fun.protect
    ~finally:(fun () -> Ise_model.Axiom.fuzz_unsound_strict_ppo := false)
    f

(* the headline acceptance criterion: an injected model bug (ppo kept
   artificially strict, so the oracle wrongly forbids store-buffer
   relaxation) is found by the campaign, shrunk to a ≤2-thread
   ≤4-instruction witness, and the saved artifact replays *)
let test_campaign_finds_injected_bug () =
  let variant =
    match Campaign.variant_named "wc+same+nofaults" with
    | Some v -> v
    | None -> Alcotest.fail "variant wc+same+nofaults missing"
  in
  let entry =
    with_injected_bug (fun () ->
        let report =
          Campaign.run ~count:25 ~seeds_per_test:20 ~variants:[ variant ]
            ~seed:7 ()
        in
        checkb "injected bug found" true (report.Campaign.r_failures <> []);
        let f = List.hd report.Campaign.r_failures in
        checkb "differential failure" true
          (f.Campaign.f_kind = Campaign.Differential);
        checkb "shrunk to <= 2 threads" true
          (Array.length f.Campaign.f_shrunk.Lit_test.threads <= 2);
        checkb "shrunk to <= 4 instructions" true
          (total_instrs f.Campaign.f_shrunk <= 4);
        checkb "shrinking made progress" true
          (Shrink.size f.Campaign.f_shrunk <= Shrink.size f.Campaign.f_test);
        let entry = Campaign.entry_of_failure ~seed:7 f in
        (* the artifact replays (still under the bug): Must_fail matches *)
        (match Campaign.replay ~seeds:20 entry with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "artifact does not replay: %s" msg);
        (* and survives the on-disk format *)
        match Corpus.of_string (Corpus.to_string entry) with
        | Ok e -> e
        | Error msg -> Alcotest.failf "artifact does not round-trip: %s" msg)
  in
  (* with the sound model restored, the Must_fail artifact no longer
     fails — exactly the signal to flip it to Must_pass after a fix *)
  match Campaign.replay ~seeds:20 entry with
  | Ok () -> Alcotest.fail "artifact must not reproduce on the sound model"
  | Error _ -> ()

let suite =
  [
    qtest ~seed:23 prop_ring_buffer_model;
    qtest ~seed:29 prop_pqueue_ordering;
    qtest ~seed:31 prop_bitset_model;
    Alcotest.test_case "gen: parameter validation" `Quick test_gen_validate;
    Alcotest.test_case "shrink: candidates strictly decrease" `Quick
      test_shrink_candidates_decrease;
    Alcotest.test_case "shrink: preserves failure, terminates, idempotent"
      `Quick test_shrink_preserves_and_terminates;
    Alcotest.test_case "shrink: conditions pin locations" `Quick
      test_shrink_keeps_cond_locations;
    Alcotest.test_case "corpus: round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "corpus: rejects malformed input" `Quick
      test_corpus_rejects_garbage;
    Alcotest.test_case "corpus: checked-in entries replay green" `Slow
      test_corpus_replays_green;
    Alcotest.test_case "campaign: variant/kind names round-trip" `Quick
      test_variant_names_roundtrip;
    Alcotest.test_case "campaign: clean run is sound" `Slow
      test_campaign_clean_is_sound;
    Alcotest.test_case "campaign: telemetry counters" `Quick
      test_campaign_telemetry;
    Alcotest.test_case "campaign: validates parameters" `Quick
      test_campaign_validates_params;
    Alcotest.test_case "campaign: finds, shrinks, replays injected bug" `Slow
      test_campaign_finds_injected_bug;
  ]
