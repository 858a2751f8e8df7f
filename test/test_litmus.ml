open Ise_litmus
open Ise_model

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

let test_expectations_hold () =
  List.iter
    (fun t ->
      List.iter
        (fun (model, expected, actual) ->
          let model_name =
            match model with Axiom.Sc -> "SC" | Axiom.Pc -> "PC" | Axiom.Wc -> "WC"
          in
          let show = function
            | Lit_test.Allowed -> "Allowed"
            | Lit_test.Forbidden -> "Forbidden"
          in
          check Alcotest.string
            (Printf.sprintf "%s under %s" t.Lit_test.name model_name)
            (show expected) (show actual))
        (Lit_test.check_expectations t))
    Library.all

let test_library_nonempty () =
  check Alcotest.bool "≥ 25 tests" true (List.length Library.all >= 25)

let test_library_names_unique () =
  let names = List.map (fun t -> t.Lit_test.name) Library.all in
  check Alcotest.int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_find () =
  let t = Library.find "MP+fences" in
  check Alcotest.string "found" "MP+fences" t.Lit_test.name

let test_cond_holds () =
  let o = Outcome.make ~regs:[ ((1, 0), 1) ] ~mem:[ (0, 2) ] in
  check Alcotest.bool "matching cond" true
    (Lit_test.cond_holds [ Lit_test.Reg_is (1, 0, 1); Lit_test.Mem_is (0, 2) ] o);
  check Alcotest.bool "failing cond" false
    (Lit_test.cond_holds [ Lit_test.Reg_is (1, 0, 0) ] o)

let test_stores_of () =
  let stores = Lit_test.stores_of Library.mp in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "store indices" [ (0, 0); (0, 1) ] stores

let test_classify_mp_fenced () =
  let cats = Classify.classify Library.mp_fenced in
  check Alcotest.bool "barriers" true (List.mem Classify.Barriers cats);
  check Alcotest.bool "external rf" true
    (List.mem Classify.External_read_from cats)

let test_classify_corr () =
  let cats = Classify.classify Library.corr in
  check Alcotest.bool "po same location" true
    (List.mem Classify.Po_same_location cats)

let test_classify_amo () =
  let cats = Classify.classify Library.amo_add_add in
  check Alcotest.bool "preserved po" true (List.mem Classify.Preserved_po cats);
  check Alcotest.bool "coherence" true (List.mem Classify.Coherence_order cats)

let test_classify_deps () =
  let cats = Classify.classify Library.lb_data in
  check Alcotest.bool "dependencies" true (List.mem Classify.Dependencies cats)

let test_classify_internal_rf () =
  let t =
    Lit_test.make ~name:"internal-rf"
      [| [ Instr.Store (0, 1); Instr.Load (0, 0) ] |]
      []
  in
  check Alcotest.bool "internal rf" true
    (List.mem Classify.Internal_read_from (Classify.classify t))

let test_coverage_counts () =
  let cov = Classify.coverage Library.all in
  List.iter
    (fun (cat, n) ->
      check Alcotest.bool (Classify.name cat ^ " covered") true (n > 0))
    cov

(* Every Forbidden expectation must be explainable: the model produces
   either a happens-before cycle or unreachability, never a witness. *)
let test_forbidden_outcomes_have_cycles () =
  List.iter
    (fun t ->
      List.iter
        (fun (model, expected) ->
          if expected = Lit_test.Forbidden then begin
            let cfg = { Axiom.model; faults = Axiom.Precise } in
            (* find a candidate outcome matching the condition from the
               weakest fault-extended model, then explain it *)
            let weakest =
              Check.allowed
                ~faulting:(Lit_test.stores_of t)
                { Axiom.model = Axiom.Wc; faults = Axiom.Split_stream }
                t.Lit_test.threads
            in
            let targets =
              Outcome.Set.filter (Lit_test.cond_holds t.Lit_test.cond) weakest
            in
            Outcome.Set.iter
              (fun target ->
                match Check.explain cfg t.Lit_test.threads target with
                | Check.Forbidden_cycle cycle ->
                  Alcotest.(check bool)
                    (t.Lit_test.name ^ ": cycle closes")
                    true
                    (List.length cycle >= 2)
                | Check.Unreachable -> ()
                | Check.Allowed_by _ ->
                  Alcotest.fail
                    (Printf.sprintf "%s: expected Forbidden under %s"
                       t.Lit_test.name (Axiom.name cfg)))
              targets
          end)
        t.Lit_test.expect)
    Library.all

let test_coverage_every_category_generated () =
  let generated = Gen.generate_suite ~seed:99 ~count:300 Gen.default_params in
  List.iter
    (fun (cat, n) ->
      Alcotest.(check bool)
        (Classify.name cat ^ " well covered by generation")
        true (n >= 10))
    (Classify.coverage (Library.all @ generated))

let test_generator_deterministic () =
  let mk () = Gen.generate_suite ~seed:11 ~count:5 Gen.default_params in
  let names l = List.map (fun t -> t.Lit_test.name) l in
  check (Alcotest.list Alcotest.string) "same suite" (names (mk ())) (names (mk ()))

let test_generator_communicates () =
  let suite = Gen.generate_suite ~seed:3 ~count:20 Gen.default_params in
  check Alcotest.int "20 tests" 20 (List.length suite)

let prop_generated_enumerable =
  QCheck.Test.make ~name:"generated tests have bounded, consistent enumerations"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let t = Gen.generate rng Gen.default_params in
      let _, total, consistent =
        Check.allowed_with_stats Axiom.wc t.Lit_test.threads
      in
      total >= consistent && consistent > 0)

let prop_generated_pc_subset_wc =
  QCheck.Test.make ~name:"generated: allowed(PC) ⊆ allowed(WC)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let t = Gen.generate rng Gen.default_params in
      Check.subset Axiom.pc Axiom.wc t.Lit_test.threads)

let suite =
  [
    ("hand-written expectations hold", `Slow, test_expectations_hold);
    ("library non-empty", `Quick, test_library_nonempty);
    ("library names unique", `Quick, test_library_names_unique);
    ("find by name", `Quick, test_find);
    ("condition evaluation", `Quick, test_cond_holds);
    ("stores_of", `Quick, test_stores_of);
    ("classify MP+fences", `Quick, test_classify_mp_fenced);
    ("classify CoRR", `Quick, test_classify_corr);
    ("classify AMO", `Quick, test_classify_amo);
    ("classify dependencies", `Quick, test_classify_deps);
    ("classify internal rf", `Quick, test_classify_internal_rf);
    ("coverage counts nonzero", `Quick, test_coverage_counts);
    ("forbidden outcomes have cycles", `Slow, test_forbidden_outcomes_have_cycles);
    ("generated suite covers all categories", `Quick, test_coverage_every_category_generated);
    ("generator deterministic", `Quick, test_generator_deterministic);
    ("generator produces suite", `Quick, test_generator_communicates);
    qtest prop_generated_enumerable;
    qtest prop_generated_pc_subset_wc;
  ]
