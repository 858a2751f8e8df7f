open Ise_model

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

(* ------------------------------------------------------------------ *)
(* Rel                                                                 *)

let test_rel_closure () =
  let r = Rel.of_list 4 [ (0, 1); (1, 2) ] in
  let c = Rel.transitive_closure r in
  check Alcotest.bool "0->2" true (Rel.mem c 0 2);
  check Alcotest.bool "not 2->0" false (Rel.mem c 2 0)

let test_rel_acyclic () =
  check Alcotest.bool "chain acyclic" true
    (Rel.is_acyclic (Rel.of_list 3 [ (0, 1); (1, 2) ]));
  check Alcotest.bool "cycle detected" false
    (Rel.is_acyclic (Rel.of_list 3 [ (0, 1); (1, 2); (2, 0) ]))

let test_rel_cycle_witness () =
  let r = Rel.of_list 3 [ (0, 1); (1, 2); (2, 0) ] in
  match Rel.cycle_witness r with
  | None -> Alcotest.fail "expected a cycle"
  | Some path ->
    check Alcotest.bool "closes" true
      (List.length path >= 2 && List.hd path = List.nth path (List.length path - 1))

let test_rel_compose () =
  let r = Rel.of_list 3 [ (0, 1) ] and s = Rel.of_list 3 [ (1, 2) ] in
  check Alcotest.bool "composition" true (Rel.mem (Rel.compose r s) 0 2);
  check Alcotest.int "only one pair" 1 (Rel.cardinal (Rel.compose r s))

let test_rel_inverse () =
  let r = Rel.of_list 2 [ (0, 1) ] in
  check Alcotest.bool "inverted" true (Rel.mem (Rel.inverse r) 1 0)

let test_rel_topo () =
  let r = Rel.of_list 3 [ (2, 1); (1, 0) ] in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "topo order"
    (Some [ 2; 1; 0 ])
    (Rel.topological_order r);
  let c = Rel.of_list 2 [ (0, 1); (1, 0) ] in
  check Alcotest.bool "cyclic has no topo" true (Rel.topological_order c = None)

let prop_closure_idempotent =
  QCheck.Test.make ~name:"transitive closure is idempotent" ~count:100
    QCheck.(list (pair (int_range 0 5) (int_range 0 5)))
    (fun pairs ->
      let r = Rel.of_list 6 pairs in
      let c = Rel.transitive_closure r in
      Rel.equal c (Rel.transitive_closure c))

let prop_union_commutes =
  QCheck.Test.make ~name:"relation union commutes" ~count:100
    QCheck.(pair
              (list (pair (int_range 0 4) (int_range 0 4)))
              (list (pair (int_range 0 4) (int_range 0 4))))
    (fun (p1, p2) ->
      let a = Rel.of_list 5 p1 and b = Rel.of_list 5 p2 in
      Rel.equal (Rel.union a b) (Rel.union b a))

(* ------------------------------------------------------------------ *)
(* Event compilation                                                   *)

let mp_threads =
  [| [ Instr.Store (0, 1); Instr.Store (1, 1) ];
     [ Instr.Load (0, 1); Instr.Load (1, 0) ] |]

let test_compile_event_counts () =
  let g = Event.compile mp_threads in
  (* 2 init writes + 2 stores + 2 loads *)
  check Alcotest.int "event count" 6 (Array.length g.Event.events);
  let inits = Array.to_list g.Event.events |> List.filter Event.is_init in
  check Alcotest.int "init writes" 2 (List.length inits)

let test_compile_po () =
  let g = Event.compile mp_threads in
  let stores =
    Array.to_list g.Event.events
    |> List.filter (fun e -> Event.is_write e && not (Event.is_init e))
  in
  match stores with
  | [ a; b ] ->
    check Alcotest.bool "po between stores" true
      (Rel.mem g.Event.po a.Event.id b.Event.id)
  | _ -> Alcotest.fail "expected two stores"

let test_compile_data_dep () =
  let g =
    Event.compile [| [ Instr.Load (0, 0); Instr.Store_reg (1, 0) ] |]
  in
  check Alcotest.int "one data dep" 1 (Rel.cardinal g.Event.data_dep)

let test_compile_addr_dep () =
  let g =
    Event.compile [| [ Instr.Load (0, 0); Instr.Load_dep (1, 1, 0) ] |]
  in
  check Alcotest.int "one addr dep" 1 (Rel.cardinal g.Event.addr_dep)

let test_compile_ctrl_dep () =
  let g =
    Event.compile
      [| [ Instr.Load (0, 0); Instr.Ctrl 0; Instr.Store (1, 1); Instr.Load (1, 1) ] |]
  in
  (* ctrl dep reaches both the store and the load after the branch *)
  check Alcotest.int "ctrl deps" 2 (Rel.cardinal g.Event.ctrl_dep)

let test_compile_amo_pair () =
  let g = Event.compile [| [ Instr.Amo (0, 0, 1) ] |] in
  let rmws =
    Array.to_list g.Event.events
    |> List.filter (fun e -> e.Event.rmw_partner <> None)
  in
  check Alcotest.int "amo yields a pair" 2 (List.length rmws)

let test_compile_faulting_mark () =
  let g = Event.compile ~faulting:[ (0, 0) ] mp_threads in
  let faulting =
    Array.to_list g.Event.events |> List.filter (fun e -> e.Event.faulting)
  in
  check Alcotest.int "one faulting store" 1 (List.length faulting)

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

let test_enum_counts_mp () =
  let g = Event.compile mp_threads in
  (* each load has 2 rf choices (init or the store); co fixed. *)
  check Alcotest.int "mp candidates" 4 (Enum.count g)

let test_enum_all_well_formed () =
  let g = Event.compile mp_threads in
  Seq.iter
    (fun ex ->
      Array.iteri
        (fun i e ->
          if Event.is_read e then
            check Alcotest.bool "rf assigned" true (ex.Exec.rf.(i) >= 0))
        g.Event.events)
    (Enum.candidates g)

let test_enum_amo_atomicity () =
  (* two fetch-adds: the interleavings where both read 0 are dropped *)
  let g =
    Event.compile [| [ Instr.Amo_add (0, 0, 1) ]; [ Instr.Amo_add (0, 0, 1) ] |]
  in
  let outcomes =
    Seq.fold_left
      (fun acc ex -> Outcome.Set.add (Exec.outcome ex) acc)
      Outcome.Set.empty (Enum.candidates g)
  in
  check Alcotest.bool "final x=2 in every well-formed candidate" true
    (Outcome.Set.for_all (fun o -> Outcome.mem_value o 0 = 2) outcomes)

(* ------------------------------------------------------------------ *)
(* Axioms: classic verdicts                                            *)

let violation_mp o = Outcome.reg o 1 0 = 1 && Outcome.reg o 1 1 = 0

let test_mp_verdicts () =
  let allowed cfg = Check.allowed cfg mp_threads in
  check Alcotest.bool "SC forbids" false
    (Outcome.Set.exists violation_mp (allowed Axiom.sc));
  check Alcotest.bool "PC forbids" false
    (Outcome.Set.exists violation_mp (allowed Axiom.pc));
  check Alcotest.bool "WC allows" true
    (Outcome.Set.exists violation_mp (allowed Axiom.wc))

let test_sb_verdicts () =
  let sb =
    [| [ Instr.Store (0, 1); Instr.Load (0, 1) ];
       [ Instr.Store (1, 1); Instr.Load (1, 0) ] |]
  in
  let both_zero o = Outcome.reg o 0 0 = 0 && Outcome.reg o 1 1 = 0 in
  check Alcotest.bool "SC forbids 0,0" false
    (Outcome.Set.exists both_zero (Check.allowed Axiom.sc sb));
  check Alcotest.bool "PC allows 0,0" true
    (Outcome.Set.exists both_zero (Check.allowed Axiom.pc sb))

let test_sc_within_pc_within_wc () =
  (* model strength: allowed(SC) ⊆ allowed(PC) ⊆ allowed(WC) on MP *)
  check Alcotest.bool "SC ⊆ PC" true (Check.subset Axiom.sc Axiom.pc mp_threads);
  check Alcotest.bool "PC ⊆ WC" true (Check.subset Axiom.pc Axiom.wc mp_threads)

let test_fence_restores_order () =
  let mp_f =
    [| [ Instr.Store (0, 1); Instr.Fence; Instr.Store (1, 1) ];
       [ Instr.Load (0, 1); Instr.Fence; Instr.Load (1, 0) ] |]
  in
  check Alcotest.bool "WC+fences forbids" false
    (Outcome.Set.exists violation_mp (Check.allowed Axiom.wc mp_f))

let test_coherence_all_models () =
  (* CoWW: final value must be the po-last store *)
  let coww = [| [ Instr.Store (0, 1); Instr.Store (0, 2) ] |] in
  List.iter
    (fun cfg ->
      let allowed = Check.allowed cfg coww in
      check Alcotest.bool
        (Axiom.name cfg ^ " final is 2")
        true
        (Outcome.Set.for_all (fun o -> Outcome.mem_value o 0 = 2) allowed))
    [ Axiom.sc; Axiom.pc; Axiom.wc ]

(* ------------------------------------------------------------------ *)
(* Imprecise extension                                                 *)

let test_split_stream_mp_violation () =
  let cfg = Axiom.with_faults Axiom.Split_stream Axiom.pc in
  let allowed = Check.allowed ~faulting:[ (0, 0) ] cfg mp_threads in
  check Alcotest.bool "split stream admits the MP violation" true
    (Outcome.Set.exists violation_mp allowed)

let test_same_stream_mp_no_violation () =
  let cfg = Axiom.with_faults Axiom.Same_stream Axiom.pc in
  let allowed = Check.allowed ~faulting:[ (0, 0) ] cfg mp_threads in
  check Alcotest.bool "same stream forbids the MP violation" false
    (Outcome.Set.exists violation_mp allowed)

let test_fig2_operational () =
  check Alcotest.bool "split violates PC" true
    (Imprecise.fig2_violates_pc Imprecise.Split);
  check Alcotest.bool "same preserves PC" false
    (Imprecise.fig2_violates_pc Imprecise.Same)

let test_fig2_outcome_space () =
  (* same-stream outcomes must be a subset of split-stream outcomes *)
  let as_set l = List.sort_uniq compare l in
  let split = as_set (Imprecise.fig2_outcomes Imprecise.Split) in
  let same = as_set (Imprecise.fig2_outcomes Imprecise.Same) in
  check Alcotest.bool "same ⊆ split reachable observations" true
    (List.for_all (fun o -> List.mem o split) same)

let test_same_stream_preserves_theorems () =
  List.iter
    (fun threads ->
      check Alcotest.bool "same-stream preserves PC" true
        (Imprecise.same_stream_preserves Axiom.pc threads);
      check Alcotest.bool "same-stream preserves WC" true
        (Imprecise.same_stream_preserves Axiom.wc threads))
    [ mp_threads;
      [| [ Instr.Store (0, 1); Instr.Load (0, 1) ];
         [ Instr.Store (1, 1); Instr.Load (1, 0) ] |] ]

let test_split_stream_weakens_theorems () =
  check Alcotest.bool "split-stream only adds outcomes" true
    (Imprecise.split_stream_weakens Axiom.pc mp_threads)

let test_split_equals_same_under_wc () =
  (* §4.4: in WC the supply order is irrelevant — split and same stream
     coincide. *)
  List.iter
    (fun faulting ->
      check Alcotest.bool "WC split == WC same" true
        (Check.equivalent ~faulting
           (Axiom.with_faults Axiom.Split_stream Axiom.wc)
           (Axiom.with_faults Axiom.Same_stream Axiom.wc)
           mp_threads))
    (Imprecise.all_store_subsets mp_threads)

(* ------------------------------------------------------------------ *)
(* Outcome                                                             *)

let test_explain_forbidden_cycle () =
  (* the MP violation under PC: explain must return a cycle *)
  let target =
    Outcome.make ~regs:[ ((1, 0), 1); ((1, 1), 0) ] ~mem:[ (0, 1); (1, 1) ]
  in
  (match Check.explain Axiom.pc mp_threads target with
   | Check.Forbidden_cycle cycle ->
     check Alcotest.bool "non-trivial cycle" true (List.length cycle >= 3)
   | Check.Allowed_by _ -> Alcotest.fail "PC forbids the MP violation"
   | Check.Unreachable -> Alcotest.fail "the outcome has candidates")

let test_explain_allowed () =
  let target =
    Outcome.make ~regs:[ ((1, 0), 1); ((1, 1), 0) ] ~mem:[ (0, 1); (1, 1) ]
  in
  (match Check.explain Axiom.wc mp_threads target with
   | Check.Allowed_by witness ->
     check Alcotest.bool "witness rendered" true (String.length witness > 0)
   | _ -> Alcotest.fail "WC allows the MP violation")

let test_explain_unreachable () =
  let target = Outcome.make ~regs:[ ((1, 0), 42) ] ~mem:[] in
  check Alcotest.bool "no store writes 42" true
    (Check.explain Axiom.wc mp_threads target = Check.Unreachable)

let test_outcome_canonical () =
  let a = Outcome.make ~regs:[ ((0, 1), 5); ((0, 0), 3) ] ~mem:[ (1, 2); (0, 1) ] in
  let b = Outcome.make ~regs:[ ((0, 0), 3); ((0, 1), 5) ] ~mem:[ (0, 1); (1, 2) ] in
  check Alcotest.bool "order-insensitive equality" true (Outcome.equal a b)

let test_outcome_defaults () =
  let o = Outcome.make ~regs:[] ~mem:[] in
  check Alcotest.int "missing reg is 0" 0 (Outcome.reg o 3 7);
  check Alcotest.int "missing mem is 0" 0 (Outcome.mem_value o 9)

let prop_enum_sc_subset_wc =
  QCheck.Test.make ~name:"allowed(SC) ⊆ allowed(WC) on random programs" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let t = Ise_litmus.Gen.generate rng Ise_litmus.Gen.default_params in
      Check.subset Axiom.sc Axiom.wc t.Ise_litmus.Lit_test.threads)

(* ------------------------------------------------------------------ *)
(* fast-enumerator oracle: Enum.search must agree with the reference
   enumerate-then-check engine on outcome sets, consistent-candidate
   counts and verdicts, for every model × fault mode, with and without
   symmetry reduction *)

let all_configs =
  List.concat_map
    (fun m ->
      List.map
        (fun fm -> Axiom.with_faults fm m)
        [ Axiom.Precise; Axiom.Same_stream; Axiom.Split_stream ])
    [ Axiom.sc; Axiom.pc; Axiom.wc ]

let oracle_check name (t : Ise_litmus.Lit_test.t) =
  let faulting = Ise_litmus.Lit_test.stores_of t in
  List.iter
    (fun cfg ->
      let ref_set, _total, ref_consistent =
        Check.allowed_with_stats ~faulting cfg t.Ise_litmus.Lit_test.threads
      in
      List.iter
        (fun symmetry ->
          let fast_set, stats =
            Enum.search ~symmetry ~faulting cfg t.Ise_litmus.Lit_test.threads
          in
          let ctx =
            Printf.sprintf "%s / %s / symmetry=%b" name (Axiom.name cfg)
              symmetry
          in
          check Alcotest.bool (ctx ^ ": outcome sets equal") true
            (Outcome.Set.equal ref_set fast_set);
          check Alcotest.int (ctx ^ ": consistent count") ref_consistent
            stats.Enum.consistent)
        [ true; false ])
    all_configs

let test_enum_oracle_library () =
  List.iter
    (fun t -> oracle_check t.Ise_litmus.Lit_test.name t)
    Ise_litmus.Library.all

let corpus_dir () =
  match
    List.find_opt
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "../../../corpus"; "../../corpus"; "../corpus"; "corpus" ]
  with
  | Some d -> d
  | None -> Alcotest.fail "corpus/ directory not found from test cwd"

let test_enum_oracle_corpus () =
  let entries =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Ok e -> Some e.Ise_fuzz.Corpus.e_test
        | Error _ -> None)
      (Ise_fuzz.Corpus.load_dir (corpus_dir ()))
  in
  check Alcotest.bool "corpus non-empty" true (entries <> []);
  List.iteri
    (fun i t -> oracle_check (Printf.sprintf "corpus#%d" i) t)
    entries

let test_enum_oracle_generated () =
  (* random programs reach shapes the hand-written library does not:
     AMOs, dependencies, odd thread/location counts *)
  let tests =
    Ise_litmus.Gen.generate_suite ~seed:7 ~count:25
      Ise_litmus.Gen.default_params
  in
  List.iteri
    (fun i t -> oracle_check (Printf.sprintf "gen#%d" i) t)
    tests

let test_enum_verdicts_match_reference () =
  (* the user-visible verdict (condition satisfiable in the allowed
     set) is identical whichever engine computes the set *)
  List.iter
    (fun (t : Ise_litmus.Lit_test.t) ->
      List.iter
        (fun cfg ->
          let via_fast = Ise_litmus.Lit_test.satisfiable cfg t in
          let via_ref =
            Outcome.Set.exists
              (Ise_litmus.Lit_test.cond_holds t.Ise_litmus.Lit_test.cond)
              (Check.allowed_ref cfg t.Ise_litmus.Lit_test.threads)
          in
          check Alcotest.bool
            (t.Ise_litmus.Lit_test.name ^ "/" ^ Axiom.name cfg ^ " verdict")
            via_ref via_fast)
        [ Axiom.sc; Axiom.pc; Axiom.wc ])
    Ise_litmus.Library.all

let test_enum_published_tso_outcomes () =
  (* cross-check against the published SPARC-TSO/x86-TSO verdicts,
     which PC models: the store buffer reorders a store past a later
     load of a different location (SB observable), and nothing else —
     load forwarding keeps MP/LB/IRIW/2+2W and per-location coherence
     sequential.  This anchors the fast engine to literature ground
     truth rather than only to our own reference implementation. *)
  let sat = Ise_litmus.Lit_test.satisfiable Axiom.pc in
  let open Ise_litmus.Library in
  check Alcotest.bool "SB relaxed outcome allowed under TSO" true (sat sb);
  check Alcotest.bool "MP violation forbidden under TSO" false (sat mp);
  check Alcotest.bool "LB violation forbidden under TSO" false (sat lb);
  check Alcotest.bool "IRIW split reads forbidden under TSO" false (sat iriw);
  check Alcotest.bool "2+2W violation forbidden under TSO" false
    (sat two_plus_two_w);
  check Alcotest.bool "CoRR violation forbidden under TSO" false (sat corr);
  (* and the fence restores SC on SB, per the TSO literature *)
  check Alcotest.bool "SB+fences forbidden under TSO" false (sat sb_fenced)

let suite =
  [
    ("rel closure", `Quick, test_rel_closure);
    ("rel acyclicity", `Quick, test_rel_acyclic);
    ("rel cycle witness", `Quick, test_rel_cycle_witness);
    ("rel compose", `Quick, test_rel_compose);
    ("rel inverse", `Quick, test_rel_inverse);
    ("rel topological order", `Quick, test_rel_topo);
    qtest prop_closure_idempotent;
    qtest prop_union_commutes;
    ("compile event counts", `Quick, test_compile_event_counts);
    ("compile po", `Quick, test_compile_po);
    ("compile data dep", `Quick, test_compile_data_dep);
    ("compile addr dep", `Quick, test_compile_addr_dep);
    ("compile ctrl dep", `Quick, test_compile_ctrl_dep);
    ("compile amo pair", `Quick, test_compile_amo_pair);
    ("compile faulting mark", `Quick, test_compile_faulting_mark);
    ("enum candidate count", `Quick, test_enum_counts_mp);
    ("enum well-formed", `Quick, test_enum_all_well_formed);
    ("enum amo atomicity", `Quick, test_enum_amo_atomicity);
    ("MP verdicts", `Quick, test_mp_verdicts);
    ("SB verdicts", `Quick, test_sb_verdicts);
    ("model strength ordering", `Quick, test_sc_within_pc_within_wc);
    ("fences restore order", `Quick, test_fence_restores_order);
    ("coherence everywhere", `Quick, test_coherence_all_models);
    ("split-stream MP violation", `Quick, test_split_stream_mp_violation);
    ("same-stream MP safety", `Quick, test_same_stream_mp_no_violation);
    ("fig2 operational race", `Quick, test_fig2_operational);
    ("fig2 outcome spaces", `Quick, test_fig2_outcome_space);
    ("same-stream preservation theorem", `Quick, test_same_stream_preserves_theorems);
    ("split-stream weakening theorem", `Quick, test_split_stream_weakens_theorems);
    ("WC split == same", `Quick, test_split_equals_same_under_wc);
    ("explain forbidden cycle", `Quick, test_explain_forbidden_cycle);
    ("explain allowed witness", `Quick, test_explain_allowed);
    ("explain unreachable", `Quick, test_explain_unreachable);
    ("outcome canonical form", `Quick, test_outcome_canonical);
    ("outcome defaults", `Quick, test_outcome_defaults);
    qtest prop_enum_sc_subset_wc;
    ("enum oracle: litmus library", `Quick, test_enum_oracle_library);
    ("enum oracle: corpus", `Quick, test_enum_oracle_corpus);
    ("enum oracle: generated programs", `Quick, test_enum_oracle_generated);
    ("enum oracle: verdict equality", `Quick, test_enum_verdicts_match_reference);
    ("enum vs published TSO outcomes", `Quick, test_enum_published_tso_outcomes);
  ]
