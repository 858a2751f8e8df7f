(* Benchmark harness: regenerates every table and figure of the paper.

   Usage:
     dune exec bench/main.exe              (everything)
     dune exec bench/main.exe -- table3    (one experiment)
     dune exec bench/main.exe -- -j 4      (sections in parallel)

   Sections: table1 table2 table3 table5 table6 fig1 fig2 fig5 fig6
             litmus ablation bechamel enum pool serve fabric

   With -j N (default: detected core count) sections run on an
   Ise_pool worker pool, each with stdout captured and re-emitted in
   section order, so the combined output is byte-identical to a
   sequential run; -j 1 runs everything in-process. *)

open Ise_util
open Ise_sim

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#');
  flush stdout

(* Machine-readable results alongside the printed tables, one
   BENCH_<section>.json per section, so the numbers are trackable
   across revisions without scraping stdout.  Every file carries the
   run_id/git-rev stamp so it joins with ledger entries and traces. *)
let emit_bench name json =
  let stamped =
    match json with
    | Ise_telemetry.Json.Obj fields ->
      Ise_telemetry.Json.Obj (Ise_obs.Runinfo.stamp () @ fields)
    | other ->
      Ise_telemetry.Json.Obj (Ise_obs.Runinfo.stamp () @ [ ("rows", other) ])
  in
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  output_string oc (Ise_telemetry.Json.to_string_pretty stamped);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[bench] wrote %s\n%!" file

let base = Config.default.Config.einject_base

(* ------------------------------------------------------------------ *)
(* Table 1: classification of x86 exceptions                           *)

let table1 () =
  section "Table 1: Classification of x86 exceptions";
  let t = Table.create ~headers:[ "Class"; "Stage"; "Exceptions" ] in
  List.iter
    (fun e ->
      Table.add_row t
        [ Ise_core.Fault.x86_class_to_string e.Ise_core.Fault.cls;
          e.Ise_core.Fault.stage;
          String.concat ", " e.Ise_core.Fault.names ])
    Ise_core.Fault.x86_taxonomy;
  Table.print t;
  print_endline
    "Only machine checks originate in the cache/memory hierarchy — the\n\
     paper's starting observation (Section 2.2)."

(* ------------------------------------------------------------------ *)
(* Table 2: system parameters                                          *)

let table2 () =
  section "Table 2: Simulated system parameters";
  Format.printf "%a@." Config.pp Config.default

(* ------------------------------------------------------------------ *)
(* Table 3: WC speedup over SC and ASO speculation state               *)

let table3_length = 20_000
let table3_cores = 4

let table3 () =
  section "Table 3: Instruction mix, WC speedup, ASO speculation state (KB)";
  print_endline
    "(per-core speculation state required to reach 98% of WC IPC;\n\
     three systems: baseline, 2x memory latency, 4x store-to-load skew)\n";
  let t =
    Table.create
      ~headers:
        [ "Suite"; "Workload"; "St%"; "Ld%"; "Sync%"; "WC speedup";
          "KB base"; "KB 2xmem"; "KB 4xskew" ]
  in
  let rows = ref [] in
  List.iter
    (fun p ->
      let mk () =
        Ise_workload.Mix.multicore_streams ~seed:5
          ~length_per_core:table3_length ~cores:table3_cores p
      in
      let size cfg =
        Ise_aso.Aso_core.size_for_wc_performance ~cfg ~programs:mk ()
      in
      let s_base = size Config.default in
      let s_2x = size (Config.with_2x_memory Config.default) in
      let s_skew = size (Config.with_4x_store_skew Config.default) in
      Table.add_row t
        [ p.Ise_workload.Mix.suite; p.Ise_workload.Mix.name;
          Table.cell_i p.Ise_workload.Mix.store_pct;
          Table.cell_i p.Ise_workload.Mix.load_pct;
          Table.cell_i p.Ise_workload.Mix.sync_pct;
          Table.cell_f s_base.Ise_aso.Aso_core.wc_speedup;
          Table.cell_f ~decimals:1 s_base.Ise_aso.Aso_core.state_kb;
          Table.cell_f ~decimals:1 s_2x.Ise_aso.Aso_core.state_kb;
          Table.cell_f ~decimals:1 s_skew.Ise_aso.Aso_core.state_kb ];
      rows :=
        Ise_telemetry.Json.Obj
          [ ("suite", Ise_telemetry.Json.String p.Ise_workload.Mix.suite);
            ("workload", Ise_telemetry.Json.String p.Ise_workload.Mix.name);
            ("wc_speedup",
             Ise_telemetry.Json.Float s_base.Ise_aso.Aso_core.wc_speedup);
            ("kb_base",
             Ise_telemetry.Json.Float s_base.Ise_aso.Aso_core.state_kb);
            ("kb_2xmem",
             Ise_telemetry.Json.Float s_2x.Ise_aso.Aso_core.state_kb);
            ("kb_4xskew",
             Ise_telemetry.Json.Float s_skew.Ise_aso.Aso_core.state_kb) ]
        :: !rows;
      flush stdout)
    Ise_workload.Mix.table3;
  Table.print t;
  emit_bench "table3" (Ise_telemetry.Json.List (List.rev !rows));
  print_endline
    "\nShape checks (paper): 2x memory latency needs about the same state\n\
     as the baseline; 4x store-to-load skew needs considerably more;\n\
     the store-heavy BC gains the most from WC, SSSP the least."

(* ------------------------------------------------------------------ *)
(* Table 5: the contract, exercised                                    *)

let table5 () =
  section "Table 5: The cores/interface/OS contract (checked on a live run)";
  let prog =
    List.init 8 (fun i ->
        Sim_instr.St
          { addr = Sim_instr.addr (base + (i * 4096));
            data = Sim_instr.Imm (i + 1) })
  in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  ignore (Ise_os.Handler.install m);
  for i = 0 to 7 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.run m;
  let trace = Machine.trace m in
  Printf.printf "interface operations traced: %d\n" (List.length trace);
  List.iteri
    (fun i ev ->
      if i < 12 then Format.printf "  %a@." Ise_core.Contract.pp_event ev)
    trace;
  if List.length trace > 12 then Printf.printf "  ... (%d more)\n" (List.length trace - 12);
  (match Machine.check_contract m with
   | Ok () -> print_endline "contract: SATISFIED (all three rules)"
   | Error v ->
     Printf.printf "contract: VIOLATED [%s] %s\n" v.Ise_core.Contract.rule
       v.Ise_core.Contract.detail)

(* ------------------------------------------------------------------ *)
(* Table 6: litmus coverage of ordering relations                      *)

let table6 () =
  section "Table 6: Ordering relations covered by the litmus suite";
  let generated =
    Ise_litmus.Gen.generate_suite ~seed:2023 ~count:1574
      Ise_litmus.Gen.default_params
  in
  let suite = Ise_litmus.Library.all @ generated in
  Printf.printf "suite: %d hand-written + %d generated tests\n\n"
    (List.length Ise_litmus.Library.all)
    (List.length generated);
  let t =
    Table.create ~headers:[ "Ordering relation"; "Explanation"; "Cases covered" ]
  in
  List.iter
    (fun (cat, n) ->
      Table.add_row t
        [ Ise_litmus.Classify.name cat; Ise_litmus.Classify.description cat;
          Table.cell_i n ])
    (Ise_litmus.Classify.coverage suite);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 1: the message-passing litmus test                           *)

let fig1 () =
  section "Figure 1: Message-passing litmus test (fenced)";
  let test = Ise_litmus.Library.mp_fenced in
  Format.printf "%a@." Ise_litmus.Lit_test.pp test;
  let allowed = Ise_model.Check.allowed Ise_model.Axiom.wc test.Ise_litmus.Lit_test.threads in
  print_endline "model-allowed outcomes under WC (with fences):";
  Ise_model.Outcome.Set.iter
    (fun o -> Format.printf "  %a@." Ise_model.Outcome.pp o)
    allowed;
  print_endline "forbidden outcome: 1:r0=1 (L(B)=1) with 1:r1=0 (L(A)=0)";
  let violation =
    Ise_model.Outcome.make
      ~regs:[ ((1, 0), 1); ((1, 1), 0) ]
      ~mem:[ (0, 1); (1, 1) ]
  in
  (match
     Ise_model.Check.explain Ise_model.Axiom.wc test.Ise_litmus.Lit_test.threads
       violation
   with
   | Ise_model.Check.Forbidden_cycle cycle ->
     print_endline "the happens-before cycle that forbids it:";
     List.iter (fun e -> Printf.printf "    %s ->\n" e) cycle
   | _ -> print_endline "(unexpectedly not forbidden)");
  let r = Ise_litmus.Lit_run.run ~seeds:30 ~inject_faults:true test in
  Printf.printf
    "operational: %d runs with exceptions on every access — violation \
     observed: %b (pass=%b, contract=%b)\n"
    r.Ise_litmus.Lit_run.runs r.Ise_litmus.Lit_run.interesting_observed
    r.Ise_litmus.Lit_run.pass r.Ise_litmus.Lit_run.contract_ok

(* ------------------------------------------------------------------ *)
(* Figure 2: the PUT/GET race                                          *)

let fig2 () =
  section "Figure 2: PUT/GET race — split stream vs same stream";
  let show mode name =
    let outcomes = Ise_model.Imprecise.fig2_outcomes mode in
    Printf.printf "%s: reachable observer outcomes (L(B), L(A)):\n" name;
    List.iter
      (fun o ->
        let violation = o.Ise_model.Imprecise.l_b = 1 && o.Ise_model.Imprecise.l_a = 0 in
        Printf.printf "  L(B)=%d L(A)=%d%s\n" o.Ise_model.Imprecise.l_b
          o.Ise_model.Imprecise.l_a
          (if violation then "   <-- PC VIOLATION" else ""))
      outcomes;
    Printf.printf "  violates PC: %b\n" (Ise_model.Imprecise.fig2_violates_pc mode)
  in
  show Ise_model.Imprecise.Split "(a) split stream";
  show Ise_model.Imprecise.Same "(b) same stream";
  print_endline
    "\nConclusion (Section 4.5-4.6): the split-stream treatment requires a\n\
     hardware/software barrier; the same-stream treatment is race-free."

(* ------------------------------------------------------------------ *)
(* Figure 5: overhead breakdown with and without batching              *)

let fig5 () =
  section "Figure 5: Overhead breakdown of imprecise exceptions (cycles/store)";
  let unbatched = Ise_workload.Mbench.run ~stores:2000 ~batching:false () in
  let batched = Ise_workload.Mbench.run ~stores:2000 ~batching:true () in
  let t =
    Table.create
      ~headers:
        [ "Variant"; "uarch"; "apply"; "other OS"; "total"; "avg batch";
          "invocations" ]
  in
  let row name (r : Ise_workload.Mbench.result) =
    Table.add_row t
      [ name;
        Table.cell_f ~decimals:1 r.Ise_workload.Mbench.uarch_per_store;
        Table.cell_f ~decimals:1 r.Ise_workload.Mbench.apply_per_store;
        Table.cell_f ~decimals:1 r.Ise_workload.Mbench.other_per_store;
        Table.cell_f ~decimals:1 r.Ise_workload.Mbench.total_per_store;
        Table.cell_f ~decimals:1 r.Ise_workload.Mbench.avg_batch;
        Table.cell_i r.Ise_workload.Mbench.invocations ]
  in
  row "no batching" unbatched;
  row "batching" batched;
  Table.print t;
  let variant (r : Ise_workload.Mbench.result) =
    Ise_telemetry.Json.Obj
      [ ("uarch_per_store",
         Ise_telemetry.Json.Float r.Ise_workload.Mbench.uarch_per_store);
        ("apply_per_store",
         Ise_telemetry.Json.Float r.Ise_workload.Mbench.apply_per_store);
        ("other_per_store",
         Ise_telemetry.Json.Float r.Ise_workload.Mbench.other_per_store);
        ("total_per_store",
         Ise_telemetry.Json.Float r.Ise_workload.Mbench.total_per_store);
        ("avg_batch",
         Ise_telemetry.Json.Float r.Ise_workload.Mbench.avg_batch);
        ("invocations",
         Ise_telemetry.Json.Int r.Ise_workload.Mbench.invocations) ]
  in
  emit_bench "fig5"
    (Ise_telemetry.Json.Obj
       [ ("no_batching", variant unbatched); ("batching", variant batched);
         ("speedup",
          Ise_telemetry.Json.Float
            (Ise_workload.Mbench.speedup unbatched batched)) ]);
  Printf.printf
    "\nper-store speedup from batching: %.2fx\n\
     (paper: ~600 cycles per store unbatched, microarchitectural part a\n\
     tiny fraction, significant reduction with batching)\n"
    (Ise_workload.Mbench.speedup unbatched batched)

(* ------------------------------------------------------------------ *)
(* Figure 6: relative performance of GAP and Tailbench                 *)

let fig6 () =
  section "Figure 6: Relative performance with imprecise store exceptions";
  let t =
    Table.create
      ~headers:
        [ "Workload"; "Metric"; "Baseline"; "Imprecise"; "Relative";
          "Imprecise exns"; "Precise exns" ]
  in
  (* GAP kernels on a power-law graph, metric = execution time *)
  let rng = Rng.create 2023 in
  let g = Ise_workload.Graph.power_law rng ~nodes:3000 ~avg_degree:8 in
  Printf.printf "GAP graph: %d nodes, %d edges\n" (Ise_workload.Graph.nodes g)
    (Ise_workload.Graph.nedges g);
  let bench_rows = ref [] in
  let bench_row name metric ~baseline ~imprecise ~relative ~exns =
    bench_rows :=
      Ise_telemetry.Json.Obj
        [ ("workload", Ise_telemetry.Json.String name);
          ("metric", Ise_telemetry.Json.String metric);
          ("baseline", Ise_telemetry.Json.Float baseline);
          ("imprecise", Ise_telemetry.Json.Float imprecise);
          ("relative", Ise_telemetry.Json.Float relative);
          ("imprecise_exceptions", Ise_telemetry.Json.Int exns) ]
      :: !bench_rows
  in
  let gap_row name tr =
    let cmp =
      Ise_workload.Runner.compare_with_faults
        ~mk_programs:(fun () -> [| Ise_workload.Gap.stream_of tr |])
        ~mark:(fun m -> Ise_workload.Gap.mark_faulting m tr)
        ~verify:(fun m -> Ise_workload.Gap.verify m tr)
        ()
    in
    Table.add_row t
      [ name; "exec cycles";
        Table.cell_i cmp.Ise_workload.Runner.baseline.Ise_workload.Runner.cycles;
        Table.cell_i cmp.Ise_workload.Runner.imprecise.Ise_workload.Runner.cycles;
        Table.cell_f ~decimals:3 cmp.Ise_workload.Runner.relative_perf;
        Table.cell_i
          cmp.Ise_workload.Runner.imprecise.Ise_workload.Runner
            .imprecise_exceptions;
        Table.cell_i
          cmp.Ise_workload.Runner.imprecise.Ise_workload.Runner.precise_faults ];
    bench_row name "exec_cycles"
      ~baseline:
        (float_of_int
           cmp.Ise_workload.Runner.baseline.Ise_workload.Runner.cycles)
      ~imprecise:
        (float_of_int
           cmp.Ise_workload.Runner.imprecise.Ise_workload.Runner.cycles)
      ~relative:cmp.Ise_workload.Runner.relative_perf
      ~exns:
        cmp.Ise_workload.Runner.imprecise.Ise_workload.Runner
          .imprecise_exceptions;
    flush stdout
  in
  gap_row "BFS" (Ise_workload.Gap.bfs g ~base ~src:0);
  gap_row "SSSP" (Ise_workload.Gap.sssp ~max_rounds:3 g ~base ~src:0);
  gap_row "BC" (Ise_workload.Gap.bc g ~base ~sources:[ 0 ]);
  (* Tailbench request loops, metric = throughput *)
  let tail_row name (tr : Ise_workload.Tailbench.trace) =
    let run mark =
      let m =
        Machine.create ~programs:[| Ise_workload.Tailbench.stream_of tr |] ()
      in
      Machine.set_trace_enabled m false;
      let os = Ise_os.Handler.install m in
      if mark then Ise_workload.Tailbench.mark_faulting m tr;
      Machine.run m;
      let imprecise =
        (Core.stats (Machine.core m 0)).Core.imprecise_exceptions
      in
      (Ise_workload.Tailbench.throughput tr ~cycles:(Machine.cycles m),
       imprecise, os.Ise_os.Handler.precise_faults)
    in
    let tput_base, _, _ = run false in
    let tput_imp, imprecise, precise = run true in
    Table.add_row t
      [ name; "req/kcycle";
        Table.cell_f ~decimals:2 tput_base;
        Table.cell_f ~decimals:2 tput_imp;
        Table.cell_f ~decimals:3 (tput_imp /. tput_base);
        Table.cell_i imprecise; Table.cell_i precise ];
    bench_row name "req_per_kcycle" ~baseline:tput_base ~imprecise:tput_imp
      ~relative:(tput_imp /. tput_base) ~exns:imprecise;
    flush stdout
  in
  (* fixed data structures, so more requests amortise the one-time
     first-touch faults — the paper runs minutes of requests *)
  tail_row "Silo" (Ise_workload.Tailbench.silo ~requests:15_000 ~base ());
  tail_row "Masstree"
    (Ise_workload.Tailbench.masstree ~requests:50_000 ~base ());
  Table.print t;
  emit_bench "fig6" (Ise_telemetry.Json.List (List.rev !bench_rows));
  print_endline
    "\nAll workloads run start to finish with exceptions transparently\n\
     handled (results verified against fault-free runs).  The paper\n\
     reports >96.5% relative performance on GAP and <4% throughput loss\n\
     on Tailbench at a much lower exception-per-instruction rate (its\n\
     graphs are ~300x larger, so fixed handler costs amortise further)."

(* ------------------------------------------------------------------ *)
(* Litmus campaign (the §6.3 experiment)                               *)

let litmus () =
  section "Litmus campaign: observed ⊆ allowed under error injection (§6.3)";
  let t_start = Unix.gettimeofday () in
  let generated =
    Ise_litmus.Gen.generate_suite ~seed:7 ~count:40 Ise_litmus.Gen.default_params
  in
  let campaigns = ref [] in
  let campaign name cfg tests =
    let results =
      Ise_litmus.Lit_run.run_suite ~seeds:12 ~inject_faults:true ~cfg tests
    in
    let failed =
      List.filter
        (fun r -> not (r.Ise_litmus.Lit_run.pass && r.Ise_litmus.Lit_run.contract_ok))
        results
    in
    let imprecise =
      List.fold_left
        (fun acc r -> acc + r.Ise_litmus.Lit_run.imprecise_exceptions)
        0 results
    in
    let precise =
      List.fold_left
        (fun acc r -> acc + r.Ise_litmus.Lit_run.precise_exceptions)
        0 results
    in
    Printf.printf
      "%-4s %3d tests x 12 runs: %s (%d imprecise + %d precise exceptions \
       handled)\n"
      name (List.length tests)
      (if failed = [] then "NO VIOLATIONS"
       else Printf.sprintf "%d FAILURES" (List.length failed))
      imprecise precise;
    List.iter
      (fun r ->
        Printf.printf "  FAILED: %s\n" r.Ise_litmus.Lit_run.test.Ise_litmus.Lit_test.name)
      failed;
    campaigns :=
      Ise_telemetry.Json.Obj
        [ ("model", Ise_telemetry.Json.String name);
          ("tests", Ise_telemetry.Json.Int (List.length tests));
          ("failures", Ise_telemetry.Json.Int (List.length failed));
          ("imprecise_exceptions", Ise_telemetry.Json.Int imprecise);
          ("precise_exceptions", Ise_telemetry.Json.Int precise) ]
      :: !campaigns;
    flush stdout
  in
  campaign "WC" (Config.with_consistency Ise_model.Axiom.Wc Config.default)
    (Ise_litmus.Library.all @ generated);
  campaign "PC" (Config.with_consistency Ise_model.Axiom.Pc Config.default)
    Ise_litmus.Library.all;
  campaign "SC" (Config.with_consistency Ise_model.Axiom.Sc Config.default)
    Ise_litmus.Library.all;
  let wall = Unix.gettimeofday () -. t_start in
  Printf.printf "litmus section wall: %.3f s\n" wall;
  emit_bench "litmus"
    (Ise_telemetry.Json.Obj
       [ ("campaigns", Ise_telemetry.Json.List (List.rev !campaigns));
         (* wall_s tracks the §6.3 inner loop across commits; the
            model-side verdict work dominates it, so an enumerator
            regression shows up here first *)
         ("wall_s", Ise_telemetry.Json.Float wall) ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  section "Ablation 1: batching sweep (analytic model, cycles per store)";
  let t = Table.create ~headers:[ "Batch size"; "uarch"; "apply"; "other"; "total" ] in
  List.iter
    (fun n ->
      let b =
        Ise_core.Batch.per_store_overhead Ise_core.Batch.default_cost_model
          ~batch_size:n
      in
      Table.add_row t
        [ Table.cell_i n;
          Table.cell_f ~decimals:1 b.Ise_core.Batch.uarch;
          Table.cell_f ~decimals:1 b.Ise_core.Batch.apply;
          Table.cell_f ~decimals:1 b.Ise_core.Batch.os_other_cycles;
          Table.cell_f ~decimals:1 (Ise_core.Batch.total b) ])
    [ 1; 2; 4; 8; 16; 32 ];
  Table.print t;

  section "Ablation 2: batching with major faults (IO overlap)";
  let t = Table.create ~headers:[ "Batch size"; "total cycles/store" ] in
  List.iter
    (fun n ->
      let b =
        Ise_core.Batch.per_store_overhead ~major_faults:true
          Ise_core.Batch.default_cost_model ~batch_size:n
      in
      Table.add_row t [ Table.cell_i n; Table.cell_f ~decimals:0 (Ise_core.Batch.total b) ])
    [ 1; 4; 16 ];
  Table.print t;

  section "Ablation 3: split stream vs same stream on the machine (MP under PC)";
  let run mode =
    let cfg =
      { (Config.with_consistency Ise_model.Axiom.Pc Config.default) with
        Config.protocol_mode = mode }
    in
    let r =
      Ise_litmus.Lit_run.run ~seeds:25 ~inject_faults:true ~cfg
        Ise_litmus.Library.mp
    in
    Printf.printf
      "%-12s observed %d outcomes, within its model: %b, MP violation seen: %b\n"
      (Ise_core.Protocol.mode_to_string mode)
      (Ise_model.Outcome.Set.cardinal r.Ise_litmus.Lit_run.observed)
      r.Ise_litmus.Lit_run.pass r.Ise_litmus.Lit_run.interesting_observed
  in
  run Ise_core.Protocol.Same_stream;
  run Ise_core.Protocol.Split_stream;
  print_endline
    "(the same-stream machine stays within PC; the split-stream machine is\n\
     checked against the weaker split-stream model — Section 4.5's point)";

  section "Ablation 4: FSB occupancy vs store-buffer size";
  let m =
    Machine.create
      ~programs:
        [| Sim_instr.of_list
             (List.init 24 (fun i ->
                  Sim_instr.St
                    { addr = Sim_instr.addr (base + (i * 4096));
                      data = Sim_instr.Imm 1 })) |]
      ()
  in
  ignore (Ise_os.Handler.install m);
  for i = 0 to 23 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.run m;
  let fsb = Core.fsb (Machine.core m 0) in
  Printf.printf
    "FSB entries=%d, high watermark=%d, total appended=%d (the FSB sized to\n\
     the SB can never overflow: one handler invocation drains it fully)\n"
    (Ise_core.Fsb.entries fsb)
    (Ise_core.Fsb.high_watermark fsb)
    (Ise_core.Fsb.total_appended fsb);

  section "Ablation 5: Midgard-style late translation as the fault source";
  let midgard = Midgard.create ~walk_latency:24 () in
  let vma = base + 0x0800_0000 in
  Midgard.add_vma midgard ~base:vma ~bytes:(64 * 4096);
  let prog =
    List.concat
      (List.init 64 (fun i ->
           [ Sim_instr.St
               { addr = Sim_instr.addr (vma + (i * 4096));
                 data = Sim_instr.Imm (i + 1) };
             Sim_instr.Nop 4 ]))
  in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  Memsys.add_interceptor (Machine.mem m) (Midgard.interceptor midgard);
  let config =
    { Ise_os.Handler.costs = Ise_core.Batch.default_cost_model;
      policy =
        Ise_os.Handler.Midgard_paging
          { midgard; major_pct = 0; io_latency = 0 } }
  in
  let os = Ise_os.Handler.install ~config m in
  Machine.run m;
  Printf.printf
    "64 stores into a demand-backed VMA: %d late-translation faults, %d\n\
     imprecise episodes (avg batch %.1f), %d page walks, all %d pages mapped\n\
     and stores applied: %b — the Midgard scenario of Section 2.2, Example 2\n"
    (Midgard.faults_taken midgard)
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions
    (Ise_util.Stats.mean os.Ise_os.Handler.batch_sizes)
    (Midgard.walks_performed midgard)
    (Midgard.pages_mapped midgard)
    (let ok = ref true in
     for i = 0 to 63 do
       if Machine.read_word m (vma + (i * 4096)) <> i + 1 then ok := false
     done;
     !ok)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let bechamel_section () =
  section "Bechamel micro-benchmarks (core primitives)";
  let open Bechamel in
  let open Toolkit in
  let fsb_roundtrip =
    Test.make ~name:"fsb-append-drain"
      (Staged.stage (fun () ->
           let fsb = Ise_core.Fsb.create ~entries:32 ~base:0 () in
           for i = 0 to 31 do
             ignore
               (Ise_core.Fsb.fsbc_append fsb
                  { Ise_core.Fault.core = 0; seq = i; addr = 8 * i; data = i;
                    byte_mask = 0xFF; code = Ise_core.Fault.Bus_error })
           done;
           ignore (Ise_core.Fsb.os_drain_all fsb)))
  in
  let mp_enumeration =
    let threads = Ise_litmus.Library.mp.Ise_litmus.Lit_test.threads in
    Test.make ~name:"model-enumerate-mp"
      (Staged.stage (fun () ->
           ignore (Ise_model.Check.allowed Ise_model.Axiom.wc threads)))
  in
  let machine_1k =
    Test.make ~name:"machine-1k-instrs"
      (Staged.stage (fun () ->
           let prog =
             List.init 1000 (fun i ->
                 if i mod 3 = 0 then
                   Sim_instr.St
                     { addr = Sim_instr.addr (0x8000_0000 + (8 * (i mod 128)));
                       data = Sim_instr.Imm i }
                 else Sim_instr.Nop 1)
           in
           let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
           Machine.set_hooks m
             { Machine.on_imprecise = (fun _ -> ());
               on_precise = (fun ~core:_ ~addr:_ ~code:_ ~retry:_ -> ()) };
           Machine.run m))
  in
  let ring =
    Test.make ~name:"ring-buffer-push-pop"
      (Staged.stage (fun () ->
           let rb = Ring_buffer.create ~capacity:64 in
           for i = 0 to 63 do
             Ring_buffer.push rb i
           done;
           while not (Ring_buffer.is_empty rb) do
             ignore (Ring_buffer.pop rb)
           done))
  in
  let tests =
    Test.make_grouped ~name:"ise" [ ring; fsb_roundtrip; mp_enumeration; machine_1k ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-28s %14.1f ns/op\n" name est
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Pool: the parallel-execution engine, benchmarked on itself          *)

(* ------------------------------------------------------------------ *)
(* enum: reference enumerate-then-check vs pruned+symmetry engine      *)

let enum_bench () =
  section "Enum: reference enumerate-then-check vs pruned+symmetry engine";
  let module Lit_test = Ise_litmus.Lit_test in
  let module Axiom = Ise_model.Axiom in
  let module Enum = Ise_model.Enum in
  let module Check = Ise_model.Check in
  (* the litmus library plus generated programs at the top of the
     validated size envelope, where pruning and symmetry actually bite *)
  let big =
    { Ise_litmus.Gen.default_params with
      Ise_litmus.Gen.max_threads = 4; max_instrs = 5; max_locs = 3 }
  in
  let tests =
    List.map (fun t -> (t.Lit_test.name, t.Lit_test.threads))
      Ise_litmus.Library.all
    @ List.mapi
        (fun i t -> (Printf.sprintf "gen%02d" i, t.Lit_test.threads))
        (Ise_litmus.Gen.generate_suite ~seed:11 ~count:12 big)
  in
  let configs = [ Axiom.sc; Axiom.pc; Axiom.wc ] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let ref_sets, ref_s =
    time (fun () ->
        List.concat_map
          (fun (_, threads) ->
            List.map (fun cfg -> Check.allowed_ref cfg threads) configs)
          tests)
  in
  let run_fast () =
    List.concat_map
      (fun (_, threads) ->
        List.map (fun cfg -> fst (Enum.search cfg threads)) configs)
      tests
  in
  let fast_sets, fast_s = time run_fast in
  let fast_sets2, _ = time run_fast in
  let equal_sets = List.for_all2 Ise_model.Outcome.Set.equal in
  let identical = equal_sets ref_sets fast_sets in
  let deterministic = equal_sets fast_sets fast_sets2 in
  let t = Table.create ~headers:[ "Engine"; "Wall (s)"; "Speedup" ] in
  Table.add_row t
    [ "reference"; Table.cell_f ~decimals:3 ref_s; Table.cell_f ~decimals:2 1. ];
  Table.add_row t
    [ "pruned+symmetry"; Table.cell_f ~decimals:3 fast_s;
      Table.cell_f ~decimals:2 (ref_s /. fast_s) ];
  Table.print t;
  Printf.printf
    "%d programs x %d models; outcome sets identical to reference: %b; \
     double-run deterministic: %b\n"
    (List.length tests) (List.length configs) identical deterministic;
  emit_bench "enum"
    (Ise_telemetry.Json.Obj
       [ ("programs", Ise_telemetry.Json.Int (List.length tests));
         ("ref_wall_s", Ise_telemetry.Json.Float ref_s);
         ("wall_s", Ise_telemetry.Json.Float fast_s);
         ("speedup_vs_ref", Ise_telemetry.Json.Float (ref_s /. fast_s));
         ("identical_to_reference", Ise_telemetry.Json.Bool identical);
         ("deterministic", Ise_telemetry.Json.Bool deterministic) ]);
  if not (identical && deterministic) then begin
    Printf.eprintf "[bench] enum: fast engine diverged from reference!\n%!";
    exit 1
  end

let pool_bench () =
  section "Pool: fixed-seed fuzz campaign, -j 1 vs -j 4";
  let jobs = 4 in
  let campaign j =
    let t0 = Unix.gettimeofday () in
    let r =
      Ise_fuzz.Campaign.run ~count:24 ~seeds_per_test:8 ~jobs:j ~seed:2023 ()
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, t1 = campaign 1 in
  let rn, tn = campaign jobs in
  (* byte-level fingerprint: counts plus every failure rendered as the
     corpus artifact it would be saved as *)
  let fingerprint (r : Ise_fuzz.Campaign.report) =
    ( r.Ise_fuzz.Campaign.r_tests,
      r.Ise_fuzz.Campaign.r_checks,
      List.map
        (fun f ->
          Ise_fuzz.Corpus.to_string
            (Ise_fuzz.Campaign.entry_of_failure ~seed:2023 f))
        r.Ise_fuzz.Campaign.r_failures )
  in
  let identical = fingerprint r1 = fingerprint rn in
  let t = Table.create ~headers:[ "Jobs"; "Wall (s)"; "Speedup" ] in
  Table.add_row t [ "1"; Table.cell_f ~decimals:2 t1; Table.cell_f ~decimals:2 1. ];
  Table.add_row t
    [ string_of_int jobs; Table.cell_f ~decimals:2 tn;
      Table.cell_f ~decimals:2 (t1 /. tn) ];
  Table.print t;
  Printf.printf
    "results byte-identical across -j: %b (%d tests, %d checks, %d failures; \
     %d cores detected)\n"
    identical r1.Ise_fuzz.Campaign.r_tests r1.Ise_fuzz.Campaign.r_checks
    (List.length r1.Ise_fuzz.Campaign.r_failures)
    (Ise_pool.Pool.default_jobs ());
  (* fork amortization, isolated from core count: B batches of tiny
     jobs through fresh per-batch pools (the old behaviour — fork per
     batch) vs one persistent handle (fork once).  Visible even on a
     single-core runner, where the -j speedup above cannot exceed 1. *)
  let batches = 30 and batch_n = 8 in
  let items = Array.init batch_n (fun i -> i) in
  let job i = i * i in
  let t_fresh =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batches do
      ignore (Ise_pool.Pool.map ~jobs job items)
    done;
    Unix.gettimeofday () -. t0
  in
  let t_persist =
    let t0 = Unix.gettimeofday () in
    Ise_pool.Pool.with_pool ~jobs job (fun p ->
        Ise_pool.Pool.prespawn p;
        for _ = 1 to batches do
          ignore (Ise_pool.Pool.run p items)
        done);
    Unix.gettimeofday () -. t0
  in
  Printf.printf
    "fork amortization (%d batches x %d jobs at -j %d): per-batch pools \
     %.3f s, persistent pool %.3f s (%.2fx)\n"
    batches batch_n jobs t_fresh t_persist (t_fresh /. t_persist);
  emit_bench "pool"
    (Ise_telemetry.Json.Obj
       [ ("jobs", Ise_telemetry.Json.Int jobs);
         ("cores_detected", Ise_telemetry.Json.Int (Ise_pool.Pool.default_jobs ()));
         ("seq_wall_s", Ise_telemetry.Json.Float t1);
         ("par_wall_s", Ise_telemetry.Json.Float tn);
         ("speedup", Ise_telemetry.Json.Float (t1 /. tn));
         (* ledger key pool/speedup_j4: the -j 4 amortization metric
            the CI perf gate tracks across commits *)
         ("speedup_j4", Ise_telemetry.Json.Float (t1 /. tn));
         ("persistent_speedup", Ise_telemetry.Json.Float (t_fresh /. t_persist));
         ("identical_results", Ise_telemetry.Json.Bool identical) ]);
  if not identical then begin
    Printf.eprintf "[bench] pool: -j %d diverged from -j 1!\n%!" jobs;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* serve: daemon throughput, latency, and cache identity               *)

let serve_bench () =
  section "Serve: daemon requests/sec, p99 latency, cache identity";
  if not Ise_pool.Pool.fork_available then
    print_endline "fork unavailable on this platform; serve bench skipped"
  else begin
    let dir = Filename.temp_file "ise_serve_bench" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let socket = Filename.concat dir "d.sock" in
    let store_dir = Filename.concat dir "store" in
    let daemon =
      match Unix.fork () with
      | 0 ->
        (try
           Ise_serve.Server.run
             {
               (Ise_serve.Server.default_config ~socket_path:socket) with
               Ise_serve.Server.store_dir = Some store_dir;
             }
         with _ -> ());
        Unix._exit 0
      | pid -> pid
    in
    let connect () =
      match Ise_serve.Client.connect ~retries:100 socket with
      | Ok c -> c
      | Error msg ->
        Printf.eprintf "[bench] serve: %s\n%!" msg;
        exit 1
    in
    let params = { Ise_serve.Proto.default_params with Ise_serve.Proto.seeds = 5 } in
    let tests = Ise_litmus.Library.all in
    let c = connect () in
    let batch () =
      let t0 = Unix.gettimeofday () in
      match Ise_serve.Client.litmus c ~tests ~params with
      | Ok replies -> (replies, Unix.gettimeofday () -. t0)
      | Error msg ->
        Printf.eprintf "[bench] serve: %s\n%!" msg;
        exit 1
    in
    let cold, cold_s = batch () in
    let warm, warm_s = batch () in
    (* p99 request latency against the warm cache, one test per request *)
    let lat = Stats.create () in
    let narr = Array.of_list tests in
    let reqs = 200 in
    let t0 = Unix.gettimeofday () in
    for i = 0 to reqs - 1 do
      let r0 = Unix.gettimeofday () in
      (match
         Ise_serve.Client.litmus c
           ~tests:[ narr.(i mod Array.length narr) ]
           ~params
       with
      | Ok _ -> ()
      | Error msg ->
        Printf.eprintf "[bench] serve: %s\n%!" msg;
        exit 1);
      Stats.add lat ((Unix.gettimeofday () -. r0) *. 1000.)
    done;
    let loop_s = Unix.gettimeofday () -. t0 in
    (match Ise_serve.Client.shutdown c with Ok () | Error _ -> ());
    Ise_serve.Client.close c;
    ignore (Unix.waitpid [] daemon);
    (* acceptance: ≥90% hits on the repeated batch, responses
       byte-identical to the daemon's cold pass AND to a no-daemon
       -j 1 run of the same tests *)
    let lines rs = List.map (fun r -> r.Ise_serve.Proto.r_line) rs in
    let hits =
      List.length (List.filter (fun r -> r.Ise_serve.Proto.r_cached) warm)
    in
    let hit_rate = float_of_int hits /. float_of_int (List.length warm) in
    let local =
      List.map
        (fun t ->
          Ise_litmus.Lit_run.summary_line
            (Ise_litmus.Lit_run.run ~seeds:5 ~inject_faults:true
               ~cfg:(Ise_serve.Proto.cfg_of_params params) t))
        tests
    in
    let identical_warm = lines cold = lines warm in
    let identical_local = lines warm = local in
    let req_per_s = float_of_int reqs /. loop_s in
    let p50 = Stats.percentile lat 50. and p99 = Stats.percentile lat 99. in
    let t = Table.create ~headers:[ "Pass"; "Wall (s)"; "Hits" ] in
    Table.add_row t [ "cold batch"; Table.cell_f ~decimals:2 cold_s; "0" ];
    Table.add_row t
      [ "warm batch"; Table.cell_f ~decimals:2 warm_s; string_of_int hits ];
    Table.print t;
    Printf.printf
      "sustained: %.0f req/s over %d single-test requests (p50 %.2f ms, p99 \
       %.2f ms)\n\
       cache hit rate on repeat batch: %.0f%%; warm ≡ cold bytes: %b; \
       daemon ≡ no-daemon bytes: %b\n"
      req_per_s reqs p50 p99 (100. *. hit_rate) identical_warm identical_local;
    emit_bench "serve"
      (Ise_telemetry.Json.Obj
         [ ("tests", Ise_telemetry.Json.Int (List.length tests));
           ("requests", Ise_telemetry.Json.Int reqs);
           ("req_per_s", Ise_telemetry.Json.Float req_per_s);
           ("p50_ms", Ise_telemetry.Json.Float p50);
           ("p99_ms", Ise_telemetry.Json.Float p99);
           ("cold_wall_s", Ise_telemetry.Json.Float cold_s);
           ("warm_wall_s", Ise_telemetry.Json.Float warm_s);
           ("hit_rate", Ise_telemetry.Json.Float hit_rate);
           ("identical_cold_warm", Ise_telemetry.Json.Bool identical_warm);
           ("identical_no_daemon", Ise_telemetry.Json.Bool identical_local) ]);
    if hit_rate < 0.9 || not identical_warm || not identical_local then begin
      Printf.eprintf
        "[bench] serve: cache acceptance failed (hit rate %.2f, warm=cold \
         %b, daemon=local %b)!\n%!"
        hit_rate identical_warm identical_local;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* fabric: distributed campaign vs single-host, byte-identity gate      *)

let fabric_bench () =
  section "Fabric: distributed campaign, 1 vs 4 simulated workers";
  if not Ise_fabric.Sim.available then
    print_endline "fork unavailable on this platform; fabric bench skipped"
  else begin
    let seed = 2023 in
    let spec =
      Ise_fuzz.Campaign.spec ~count:24 ~seeds_per_test:8 ~seed ()
    in
    let fingerprint (r : Ise_fuzz.Campaign.report) =
      ( r.Ise_fuzz.Campaign.r_tests,
        r.Ise_fuzz.Campaign.r_checks,
        r.Ise_fuzz.Campaign.r_lost_tests,
        List.map
          (fun f ->
            Ise_fuzz.Corpus.to_string
              (Ise_fuzz.Campaign.entry_of_failure ~seed f))
          r.Ise_fuzz.Campaign.r_failures )
    in
    let t0 = Unix.gettimeofday () in
    let reference =
      Ise_fuzz.Campaign.run ~count:24 ~seeds_per_test:8 ~seed ()
    in
    let t_ref = Unix.gettimeofday () -. t0 in
    let fabric_run ?netchaos n =
      let dir = Filename.temp_file "ise_fabric_bench" "" in
      Sys.remove dir;
      let sim = Ise_fabric.Sim.start ?netchaos ~dir ~n () in
      let cfg =
        Ise_fabric.Supervisor.default_config
          ~workers:(Ise_fabric.Sim.sockets sim)
      in
      let t0 = Unix.gettimeofday () in
      let ranges, outcomes, stats =
        Ise_fabric.Supervisor.run cfg (Ise_fabric.Wire.Fuzz spec)
      in
      let wall = Unix.gettimeofday () -. t0 in
      Ise_fabric.Sim.stop sim;
      let merged = Ise_fabric.Merge.merge spec ~ranges ~outcomes in
      (merged.Ise_fabric.Merge.m_report, stats, wall)
    in
    let r1, s1, t1 = fabric_run 1 in
    let r4, s4, t4 = fabric_run 4 in
    (* the resilience gate: the same campaign through storm-profile
       wire-fault proxies must still merge byte-identically *)
    let rs, ss, ts =
      fabric_run ~netchaos:(seed, Ise_fabric.Netchaos.storm) 4
    in
    let id1 = fingerprint r1 = fingerprint reference in
    let id4 = fingerprint r4 = fingerprint reference in
    let ids = fingerprint rs = fingerprint reference in
    let t = Table.create ~headers:[ "Workers"; "Wall (s)"; "Dispatched" ] in
    Table.add_row t [ "local"; Table.cell_f ~decimals:2 t_ref; "-" ];
    List.iter
      (fun (name, wall, st) ->
        Table.add_row t
          [ name; Table.cell_f ~decimals:2 wall;
            string_of_int st.Ise_fabric.Supervisor.f_dispatched ])
      [ ("1", t1, s1); ("4", t4, s4); ("4+storm", ts, ss) ];
    Table.print t;
    print_endline
      "a 24-test campaign: worker fork, handshake and spec regeneration \
       dominate, so the wall times measure dispatch overhead, not scaling";
    Printf.printf
      "merged reports byte-identical to single-host: 1 worker %b, 4 workers \
       %b, 4 workers under netchaos storm %b (%d tests, %d checks, %d \
       failures)\n"
      id1 id4 ids reference.Ise_fuzz.Campaign.r_tests
      reference.Ise_fuzz.Campaign.r_checks
      (List.length reference.Ise_fuzz.Campaign.r_failures);
    Printf.printf
      "storm run: %d dispatched (%d re-dispatch), %d worker loss(es), %d \
       rejoin(s), %d ping(s), %d heartbeat loss(es)\n"
      ss.Ise_fabric.Supervisor.f_dispatched
      ss.Ise_fabric.Supervisor.f_redispatched
      ss.Ise_fabric.Supervisor.f_worker_losses
      ss.Ise_fabric.Supervisor.f_rejoins
      ss.Ise_fabric.Supervisor.f_pings
      ss.Ise_fabric.Supervisor.f_hb_losses;
    emit_bench "fabric"
      (Ise_telemetry.Json.Obj
         [ ("shards", Ise_telemetry.Json.Int s4.Ise_fabric.Supervisor.f_shards);
           ("local_wall_s", Ise_telemetry.Json.Float t_ref);
           ("w1_wall_s", Ise_telemetry.Json.Float t1);
           ("w4_wall_s", Ise_telemetry.Json.Float t4);
           ("storm_wall_s", Ise_telemetry.Json.Float ts);
           ( "w4_dispatched",
             Ise_telemetry.Json.Int s4.Ise_fabric.Supervisor.f_dispatched );
           ( "w4_redispatched",
             Ise_telemetry.Json.Int s4.Ise_fabric.Supervisor.f_redispatched );
           ( "w4_store_hits",
             Ise_telemetry.Json.Int s4.Ise_fabric.Supervisor.f_store_hits );
           ( "w4_worker_losses",
             Ise_telemetry.Json.Int s4.Ise_fabric.Supervisor.f_worker_losses );
           ( "storm_dispatched",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_dispatched );
           ( "storm_redispatched",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_redispatched );
           ( "storm_worker_losses",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_worker_losses );
           ( "storm_rejoins",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_rejoins );
           ( "storm_pings",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_pings );
           ( "storm_hb_losses",
             Ise_telemetry.Json.Int ss.Ise_fabric.Supervisor.f_hb_losses );
           ("identical_w1", Ise_telemetry.Json.Bool id1);
           ("identical_w4", Ise_telemetry.Json.Bool id4);
           ("identical_storm", Ise_telemetry.Json.Bool ids) ]);
    if not (id1 && id4 && ids) then begin
      Printf.eprintf
        "[bench] fabric: merged report diverged from single-host (1 worker \
         %b, 4 workers %b, storm %b)!\n%!"
        id1 id4 ids;
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", table1); ("table2", table2); ("table3", table3);
    ("table5", table5); ("table6", table6); ("fig1", fig1); ("fig2", fig2);
    ("fig5", fig5); ("fig6", fig6); ("litmus", litmus);
    ("ablation", ablation); ("bechamel", bechamel_section);
    ("enum", enum_bench); ("pool", pool_bench); ("serve", serve_bench);
    ("fabric", fabric_bench) ]

(* Run [f] with stdout redirected to a temp file; return what it
   printed.  Used by the parallel driver so each worker's section
   output can be re-emitted in section order. *)
let captured f =
  let tmp = Filename.temp_file "ise_bench" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin tmp in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  out

(* After the sections have run, read the BENCH_<section>.json files
   they emitted, flatten every numeric leaf, and append one run record
   to the ledger — works identically for sequential and forked runs,
   because forked workers write the files into the same cwd. *)
let append_ledger ~path picked =
  let metrics =
    List.concat_map
      (fun name ->
        let file = Printf.sprintf "BENCH_%s.json" name in
        if not (Sys.file_exists file) then []
        else begin
          let ic = open_in_bin file in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Ise_telemetry.Json.of_string text with
          | Error _ -> []
          | Ok json -> Ise_obs.Ledger.flatten_json ~prefix:name json
        end)
      picked
  in
  if metrics = [] then
    Printf.eprintf
      "[bench] --ledger: no BENCH_*.json metrics among sections %s\n%!"
      (String.concat " " picked)
  else begin
    let label = String.concat "+" picked in
    Ise_obs.Ledger.append ~path
      (Ise_obs.Ledger.make ~kind:"bench" ~label ~seed:0
         ~config:("sections=" ^ label) metrics);
    Printf.eprintf "[bench] appended %d metrics to %s\n%!"
      (List.length metrics) path
  end

let () =
  let rec parse jobs ledger trace_out telemetry_out acc = function
    | [] -> (jobs, ledger, trace_out, telemetry_out, List.rev acc)
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> parse (Some j) ledger trace_out telemetry_out acc rest
      | _ ->
        Printf.eprintf "-j needs a positive integer, got %S\n" n;
        exit 1)
    | "--ledger" :: path :: rest ->
      parse jobs (Some path) trace_out telemetry_out acc rest
    | "--trace-out" :: path :: rest ->
      parse jobs ledger (Some path) telemetry_out acc rest
    | "--telemetry-out" :: path :: rest ->
      parse jobs ledger trace_out (Some path) acc rest
    | [ ("-j" | "--jobs" | "--ledger" | "--trace-out" | "--telemetry-out") as a ] ->
      Printf.eprintf "%s needs a value\n" a;
      exit 1
    | a :: rest -> parse jobs ledger trace_out telemetry_out (a :: acc) rest
  in
  let jobs, ledger, trace_out, telemetry_out, picked =
    parse None None None None [] (List.tl (Array.to_list Sys.argv))
  in
  let jobs =
    match jobs with Some j -> j | None -> Ise_pool.Pool.default_jobs ()
  in
  let picked = if picked = [] then List.map fst sections else picked in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1
      end)
    picked;
  let sink =
    match (trace_out, telemetry_out) with
    | None, None -> None
    | _ -> Some (Ise_telemetry.Sink.create ())
  in
  if jobs <= 1 || List.length picked <= 1 then
    List.iter (fun name -> (List.assoc name sections) ()) picked
  else begin
    let names = Array.of_list picked in
    let ok = ref true in
    let _outcomes, _stats =
      Ise_pool.Pool.map ~jobs ?telemetry:sink
        ~on_result:(fun i outcome ->
          match outcome with
          | Ise_pool.Pool.Done out ->
            print_string out;
            flush stdout
          | Ise_pool.Pool.Failed err ->
            ok := false;
            Printf.eprintf "[bench] section %s failed: %s\n%!" names.(i)
              (Ise_pool.Pool.error_to_string err))
        (fun name -> captured (List.assoc name sections))
        names
    in
    if not !ok then exit 1
  end;
  (match sink with
   | None -> ()
   | Some sink ->
     (match trace_out with
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Ise_telemetry.Json.to_string
             (Ise_telemetry.Trace.to_chrome_json
                ~meta:(Ise_obs.Runinfo.stamp ())
                (Ise_telemetry.Sink.trace sink)));
        close_out oc;
        Printf.eprintf "[bench] wrote trace to %s\n%!" path
      | None -> ());
     (match telemetry_out with
      | Some path ->
        let oc = open_out path in
        output_string oc
          (Ise_telemetry.Json.to_string_pretty
             (Ise_telemetry.Json.Obj
                (Ise_obs.Runinfo.stamp ()
                @ [ ( "metrics",
                      Ise_telemetry.Registry.to_json
                        (Ise_telemetry.Sink.registry sink) ) ])));
        close_out oc;
        Printf.eprintf "[bench] wrote telemetry to %s\n%!" path
      | None -> ()));
  match ledger with
  | Some path -> append_ledger ~path picked
  | None -> ()
