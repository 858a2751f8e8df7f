open Ise_workload
open Ise_sim

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

let base = Config.default.Config.einject_base

(* ------------------------------------------------------------------ *)
(* Mix                                                                 *)

let test_mix_profiles_complete () =
  check Alcotest.int "eight workloads" 8 (List.length Mix.table3);
  List.iter
    (fun p ->
      check Alcotest.bool (p.Mix.name ^ " percentages sane") true
        (p.Mix.store_pct + p.Mix.load_pct + p.Mix.sync_pct <= 100))
    Mix.table3

let test_mix_find () =
  let p = Mix.find "BC" in
  check Alcotest.int "BC stores" 25 p.Mix.store_pct;
  check Alcotest.int "BC loads" 25 p.Mix.load_pct

let test_mix_stream_matches_profile () =
  let p = Mix.find "BFS" in
  let s = Mix.stream ~seed:3 ~length:20_000 ~base:0x8000_0000 p in
  let stores = ref 0 and loads = ref 0 and fences = ref 0 and total = ref 0 in
  let rec loop () =
    match s () with
    | None -> ()
    | Some i ->
      incr total;
      (match i with
       | Sim_instr.St _ -> incr stores
       | Sim_instr.Ld _ -> incr loads
       | Sim_instr.Fence -> incr fences
       | _ -> ());
      loop ()
  in
  loop ();
  check Alcotest.int "length" 20_000 !total;
  let pct n = 100 * n / !total in
  check Alcotest.bool "store pct ~11" true (abs (pct !stores - 11) <= 2);
  check Alcotest.bool "load pct ~22" true (abs (pct !loads - 22) <= 2)

let test_mix_multicore_disjoint_private () =
  let p = Mix.find "BFS" in
  let streams = Mix.multicore_streams ~seed:1 ~length_per_core:100 ~cores:2 p in
  check Alcotest.int "two streams" 2 (Array.length streams)

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)

let mk_graph () =
  Graph.uniform (Ise_util.Rng.create 42) ~nodes:300 ~avg_degree:5

let test_graph_csr_wellformed () =
  let g = mk_graph () in
  check Alcotest.int "offsets length" (Graph.nodes g + 1)
    (Array.length g.Graph.offsets);
  check Alcotest.int "monotonic last" (Graph.nedges g)
    g.Graph.offsets.(Graph.nodes g);
  for v = 0 to Graph.nodes g - 1 do
    if g.Graph.offsets.(v) > g.Graph.offsets.(v + 1) then
      Alcotest.fail "offsets not monotonic"
  done

let test_graph_bfs_sane () =
  let g = mk_graph () in
  let dist = Graph.bfs_distances g ~src:0 in
  check Alcotest.int "source" 0 dist.(0);
  (* triangle inequality along each edge *)
  for u = 0 to Graph.nodes g - 1 do
    if dist.(u) < max_int then
      List.iter
        (fun (v, _) ->
          if dist.(v) > dist.(u) + 1 then Alcotest.fail "bfs violates edge")
        (Graph.neighbors g u)
  done

let test_graph_sssp_dominated_by_bfs () =
  let g = mk_graph () in
  let hops = Graph.bfs_distances g ~src:0 in
  let dist = Graph.sssp_distances g ~src:0 in
  (* weights are >= 1, so weighted distance >= hop count *)
  for v = 0 to Graph.nodes g - 1 do
    if hops.(v) < max_int && dist.(v) < max_int && dist.(v) < hops.(v) then
      Alcotest.fail "sssp shorter than hops"
  done

let test_graph_bc_nonnegative () =
  let g = mk_graph () in
  let bc = Graph.bc_scores g ~sources:[ 0; 1 ] in
  Array.iter (fun s -> if s < 0.0 then Alcotest.fail "negative centrality") bc

let prop_graph_power_law_edges =
  QCheck.Test.make ~name:"power-law graphs are well-formed CSR" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g =
        Graph.power_law (Ise_util.Rng.create seed) ~nodes:100 ~avg_degree:4
      in
      Array.for_all (fun e -> e >= 0 && e < Graph.nodes g) g.Graph.edges
      && g.Graph.offsets.(Graph.nodes g) = Graph.nedges g)

(* ------------------------------------------------------------------ *)
(* Gap traces                                                          *)

let test_gap_bfs_trace_runs_and_verifies () =
  let g = Graph.uniform (Ise_util.Rng.create 7) ~nodes:400 ~avg_degree:4 in
  let tr = Gap.bfs g ~base ~src:0 in
  let m = Machine.create ~programs:[| Gap.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Machine.run m;
  check Alcotest.bool "results in memory" true (Gap.verify m tr)

let test_gap_bfs_matches_reference () =
  let g = Graph.uniform (Ise_util.Rng.create 9) ~nodes:300 ~avg_degree:4 in
  let tr = Gap.bfs ~include_build:false g ~base ~src:0 in
  let reference = Graph.bfs_distances g ~src:0 in
  (* every store of a distance in the trace matches the reference *)
  let dist_base =
    (* dist array is the last region: find the minimum stored address *)
    List.fold_left (fun acc (a, _) -> min acc a) max_int tr.Gap.expected
  in
  List.iter
    (fun (a, v) ->
      let node = (a - dist_base) / 8 in
      if node >= 0 && node < Graph.nodes g && reference.(node) < max_int then
        check Alcotest.int (Printf.sprintf "dist[%d]" node) reference.(node) v)
    tr.Gap.expected

let test_gap_fault_transparency () =
  let g = Graph.uniform (Ise_util.Rng.create 11) ~nodes:300 ~avg_degree:4 in
  let tr = Gap.bfs g ~base ~src:0 in
  let m = Machine.create ~programs:[| Gap.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Gap.mark_faulting m tr;
  Machine.run m;
  check Alcotest.bool "verified under injection" true (Gap.verify m tr);
  check Alcotest.bool "exceptions actually happened" true
    ((Core.stats (Machine.core m 0)).Core.imprecise_exceptions > 0)

let test_gap_sssp_trace () =
  let g = Graph.uniform (Ise_util.Rng.create 13) ~nodes:200 ~avg_degree:4 in
  let tr = Gap.sssp g ~base ~src:0 in
  let m = Machine.create ~programs:[| Gap.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Machine.run m;
  check Alcotest.bool "sssp verifies" true (Gap.verify m tr)

let test_gap_bc_trace () =
  let g = Graph.uniform (Ise_util.Rng.create 17) ~nodes:150 ~avg_degree:4 in
  let tr = Gap.bc g ~base ~sources:[ 0 ] in
  let m = Machine.create ~programs:[| Gap.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Machine.run m;
  check Alcotest.bool "bc verifies" true (Gap.verify m tr)

let test_gap_bc_store_heavier_than_bfs () =
  let g = Graph.uniform (Ise_util.Rng.create 19) ~nodes:200 ~avg_degree:4 in
  let count_stores tr =
    Array.fold_left
      (fun acc i -> if Sim_instr.is_store i then acc + 1 else acc)
      0 tr.Gap.instrs
  in
  let frac tr =
    float_of_int (count_stores tr) /. float_of_int (Array.length tr.Gap.instrs)
  in
  let bfs = Gap.bfs ~include_build:false g ~base ~src:0 in
  let bc = Gap.bc ~include_build:false g ~base ~sources:[ 0 ] in
  check Alcotest.bool "BC is store-heavier" true (frac bc > frac bfs)

(* ------------------------------------------------------------------ *)
(* Tailbench                                                           *)

let test_silo_trace_shape () =
  let tr = Tailbench.silo ~requests:50 ~base () in
  check Alcotest.int "requests recorded" 50 tr.Tailbench.requests;
  let fences =
    Array.fold_left
      (fun acc i -> if i = Sim_instr.Fence then acc + 1 else acc)
      0 tr.Tailbench.instrs
  in
  check Alcotest.int "one commit fence per txn" 50 fences

let test_masstree_pointer_chase () =
  let tr = Tailbench.masstree ~requests:20 ~depth:4 ~base () in
  (* each request contains depth dependent loads *)
  let dependent_loads =
    Array.fold_left
      (fun acc i ->
        match i with
        | Sim_instr.Ld { addr = { Sim_instr.dep = Some _; _ }; _ } -> acc + 1
        | _ -> acc)
      0 tr.Tailbench.instrs
  in
  check Alcotest.int "three dependent loads per request" (20 * 3) dependent_loads

let test_tailbench_runs () =
  let tr = Tailbench.silo ~requests:100 ~base () in
  let m = Machine.create ~programs:[| Tailbench.stream_of tr |] () in
  ignore (Ise_os.Handler.install m);
  Machine.run m;
  let tput = Tailbench.throughput tr ~cycles:(Machine.cycles m) in
  check Alcotest.bool "throughput positive" true (tput > 0.)

let test_tailbench_faults_slow_but_complete () =
  let tr = Tailbench.silo ~requests:60 ~slots:1024 ~base () in
  let run mark =
    let m = Machine.create ~programs:[| Tailbench.stream_of tr |] () in
    ignore (Ise_os.Handler.install m);
    if mark then Tailbench.mark_faulting m tr;
    Machine.run m;
    Machine.cycles m
  in
  let plain = run false and faulted = run true in
  check Alcotest.bool "faulted run costs more" true (faulted > plain)

(* ------------------------------------------------------------------ *)
(* Mbench                                                              *)

let test_mbench_batching_wins () =
  let unbatched = Mbench.run ~stores:300 ~batching:false () in
  let batched = Mbench.run ~stores:300 ~batching:true () in
  check Alcotest.bool "batched cheaper per store" true
    (batched.Mbench.total_per_store < unbatched.Mbench.total_per_store);
  check Alcotest.bool "bigger batches" true
    (batched.Mbench.avg_batch > unbatched.Mbench.avg_batch);
  check Alcotest.bool "unbatched is ~600 cycles" true
    (unbatched.Mbench.total_per_store > 350.
     && unbatched.Mbench.total_per_store < 1200.);
  check Alcotest.bool "uarch is the tiny fraction" true
    (unbatched.Mbench.uarch_per_store < 0.2 *. unbatched.Mbench.total_per_store)

let suite =
  [
    ("mix profiles complete", `Quick, test_mix_profiles_complete);
    ("mix find", `Quick, test_mix_find);
    ("mix stream matches profile", `Quick, test_mix_stream_matches_profile);
    ("mix multicore streams", `Quick, test_mix_multicore_disjoint_private);
    ("graph CSR well-formed", `Quick, test_graph_csr_wellformed);
    ("graph bfs sane", `Quick, test_graph_bfs_sane);
    ("graph sssp >= hops", `Quick, test_graph_sssp_dominated_by_bfs);
    ("graph bc non-negative", `Quick, test_graph_bc_nonnegative);
    qtest prop_graph_power_law_edges;
    ("gap bfs runs and verifies", `Quick, test_gap_bfs_trace_runs_and_verifies);
    ("gap bfs matches reference", `Quick, test_gap_bfs_matches_reference);
    ("gap fault transparency", `Quick, test_gap_fault_transparency);
    ("gap sssp trace", `Quick, test_gap_sssp_trace);
    ("gap bc trace", `Quick, test_gap_bc_trace);
    ("gap BC store-heavier than BFS", `Quick, test_gap_bc_store_heavier_than_bfs);
    ("silo trace shape", `Quick, test_silo_trace_shape);
    ("masstree pointer chase", `Quick, test_masstree_pointer_chase);
    ("tailbench runs", `Quick, test_tailbench_runs);
    ("tailbench faults slow but complete", `Quick, test_tailbench_faults_slow_but_complete);
    ("mbench batching wins", `Slow, test_mbench_batching_wins);
  ]
