(* The repository benchmark: four closed-loop workloads over the
   simulator and verification paths, one process, at most [nproc]
   (capped at 2) pool workers.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Each run generates its inputs from the seed (set-up, timed as
   [setup_s]), then repeats the workload's unit of work until [S]
   seconds have been measured and reports medians over the
   repetitions.  Every repetition is checked: wrong results count in
   [failed], and repetitions must agree with each other exactly.  The
   last stdout line is the JSON result; the lines before it are the
   human-readable report (metrics by name and unit, [sim_digest], and
   with [--trace 1] the per-layer table).

   With [--trace 1] half of the measured time runs untraced and half
   traced: spans recorded around the benchmark's own calls into each
   layer give per-layer self time and allocation, the difference of
   the two halves' medians is the tracing overhead, and the spans are
   written as Chrome trace-event JSON under [perfbench/out/]. *)

open Ise_sim
module Json = Ise_telemetry.Json

let now = Unix.gettimeofday

(* Words allocated so far: Gc.counters' minor count only advances at
   minor collections, Gc.minor_words is exact; major minus promoted is
   what was allocated directly in the major heap. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a non-empty sample. *)
let percentile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  sid : int;
  parent : int;  (** -1 for a root *)
  layer : string;
  name : string;
  t0 : float;
  w0 : float;
  mutable t1 : float;
  mutable w1 : float;
}

let tracing = ref false
let next_sid = ref 0
let spans : span list ref = ref []
let stack : span list ref = ref []
let t_origin = now ()

let open_span layer name =
  let parent = match !stack with s :: _ -> s.sid | [] -> -1 in
  let s =
    { sid = !next_sid; parent; layer; name; t0 = now ();
      w0 = alloc_words (); t1 = nan; w1 = nan }
  in
  incr next_sid;
  spans := s :: !spans;
  stack := s :: !stack;
  s

let close_span s =
  s.t1 <- now ();
  s.w1 <- alloc_words ();
  stack := List.filter (fun x -> x != s) !stack

(* [with_span layer name f] runs [f], recorded as a span when tracing. *)
let with_span layer name f =
  if not !tracing then f ()
  else begin
    let s = open_span layer name in
    Fun.protect ~finally:(fun () -> close_span s) f
  end

(* Chrome trace-event JSON of every closed span, through the repo's
   own trace recorder (timestamps in microseconds since start). *)
let chrome_trace ~meta =
  let tr = Ise_telemetry.Trace.create () in
  let us t = int_of_float ((t -. t_origin) *. 1e6) in
  let all = List.rev !spans in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  let rec emit s =
    Ise_telemetry.Trace.span_begin tr ~cat:s.layer ~name:s.name ~tid:0
      (us s.t0);
    List.iter emit (List.rev (Hashtbl.find_all children s.sid));
    Ise_telemetry.Trace.span_end tr ~cat:s.layer ~name:s.name ~tid:0
      ~args:[ ("alloc_words", Json.Float (s.w1 -. s.w0)) ]
      (us s.t1)
  in
  List.iter emit (List.rev (Hashtbl.find_all children (-1)));
  Ise_telemetry.Trace.to_chrome_json ~meta tr

(* Self time and self allocation per layer over [spans]: a span's own
   interval minus the part its child spans cover. *)
let self_by_layer spans =
  let child_t = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      add child_t s.parent (s.t1 -. s.t0);
      add child_w s.parent (s.w1 -. s.w0))
    spans;
  let self_t = Hashtbl.create 16 and self_w = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.sid) in
      add self_t s.layer (s.t1 -. s.t0 -. get child_t);
      add self_w s.layer (s.w1 -. s.w0 -. get child_w))
    spans;
  (self_t, self_w)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

(* Every per-layer metric, its unit, and the end-to-end metric it
   should move on which workload.  BENCHMARK.json lists the same names;
   perfbench/test_bench.py checks the two agree. *)
let catalogue =
  [ ("workload.gen_s", "s", "setup_s on every workload");
    ("workload.gen_mwords", "Mwords", "setup_s on every workload");
    ("aso.machine_runs", "count", "wall_s, ops_per_s on table3_row");
    ("aso.run_s_p50", "s", "wall_s, ops_per_s on table3_row");
    ("aso.run_s_max", "s", "wall_s on table3_row");
    ("aso.self_s", "s", "wall_s on table3_row");
    ("machine.runs", "count", "wall_s on table3_row, fig6_faults");
    ("machine.create_s", "s", "wall_s on fig6_faults; ops_per_s on fuzz_campaign");
    ("machine.run_s", "s", "wall_s, ops_per_s on fig6_faults");
    ("machine.self_s", "s", "wall_s, ops_per_s on table3_row, fig6_faults");
    ("machine.self_mwords", "Mwords", "alloc_mwords on table3_row, fig6_faults");
    ("machine.ns_per_instr", "ns", "ops_per_s on table3_row, fig6_faults");
    ("machine.ns_per_cycle", "ns", "ops_per_s on fig6_faults");
    ("machine.ns_per_mem_request", "ns", "ops_per_s on fig6_faults");
    ("machine.alloc_words_per_instr", "words", "alloc_mwords on table3_row, fig6_faults");
    ("sim.instrs", "count", "ops_per_s on table3_row, fig6_faults (simulated)");
    ("sim.cycles", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("sim.paper_err_pct", "%", "accuracy on table3_row (simulated)");
    ("sim.wc_speedup", "x", "reported beside sim.paper_err_pct (simulated)");
    ("sim.rel_perf_bfs", "x", "relative performance on fig6_faults (simulated)");
    ("sim.rel_perf_silo", "x", "relative performance on fig6_faults (simulated)");
    ("core.retired", "count", "sim.cycles (simulated)");
    ("core.loads", "count", "sim.cycles (simulated)");
    ("core.stores", "count", "sim.cycles (simulated)");
    ("core.rob_full_stalls", "count", "sim.cycles (simulated)");
    ("core.sb_full_stalls", "count", "sim.cycles (simulated)");
    ("core.drain_uarch_cycles", "count", "sim.rel_perf_* (simulated)");
    ("core.sb_occupancy_wm", "count", "sim.paper_err_pct (simulated)");
    ("memsys.requests", "count", "machine.ns_per_mem_request denominator (simulated)");
    ("memsys.l1_miss_rate", "ratio", "sim.cycles (simulated)");
    ("memsys.l2_miss_rate", "ratio", "sim.cycles (simulated)");
    ("memsys.dram", "count", "sim.cycles (simulated)");
    ("memsys.invalidations", "count", "sim.cycles (simulated)");
    ("memsys.noc_hop_cycles", "count", "sim.cycles (simulated)");
    ("memsys.denials", "count", "sim.rel_perf_* (simulated)");
    ("handler.invocations", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("handler.stores_handled", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("handler.avg_batch", "stores", "sim.rel_perf_* on fig6_faults (simulated)");
    ("handler.apply_cycles", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("handler.other_cycles", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("handler.precise_faults", "count", "sim.rel_perf_* on fig6_faults (simulated)");
    ("litmus.runs", "count", "ops_per_s on fuzz_campaign");
    ("litmus.samples", "count", "sample size of litmus.test_ms_*");
    ("litmus.test_ms_p50", "ms", "ops_per_s on fuzz_campaign");
    ("litmus.test_ms_tail", "ms", "ops_per_s on fuzz_campaign");
    ("litmus.tail_pct", "%", "percentile of litmus.test_ms_tail");
    ("litmus.self_s", "s", "ops_per_s on fuzz_campaign (in-process sample)");
    ("enum.searches", "count", "ops_per_s on model_enum");
    ("enum.search_s", "s", "wall_s, ops_per_s on model_enum");
    ("enum.self_mwords", "Mwords", "alloc_mwords on model_enum");
    ("enum.leaves", "count", "ops_per_s on model_enum");
    ("enum.rf_explored", "count", "ops_per_s on model_enum");
    ("enum.pruned_cycle", "count", "ops_per_s on model_enum");
    ("enum.pruned_symmetry", "count", "ops_per_s on model_enum");
    ("enum.prune_ratio", "ratio", "ops_per_s on model_enum");
    ("fuzz.checks", "count", "ops_per_s on fuzz_campaign");
    ("fuzz.failures", "count", "correctness on fuzz_campaign");
    ("fuzz.lost_tests", "count", "correctness on fuzz_campaign");
    ("fuzz.report_s", "s", "wall_s on fuzz_campaign");
    ("fuzz.self_s", "s", "wall_s, ops_per_s on fuzz_campaign");
    ("fuzz.self_mwords", "Mwords", "alloc_mwords on fuzz_campaign");
    ("pool.dispatched", "count", "wall_s on fuzz_campaign");
    ("pool.retried", "count", "wall_s on fuzz_campaign");
    ("pool.crashes", "count", "wall_s on fuzz_campaign");
    ("pool.spawned", "count", "wall_s on fuzz_campaign (workers forked per campaign)");
    ("pool.job_ms_p50", "ms", "wall_s on fuzz_campaign");
    ("pool.job_ms_p99", "ms", "wall_s on fuzz_campaign");
    ("pool.busy_frac", "ratio", "ops_per_s on fuzz_campaign");
    ("bench.self_s", "s",
     "wall_s on every workload (harness time in a repetition, outside the layers)");
    ("trace.overhead_s", "s", "traced minus untraced wall_s");
    ("trace.overhead_frac", "ratio", "trace.overhead_s / untraced wall_s") ]

(* The catalogue's names that start with one of [prefixes]. *)
let metrics_of prefixes =
  List.filter_map
    (fun (name, _, _) ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes then Some name
      else None)
    catalogue

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer_values name v
let set_layer_i name v = set_layer name (float_of_int v)

(* Host-time samples of the traced repetitions, by metric. *)
let host_samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let host_sample name v =
  if !tracing then
    Hashtbl.replace host_samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt host_samples name))

let samples_of name = Option.value ~default:[] (Hashtbl.find_opt host_samples name)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* One repetition's checked result. *)
type outcome = {
  ops : int;  (** operations of [ops_per_s] *)
  attempted : int;
  failed : int;
  digest : string;  (** every simulated statistic / verdict it produced *)
  notes : string list;  (** printed once with the report *)
}

(* A prepared workload: [prepare] generates the inputs from the seed;
   calling the result runs one timed repetition and returns the
   (untimed) function that checks it. *)
type workload = {
  w_name : string;
  prepare : seed:int -> unit -> unit -> outcome;
  finish : seed:int -> outcome;
      (** once after the timed loop: checks too costly to repeat *)
  unmeasurable : (string list * string) list;
      (** per-layer metrics this workload exercises but that cannot be
          measured from outside the program, with the reason *)
  record : (seed:int -> string list) option;
      (** the reference row [--record] writes for a seed *)
}

let no_finish ~seed:_ = { ops = 0; attempted = 0; failed = 0; digest = ""; notes = [] }

(* Reference rows recorded from the seed commit's program, one per seed:
   [seed<TAB>field...]; lines starting with '#' are comments. *)
let load_reference file =
  let tbl = Hashtbl.create 128 in
  In_channel.with_open_text file (fun ic ->
      List.iter
        (fun line ->
          match String.split_on_char '\t' line with
          | seed :: fields when seed <> "" && seed.[0] <> '#' ->
            Hashtbl.replace tbl (int_of_string seed) fields
          | _ -> ())
        (In_channel.input_lines ic));
  tbl

(* The reference tables hold rows for seeds 0-199 and the held-out seed
   4242.  Any other seed takes its inputs from [seed mod 200], so every
   run is checked against a recorded row; a missing row is an error,
   never a weaker check.  Returns the seed the inputs come from and its
   row. *)
let recorded_range = 200

let reference tbl ~file seed =
  let seed =
    if Hashtbl.mem tbl seed then seed
    else ((seed mod recorded_range) + recorded_range) mod recorded_range
  in
  match Hashtbl.find_opt tbl seed with
  | Some row -> (seed, row)
  | None -> failwith (Printf.sprintf "%s has no row for seed %d" file seed)

let mapped_note ~seed ~input_seed =
  if input_seed = seed then []
  else
    [ Printf.sprintf "seed %d is not recorded: inputs and reference row of seed %d"
        seed input_seed ]

let digest_of_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let einject_base = Config.default.Config.einject_base

let rec drain_stream s acc =
  match s () with None -> List.rev acc | Some x -> drain_stream s (x :: acc)

let count_kind p l = List.length (List.filter p l)

let is_load = function Sim_instr.Ld _ | Sim_instr.Amo _ -> true | _ -> false

(* ---- table3_row ------------------------------------------------- *)

(* Table 3's store-heavy BC row: the ASO sizing under the base,
   2x-memory and 4x-skew systems on 4 cores.  Runs are exception-free,
   so the OS handler is bypassed. *)
let table3_length = 5_000
let table3_cores = 4
let table3_configs =
  [ ("base", Config.default);
    ("2xmem", Config.with_2x_memory Config.default);
    ("4xskew", Config.with_4x_store_skew Config.default) ]

(* BC's KB columns in the paper's Table 3 (EXPERIMENTS.md): the only
   held-back reference.  The WC-speedup column (3.24) calibrated [Mix],
   so it is reported beside the error and not part of it. *)
let paper_bc_kb = [ 18.; 18.; 18. ]

let table3_ref_file = "perfbench/table3_ref.tsv"

(* seed -> [kb_base; kb_2xmem; kb_4xskew; wc_speedup_base] *)
let table3_ref = lazy (load_reference table3_ref_file)

(* [after] runs at the end of each sizing, inside its span. *)
let table3_sizings ?(after = ignore) ~programs () =
  List.map
    (fun (name, cfg) ->
      with_span "aso" ("size_for_wc_performance/" ^ name) (fun () ->
          let s = Ise_aso.Aso_core.size_for_wc_performance ~cfg ~programs () in
          after ();
          (name, s)))
    table3_configs

let table3_values sizings =
  let kb = List.map (fun (_, s) -> s.Ise_aso.Aso_core.state_kb) sizings in
  kb @ [ (List.assoc "base" sizings).Ise_aso.Aso_core.wc_speedup ]

let table3_programs ~seed =
  Array.map
    (fun s -> drain_stream s [])
    (Ise_workload.Mix.multicore_streams ~seed ~length_per_core:table3_length
       ~cores:table3_cores (Ise_workload.Mix.find "BC"))

let table3_row =
  let prepare ~seed =
    let input_seed, row =
      reference (Lazy.force table3_ref) ~file:table3_ref_file seed
    in
    let expected = List.map float_of_string row in
    let progs =
      with_span "workload" "Mix.multicore_streams" (fun () ->
          table3_programs ~seed:input_seed)
    in
    let instrs = Array.fold_left (fun n l -> n + List.length l) 0 progs in
    let loads = Array.fold_left (fun n a -> n + count_kind is_load a) 0 progs in
    let stores =
      Array.fold_left (fun n a -> n + count_kind Sim_instr.is_store a) 0 progs
    in
    fun () ->
      let runs = ref 0 in
      (* each call of the thunk starts one machine run inside Aso_core:
         the span from one call to the next is that run *)
      let current = ref None in
      let close_run () =
        Option.iter
          (fun s ->
            close_span s;
            host_sample "aso.run_s" (s.t1 -. s.t0))
          !current;
        current := None
      in
      let programs () =
        incr runs;
        if !tracing then begin
          close_run ();
          current := Some (open_span "machine" "Aso_core.run")
        end;
        Array.map Sim_instr.of_list progs
      in
      let sizings = table3_sizings ~after:close_run ~programs () in
      fun () ->
        let values = table3_values sizings in
        let ok = expected = values in
        let kbs = List.filteri (fun i _ -> i < 3) values in
        let err =
          List.fold_left2
            (fun a ours paper -> a +. (Float.abs (ours -. paper) /. paper))
            0. kbs paper_bc_kb
          /. 3. *. 100.
        in
        set_layer_i "aso.machine_runs" !runs;
        set_layer_i "machine.runs" !runs;
        set_layer_i "sim.instrs" (!runs * instrs);
        set_layer_i "core.retired" (!runs * instrs);
        set_layer_i "core.loads" (!runs * loads);
        set_layer_i "core.stores" (!runs * stores);
        set_layer "sim.paper_err_pct" err;
        set_layer "sim.wc_speedup" (List.nth values 3);
        {
          ops = !runs * instrs;
          attempted = !runs;
          failed = (if ok then 0 else !runs);
          digest =
            digest_of_lines
              (Printf.sprintf "runs %d instrs %d" !runs instrs
              :: List.map
                   (fun (name, s) ->
                     let open Ise_aso.Aso_core in
                     Printf.sprintf "%s k=%d aso=%h wc=%h sc=%h kb=%h" name
                       s.checkpoints s.aso_ipc s.wc_ipc s.sc_ipc s.state_kb)
                   sizings);
          notes = mapped_note ~seed ~input_seed;
        }
  in
  let unmeasurable =
    [ ( [ "sim.cycles"; "machine.create_s"; "machine.run_s";
          "machine.ns_per_cycle"; "machine.ns_per_mem_request";
          "core.rob_full_stalls"; "core.sb_full_stalls";
          "core.drain_uarch_cycles"; "core.sb_occupancy_wm"; "memsys.requests";
          "memsys.l1_miss_rate"; "memsys.l2_miss_rate"; "memsys.dram";
          "memsys.invalidations"; "memsys.noc_hop_cycles"; "memsys.denials" ],
        "table3_row: Aso_core.size_for_wc_performance creates its machines and \
     returns only IPCs, so per-run cycles and Core/Memsys counters need a \
     hook inside the program (retired/loads/stores are counted from the \
     programs, which every run retires whole)") ]
  in
  let record ~seed =
    let progs = table3_programs ~seed in
    List.map (Printf.sprintf "%.17g")
      (table3_values
         (table3_sizings ~programs:(fun () -> Array.map Sim_instr.of_list progs) ()))
  in
  { w_name = "table3_row"; prepare; finish = no_finish; unmeasurable;
    record = Some record }

(* ---- fig6_faults ------------------------------------------------ *)

(* Fig. 6's methodology on GAP BFS (3000-node power-law graph) and
   Silo: each runs once fault-free and once with every data page
   faulting, under the reference OS handler. *)
type sim_run = {
  cycles : int;
  retired : int;
  ok : bool;
  lines : string list;  (** every simulated statistic, for the digest *)
}

(* Per-layer counters of fig6_faults, summed over a repetition's runs
   and cleared at the start of each repetition. *)
let fig6_sums =
  [ "machine.runs"; "sim.instrs"; "sim.cycles"; "core.retired"; "core.loads";
    "core.stores"; "core.rob_full_stalls"; "core.sb_full_stalls";
    "core.drain_uarch_cycles"; "memsys.requests"; "memsys.l1_misses";
    "memsys.l2_accesses"; "memsys.l2_misses"; "memsys.dram";
    "memsys.invalidations"; "memsys.noc_hop_cycles"; "memsys.denials";
    "handler.invocations"; "handler.stores_handled"; "handler.apply_cycles";
    "handler.other_cycles"; "handler.precise_faults"; "core.sb_occupancy_wm" ]

let layer_value name = Option.value ~default:0. (Hashtbl.find_opt layer_values name)
let add_layer name v = set_layer name (layer_value name +. float_of_int v)

(* One run as Runner.run_once does it, with the machine in hand so its
   Core/Memsys/Handler statistics are readable. *)
let fig6_run ~name ~faulting ~stream ~mark ~verify =
  let m =
    with_span "machine" ("Machine.create/" ^ name) (fun () ->
        let t0 = now () in
        let m = Machine.create ~programs:[| stream () |] () in
        host_sample "machine.create_s" (now () -. t0);
        m)
  in
  Machine.set_trace_enabled m false;
  let h = Ise_os.Handler.install m in
  if faulting then mark m;
  with_span "machine" ("Machine.run/" ^ name) (fun () ->
      let t0 = now () in
      Machine.run ~max_cycles:500_000_000 m;
      host_sample "machine.run_s" (now () -. t0));
  let ok = verify m in
  let core = Machine.core m 0 in
  let c = Core.stats core in
  let mem = Machine.mem m in
  let requests = Memsys.l1_hits mem + Memsys.l1_misses mem in
  List.iter
    (fun (n, v) -> add_layer n v)
    [ ("machine.runs", 1); ("sim.instrs", Machine.total_retired m);
      ("sim.cycles", Machine.cycles m); ("core.retired", c.Core.retired);
      ("core.loads", c.Core.loads); ("core.stores", c.Core.stores);
      ("core.rob_full_stalls", c.Core.rob_full_stalls);
      ("core.sb_full_stalls", c.Core.sb_full_stalls);
      ("core.drain_uarch_cycles", c.Core.drain_uarch_cycles);
      ("memsys.requests", requests); ("memsys.l1_misses", Memsys.l1_misses mem);
      ("memsys.l2_accesses", Memsys.l2_hits mem + Memsys.l2_misses mem);
      ("memsys.l2_misses", Memsys.l2_misses mem);
      ("memsys.dram", Memsys.dram_accesses mem);
      ("memsys.invalidations", Memsys.invalidations mem);
      ("memsys.noc_hop_cycles", Memsys.noc_hop_cycles mem);
      ("memsys.denials", Memsys.denials mem);
      ("handler.invocations", h.Ise_os.Handler.invocations);
      ("handler.stores_handled", h.stores_handled);
      ("handler.apply_cycles", h.apply_cycles);
      ("handler.other_cycles", h.other_cycles);
      ("handler.precise_faults", h.precise_faults) ];
  set_layer "core.sb_occupancy_wm"
    (Float.max (layer_value "core.sb_occupancy_wm")
       (float_of_int (Core.sb_occupancy_watermark core)));
  {
    cycles = Machine.cycles m;
    retired = Machine.total_retired m;
    ok;
    lines =
      [ Printf.sprintf
          "%s faulting=%b cycles=%d retired=%d loads=%d stores=%d fences=%d \
           imprecise=%d faulting_stores=%d precise=%d drain=%d sb_full=%d \
           rob_full=%d fsb_ovf=%d fsb_drop=%d sb_wm=%d inflight_wm=%d"
          name faulting (Machine.cycles m) (Machine.total_retired m) c.Core.loads
          c.Core.stores c.Core.fences c.Core.imprecise_exceptions
          c.Core.faulting_stores c.Core.precise_exceptions
          c.Core.drain_uarch_cycles c.Core.sb_full_stalls c.Core.rob_full_stalls
          c.Core.fsb_overflow_stalls c.Core.fsb_overflow_drops
          (Core.sb_occupancy_watermark core) (Core.sb_inflight_watermark core);
        Printf.sprintf
          "memsys l1=%d/%d l2=%d/%d dram=%d denials=%d inval=%d noc=%d"
          (Memsys.l1_hits mem) (Memsys.l1_misses mem) (Memsys.l2_hits mem)
          (Memsys.l2_misses mem) (Memsys.dram_accesses mem) (Memsys.denials mem)
          (Memsys.invalidations mem) (Memsys.noc_hop_cycles mem);
        Printf.sprintf
          "handler inv=%d stores=%d faulting=%d apply=%d other=%d io=%d \
           precise=%d terminated=%d retries=%d batches=%d/%h"
          h.invocations h.stores_handled h.faulting_handled h.apply_cycles
          h.other_cycles h.io_requests h.precise_faults h.terminated_cores
          h.apply_retries
          (Ise_util.Stats.count h.batch_sizes)
          (Ise_util.Stats.total h.batch_sizes) ];
  }

(* Silo stores only immediates on one core, so its final memory is the
   last value each address was stored in program order. *)
let silo_expected (tr : Ise_workload.Tailbench.trace) =
  let last = Hashtbl.create 4096 in
  Array.iter
    (function
      | Sim_instr.St { addr = { Sim_instr.base; _ }; data = Sim_instr.Imm v } ->
        Hashtbl.replace last base v
      | Sim_instr.St _ -> invalid_arg "silo_expected: non-immediate store"
      | _ -> ())
    tr.Ise_workload.Tailbench.instrs;
  Hashtbl.fold (fun a v acc -> (a, v) :: acc) last []

let silo_requests = 5_000

let fig6_faults =
  let prepare ~seed =
    let bfs, silo, expected =
      with_span "workload" "Graph.power_law+Gap.bfs+Tailbench.silo" (fun () ->
          let g =
            Ise_workload.Graph.power_law (Ise_util.Rng.create seed) ~nodes:3000
              ~avg_degree:8
          in
          let silo =
            Ise_workload.Tailbench.silo ~seed ~requests:silo_requests
              ~base:einject_base ()
          in
          (Ise_workload.Gap.bfs g ~base:einject_base ~src:0, silo, silo_expected silo))
    in
    let kernels =
      [ ("BFS",
         (fun () -> Ise_workload.Gap.stream_of bfs),
         (fun m -> Ise_workload.Gap.mark_faulting m bfs),
         fun m -> Ise_workload.Gap.verify m bfs);
        ("Silo",
         (fun () -> Ise_workload.Tailbench.stream_of silo),
         (fun m -> Ise_workload.Tailbench.mark_faulting m silo),
         fun m -> List.for_all (fun (a, v) -> Machine.read_word m a = v) expected) ]
    in
    fun () ->
      List.iter (Hashtbl.remove layer_values) fig6_sums;
      let results =
        List.map
          (fun (name, stream, mark, verify) ->
            let run faulting = fig6_run ~name ~faulting ~stream ~mark ~verify in
            let base = run false in
            let imp = run true in
            (name, base, imp))
          kernels
      in
      fun () ->
        let runs = List.concat_map (fun (_, b, i) -> [ b; i ]) results in
        List.iter
          (fun (name, b, i) ->
            set_layer
              ("sim.rel_perf_" ^ String.lowercase_ascii name)
              (float_of_int b.cycles /. float_of_int (max 1 i.cycles)))
          results;
        let ratio a b = layer_value a /. Float.max 1. (layer_value b) in
        set_layer "memsys.l1_miss_rate" (ratio "memsys.l1_misses" "memsys.requests");
        set_layer "memsys.l2_miss_rate" (ratio "memsys.l2_misses" "memsys.l2_accesses");
        set_layer "handler.avg_batch"
          (ratio "handler.stores_handled" "handler.invocations");
        {
          ops = List.fold_left (fun n r -> n + r.retired) 0 runs;
          attempted = List.length runs;
          failed = List.length (List.filter (fun r -> not r.ok) runs);
          digest = digest_of_lines (List.concat_map (fun r -> r.lines) runs);
          notes = [];
        }
  in
  { w_name = "fig6_faults"; prepare; finish = no_finish; unmeasurable = [];
    record = None }

(* ---- fuzz_campaign ---------------------------------------------- *)

(* A differential fuzz campaign at -j 2: thousands of tiny machine
   runs, so machine creation, litmus lowering, contract checks and
   pool dispatch dominate rather than the steady-state simulation. *)
let fuzz_count = 1000
let fuzz_seeds_per_test = 8
let fuzz_variants_per_test = 2
let fuzz_sample = 64
let fuzz_jobs = max 1 (min 2 (Domain.recommended_domain_count ()))

let report_fingerprint (r : Ise_fuzz.Campaign.report) =
  let open Ise_fuzz.Campaign in
  digest_of_lines
    (Printf.sprintf "seed %d tests %d checks %d lost %d" r.r_seed r.r_tests
       r.r_checks r.r_lost_tests
    :: List.map
         (fun f ->
           Printf.sprintf "%s %s %s %d %s" (variant_name f.f_variant)
             (kind_name f.f_kind) f.f_detail f.f_shrink_steps
             (Ise_litmus.Lit_test.fingerprint f.f_shrunk))
         r.r_failures)

(* Failures are not shrunk: minimization re-runs a failing check
   hundreds of times in the supervisor, which would make a repetition's
   work depend on whether its seed finds a failure. *)
let campaign ?telemetry ?range ~jobs ~seed () =
  Ise_fuzz.Campaign.run ~count:fuzz_count ~seeds_per_test:fuzz_seeds_per_test
    ~variants_per_test:fuzz_variants_per_test ~shrink_evals:0 ~jobs ?telemetry
    ?range ~seed ()

let pool_metrics sink ~wall =
  let snap = Ise_telemetry.Registry.snapshot (Ise_telemetry.Sink.registry sink) in
  let counter n =
    match List.assoc_opt n snap with
    | Some (Ise_telemetry.Registry.Snap_counter c) -> float_of_int c
    | _ -> 0.
  in
  set_layer "pool.dispatched" (counter "pool/dispatched");
  set_layer "pool.retried" (counter "pool/retried");
  set_layer "pool.crashes" (counter "pool/crashes");
  set_layer "pool.spawned" (counter "pool/workers_spawned");
  (* raw per-job latencies of every worker, kept across the traced
     repetitions so the percentiles are exact *)
  let reg = Ise_telemetry.Sink.registry sink in
  let jobs =
    List.concat_map
      (fun (name, _) ->
        if String.ends_with ~suffix:"/job_ms" name then
          Array.to_list
            (Ise_util.Stats.samples (Ise_telemetry.Registry.histogram reg name))
        else [])
      snap
  in
  List.iter (host_sample "pool.job_ms") jobs;
  host_sample "pool.busy_frac"
    (List.fold_left ( +. ) 0. jobs /. 1e3 /. (float_of_int fuzz_jobs *. wall))

let fuzz_tests ~seed =
  Ise_fuzz.Campaign.tests_of_spec
    (Ise_fuzz.Campaign.spec ~count:fuzz_count ~seeds_per_test:fuzz_seeds_per_test
       ~variants_per_test:fuzz_variants_per_test ~seed ())

(* The litmus layer the pool workers run, measured in process on the
   campaign's first tests, each under one lattice point in turn. *)
let litmus_sample tests =
  let variants = Array.of_list Ise_fuzz.Campaign.all_variants in
  List.init fuzz_sample (fun i ->
      let v = variants.(i mod Array.length variants) in
      with_span "litmus" "Lit_run.run" (fun () ->
          let t0 = now () in
          let r =
            Ise_litmus.Lit_run.run ~seeds:fuzz_seeds_per_test
              ~inject_faults:v.Ise_fuzz.Campaign.v_faults
              ~timer_interrupts:v.v_timer
              ~cfg:(Ise_fuzz.Campaign.cfg_of_variant v) tests.(i)
          in
          host_sample "litmus.test_ms" ((now () -. t0) *. 1e3);
          r))

let sample_digest results =
  let open Ise_litmus.Lit_run in
  digest_of_lines
    (List.map
       (fun r ->
         Printf.sprintf "%s runs=%d imprecise=%d precise=%d" (summary_line r)
           r.runs r.imprecise_exceptions r.precise_exceptions)
       results)

(* The campaign finds real model/simulator disagreements on some seeds
   (seed 25: a split-stream run under timer interrupts observes an
   outcome the model forbids).  Those are the campaign's correct output
   at the seed commit, so the check is that the report and the litmus
   sample reproduce the recorded ones exactly. *)
let fuzz_ref_file = "perfbench/fuzz_ref.tsv"

(* seed -> [report fingerprint; litmus sample digest; failures] *)
let fuzz_ref = lazy (load_reference fuzz_ref_file)

let fuzz_campaign =
  (* [Campaign.run] takes only the seed and generates its tests again,
     so set-up's generation is a separate timing of the same work that
     each repetition also does (see README, setup_s). *)
  let prepare ~seed =
    let input_seed, row = reference (Lazy.force fuzz_ref) ~file:fuzz_ref_file seed in
    let recorded = List.hd row in
    ignore
      (with_span "workload" "Campaign.tests_of_spec" (fun () ->
           fuzz_tests ~seed:input_seed));
    fun () ->
      let sink = if !tracing then Some (Ise_telemetry.Sink.create ()) else None in
      let t0 = now () in
      let r =
        with_span "fuzz" "Campaign.run" (fun () ->
            campaign ?telemetry:sink ~jobs:fuzz_jobs ~seed:input_seed ())
      in
      Option.iter (pool_metrics ~wall:(now () -. t0)) sink;
      fun () ->
        let open Ise_fuzz.Campaign in
        let fp = report_fingerprint r in
        let found = List.length r.r_failures in
        set_layer_i "fuzz.checks" r.r_checks;
        set_layer_i "fuzz.failures" found;
        set_layer_i "fuzz.lost_tests" r.r_lost_tests;
        let failed =
          r.r_lost_tests + if fp = recorded then 0 else max 1 found
        in
        {
          ops = r.r_checks;
          attempted = fuzz_count * fuzz_variants_per_test;
          failed;
          digest = fp;
          notes =
            mapped_note ~seed ~input_seed
            @ List.map
                (fun f ->
                  Printf.sprintf "campaign finding (recorded at the seed commit): \
                                  %s under %s [%s]: %s"
                    f.f_test.Ise_litmus.Lit_test.name (variant_name f.f_variant)
                    (kind_name f.f_kind) f.f_detail)
                r.r_failures;
        }
  in
  (* After the loop: the pooled report equals the in-process (-j 1)
     one on a sample, and the in-process litmus sample reproduces the
     recorded results. *)
  let finish ~seed =
    let seed, row = reference (Lazy.force fuzz_ref) ~file:fuzz_ref_file seed in
    let tests = fuzz_tests ~seed in
    let range = (0, fuzz_sample) in
    let j1 = campaign ~range ~jobs:1 ~seed () in
    let jn = campaign ~range ~jobs:fuzz_jobs ~seed () in
    let fp_ok = report_fingerprint j1 = report_fingerprint jn in
    let results = litmus_sample tests in
    let open Ise_litmus.Lit_run in
    set_layer_i "litmus.runs" (List.fold_left (fun n r -> n + r.runs) 0 results);
    let digest = sample_digest results in
    {
      ops = 0;
      attempted = fuzz_sample + 1;
      failed = Bool.to_int (digest <> List.nth row 1) + Bool.to_int (not fp_ok);
      digest = digest_of_lines [ report_fingerprint j1; digest ];
      notes = [];
    }
  in
  let record ~seed =
    let r = campaign ~jobs:fuzz_jobs ~seed () in
    [ report_fingerprint r; sample_digest (litmus_sample (fuzz_tests ~seed));
      string_of_int (List.length r.Ise_fuzz.Campaign.r_failures) ]
  in
  let unmeasurable =
    [ ( metrics_of
          [ "machine."; "sim.instrs"; "sim.cycles"; "core."; "memsys."; "handler." ],
        "fuzz_campaign: machines are created and run inside Lit_run in pool \
         workers; litmus.* measures an in-process sample instead" );
      ( [ "fuzz.report_s" ],
        "fuzz_campaign: the report stage runs inside Campaign.run, and with \
         shrinking off (see [campaign]) it does almost no work" );
      ( metrics_of [ "enum." ],
        "fuzz_campaign: Enum.search runs inside Campaign checks in pool workers \
         (about 2% of host time; see model_enum)" ) ]
  in
  { w_name = "fuzz_campaign"; prepare; finish; unmeasurable; record = Some record }

(* ---- model_enum ------------------------------------------------- *)

(* Enum.search under SC/PC/WC over generated programs at the top of
   the litmus size envelope: the model layer on its own. *)
let enum_programs = 4000
let enum_params =
  { Ise_litmus.Gen.default_params with max_threads = 4; max_instrs = 6; max_locs = 3 }
let enum_models = Ise_model.Axiom.[ sc; pc; wc ]

(* Enumeration cost is heavy-tailed: at these sizes about one program
   in eight has an (rf, co) choice space above 10^3, and a few of them
   can take most of a repetition, so the work would hinge on the seed
   (with a 10^4 cap a repetition's allocation still varied by 16%
   across seeds; with 10^3, by 3%).  Those programs are skipped. *)
let enum_max_space = 1_000.

(* Every location's write orders times every read's choice of source
   (a write to its location or the initial value). *)
let choice_space threads =
  let writes = Hashtbl.create 4 and reads = Hashtbl.create 4 in
  let bump tbl l =
    Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l))
  in
  Array.iter
    (List.iter (function
      | Ise_model.Instr.Load (_, l) | Load_dep (_, l, _) -> bump reads l
      | Store (l, _) | Store_reg (l, _) | Store_dep (l, _, _) -> bump writes l
      | Amo (_, l, _) | Amo_add (_, l, _) -> bump reads l; bump writes l
      | Fence | Ctrl _ -> ()))
    threads;
  let rec fact n = if n <= 1 then 1. else float_of_int n *. fact (n - 1) in
  Hashtbl.fold
    (fun l w acc ->
      let r = Option.value ~default:0 (Hashtbl.find_opt reads l) in
      acc *. fact w *. (float_of_int (w + 1) ** float_of_int r))
    writes 1.

(* The reference engine is exhaustive, so it checks only programs small
   enough for it to finish quickly. *)
let enum_oracle_max_instrs = 9
let enum_oracle_count = 12

let enum_generate ~seed =
  let rng = Ise_util.Rng.create seed in
  let rec go acc n =
    if n = 0 then Array.of_list (List.rev acc)
    else
      let threads =
        (Ise_litmus.Gen.generate (Ise_util.Rng.split rng) enum_params)
          .Ise_litmus.Lit_test.threads
      in
      if choice_space threads <= enum_max_space then go (threads :: acc) (n - 1)
      else go acc n
  in
  go [] enum_programs

let model_enum =
  let prepare ~seed =
    let programs =
      with_span "workload" "Gen.generate" (fun () -> enum_generate ~seed)
    in
    fun () ->
      let results =
        Array.map
          (fun threads ->
            List.map
              (fun cfg ->
                with_span "enum" "Enum.search" (fun () ->
                    let t0 = now () in
                    let r = Ise_model.Enum.search cfg threads in
                    host_sample "enum.search_s" (now () -. t0);
                    r))
              enum_models)
          programs
      in
      fun () ->
        let sum f =
          Array.fold_left
            (fun n l -> List.fold_left (fun n (_, s) -> n + f s) n l)
            0 results
        in
        let open Ise_model.Enum in
        let searches = Array.length programs * List.length enum_models in
        set_layer_i "enum.searches" searches;
        set_layer_i "enum.leaves" (sum (fun s -> s.leaves));
        set_layer_i "enum.rf_explored" (sum (fun s -> s.rf_explored));
        set_layer_i "enum.pruned_cycle" (sum (fun s -> s.pruned_cycle));
        set_layer_i "enum.pruned_symmetry" (sum (fun s -> s.pruned_symmetry));
        let pc = float_of_int (sum (fun s -> s.pruned_cycle)) in
        set_layer "enum.prune_ratio"
          (pc /. Float.max 1. (pc +. float_of_int (sum (fun s -> s.leaves))));
        {
          ops = searches;
          attempted = searches;
          failed = 0;
          digest =
            Digest.to_hex
              (Digest.string
                 (Marshal.to_string
                    (Array.map
                       (List.map (fun (set, s) -> (Ise_model.Outcome.Set.elements set, s)))
                       results)
                    [ Marshal.No_sharing ]));
          notes = [];
        }
  in
  (* After the loop: the fast engine's outcome sets equal the reference
     enumerate-then-check engine's on the small programs. *)
  let finish ~seed =
    let small =
      List.filteri
        (fun i _ -> i < enum_oracle_count)
        (List.filter
           (fun threads ->
             Array.fold_left (fun n is -> n + List.length is) 0 threads
             <= enum_oracle_max_instrs)
           (Array.to_list (enum_generate ~seed)))
    in
    let checks =
      List.concat_map
        (fun threads ->
          List.map
            (fun cfg ->
              Ise_model.Outcome.Set.equal
                (fst (Ise_model.Enum.search cfg threads))
                (Ise_model.Check.allowed_ref cfg threads))
            enum_models)
        small
    in
    {
      ops = 0;
      attempted = List.length checks;
      failed = List.length (List.filter not checks);
      digest = "";
      notes = [];
    }
  in
  { w_name = "model_enum"; prepare; finish; unmeasurable = []; record = None }

let workloads = [ table3_row; fig6_faults; fuzz_campaign; model_enum ]

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

type rep = { dt : float; dw : float; out : outcome }

let repetition (w : workload) run ~traced =
  (* every repetition starts from a finished major cycle, so the GC
     counters it reads are not skewed by the previous one's garbage *)
  Gc.full_major ();
  tracing := traced;
  let root = if traced then Some (open_span "bench" w.w_name) else None in
  let w0 = alloc_words () in
  let t0 = now () in
  let check = run () in
  let dt = now () -. t0 in
  let dw = alloc_words () -. w0 in
  Option.iter close_span root;
  tracing := false;
  { dt; dw; out = check () }

(* Repeats until [budget] seconds are measured and at least [min_reps]
   repetitions ran. *)
let measure w run ~traced ~budget ~min_reps =
  let rec go acc spent =
    if spent >= budget && List.length acc >= min_reps then List.rev acc
    else
      let r = repetition w run ~traced in
      go (r :: acc) (spent +. r.dt)
  in
  go [] 0.

(* Set-up is cheap next to a repetition, so it is repeated (at least 5
   times, for at least 1.5 s, at most 1000 times) and its median
   reported. *)
let setup (w : workload) ~seed =
  let start = now () in
  let rec go times =
    let t0 = now () in
    let run = w.prepare ~seed in
    let times = (now () -. t0) :: times in
    if List.length times >= 5 && (now () -. start >= 1.5 || List.length times >= 1000)
    then (median times, run)
    else go times
  in
  go []

(* [rep_sids] is the span-id range of the traced repetitions; set-up
   and the after-loop checks are recorded once, outside it. *)
let per_layer_report (w : workload) ~seed ~reps ~traced_reps ~rep_sids:(lo, hi) =
  let n = float_of_int (List.length traced_reps) in
  let med f l = median (List.map f l) in
  let wall_u = med (fun r -> r.dt) reps and wall_t = med (fun r -> r.dt) traced_reps in
  set_layer "trace.overhead_s" (wall_t -. wall_u);
  set_layer "trace.overhead_frac" ((wall_t -. wall_u) /. wall_u);
  let all = !spans in
  let in_reps, once = List.partition (fun s -> s.sid >= lo && s.sid < hi) all in
  let rep_t, rep_w = self_by_layer in_reps in
  let once_t, once_w = self_by_layer once in
  let get tbl l = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
  let per_rep l = get rep_t l /. n and per_rep_mw l = get rep_w l /. n /. 1e6 in
  set_layer "workload.gen_mwords" (get once_w "workload" /. 1e6);
  set_layer "workload.gen_s"
    (List.fold_left
       (fun a s ->
         if s.layer = "workload" && s.parent = -1 then a +. (s.t1 -. s.t0) else a)
       0. all);
  List.iter
    (fun l ->
      if get rep_t l > 0. then begin
        set_layer (l ^ ".self_s") (per_rep l);
        set_layer (l ^ ".self_mwords") (per_rep_mw l)
      end)
    [ "aso"; "machine"; "fuzz"; "enum"; "bench" ];
  if get once_t "litmus" > 0. then set_layer "litmus.self_s" (get once_t "litmus");
  let p50 name = match samples_of name with [] -> None | l -> Some (median l) in
  let set_opt name v = Option.iter (set_layer name) v in
  set_opt "aso.run_s_p50" (p50 "aso.run_s");
  (match samples_of "aso.run_s" with
   | [] -> ()
   | l -> set_layer "aso.run_s_max" (List.fold_left Float.max 0. l));
  set_opt "machine.create_s" (p50 "machine.create_s");
  set_opt "machine.run_s" (p50 "machine.run_s");
  (match samples_of "pool.job_ms" with
   | [] -> ()
   | l ->
     set_layer "pool.job_ms_p50" (percentile l 50.);
     set_layer "pool.job_ms_p99" (percentile l 99.));
  set_opt "pool.busy_frac" (p50 "pool.busy_frac");
  (match samples_of "enum.search_s" with
   | [] -> ()
   | l -> set_layer "enum.search_s" (List.fold_left ( +. ) 0. l /. n));
  (match samples_of "litmus.test_ms" with
   | [] -> ()
   | l ->
     let k = List.length l in
     (* the highest percentile with at least ten samples beyond it *)
     let pct =
       List.fold_left
         (fun best p -> if float_of_int k *. (1. -. (p /. 100.)) >= 10. then p else best)
         50. [ 50.; 75.; 90.; 95.; 99.; 99.9 ]
     in
     set_layer_i "litmus.samples" k;
     set_layer "litmus.test_ms_p50" (median l);
     set_layer "litmus.test_ms_tail" (percentile l pct);
     set_layer "litmus.tail_pct" pct);
  let machine_s = layer_value "machine.self_s" in
  let per denom =
    if layer_value denom > 0. && machine_s > 0. then
      Some (machine_s *. 1e9 /. layer_value denom)
    else None
  in
  set_opt "machine.ns_per_instr" (per "sim.instrs");
  set_opt "machine.ns_per_cycle" (per "sim.cycles");
  set_opt "machine.ns_per_mem_request" (per "memsys.requests");
  if layer_value "sim.instrs" > 0. && machine_s > 0. then
    set_layer "machine.alloc_words_per_instr"
      (layer_value "machine.self_mwords" *. 1e6 /. layer_value "sim.instrs");
  (* the trace file, checked to open with the `ise trace stitch` loader *)
  let dir = "perfbench/out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir w.w_name seed in
  let doc =
    chrome_trace
      ~meta:[ ("workload", Json.String w.w_name); ("seed", Json.Int seed) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string doc));
  let trace_ok =
    match Ise_obs.Stitch.stitch_files [ path ] with
    | Ok _ -> true
    | Error e ->
      Printf.eprintf "trace %s does not load: %s\n" path e;
      false
  in
  Printf.printf "per-layer (%s, seed %d; %d traced / %d untraced repetitions; trace %s)\n"
    w.w_name seed (List.length traced_reps) (List.length reps) path;
  List.iter
    (fun (name, unit, moves) ->
      let why =
        List.find_map
          (fun (names, why) -> if List.mem name names then Some why else None)
          w.unmeasurable
      in
      match Hashtbl.find_opt layer_values name, why with
      | Some v, _ -> Printf.printf "  %-30s %14.6g %-7s -> %s\n" name v unit moves
      | None, Some why -> Printf.printf "  %-30s %14s %-7s n/a: %s\n" name "-" unit why
      | None, None ->
        Printf.printf "  %-30s %14s %-7s not exercised by %s\n" name "0" unit w.w_name)
    catalogue;
  ( trace_ok,
    List.map
      (fun (name, unit, _) -> (name, unit, layer_value name))
      catalogue )

let usage () =
  let names ws = String.concat "|" (List.map (fun w -> w.w_name) ws) in
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace {0|1}\n\
    \       bench.exe --record {%s} FIRST LAST\n"
    (names workloads)
    (names (List.filter (fun w -> w.record <> None) workloads));
  exit 2

let find_workload name =
  match List.find_opt (fun w -> w.w_name = name) workloads with
  | Some w -> w
  | None -> usage ()

(* Prints the reference rows of seeds FIRST..LAST. *)
let record (w : workload) first last =
  match w.record with
  | None -> usage ()
  | Some row ->
    for seed = first to last do
      print_endline (String.concat "\t" (string_of_int seed :: row ~seed))
    done

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--record"; w; a; b ] ->
    record (find_workload w) (int_of_string a) (int_of_string b)
  | _ ->
    let rec parse acc = function
      | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
    let w = find_workload (get "workload") in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" = 1 in
    let setup_s, run = setup w ~seed in
    let run =
      if trace then begin
        (* one traced set-up, so the trace shows the workload layer *)
        tracing := true;
        let run = w.prepare ~seed in
        tracing := false;
        run
      end
      else run
    in
    let first_rep_sid = !next_sid in
    let budget = if trace then seconds /. 2. else seconds in
    let reps = measure w run ~traced:false ~budget ~min_reps:(if trace then 2 else 3) in
    let traced_reps =
      if trace then measure w run ~traced:true ~budget ~min_reps:2 else []
    in
    let rep_sids = (first_rep_sid, !next_sid) in
    tracing := trace;
    let fin = with_span "checks" "after-loop checks" (fun () -> w.finish ~seed) in
    tracing := false;
    let all_reps = reps @ traced_reps in
    let first = List.hd all_reps in
    let diverged = List.filter (fun r -> r.out.digest <> first.out.digest) all_reps in
    let attempted =
      List.fold_left (fun n r -> n + r.out.attempted) fin.attempted all_reps
    and failed =
      List.fold_left (fun n r -> n + r.out.failed) fin.failed all_reps
      + List.length diverged
    in
    let wall_s = median (List.map (fun r -> r.dt) reps) in
    let sim_digest = digest_of_lines [ first.out.digest; fin.digest ] in
    let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
    let e2e =
      [ ("setup_s", "s", setup_s);
        ("wall_s", "s", wall_s);
        ("ops_per_s", "1/s", float_of_int first.out.ops /. wall_s);
        ("alloc_mwords", "Mwords", median (List.map (fun r -> r.dw) reps) /. 1e6);
        ("peak_heap_mb", "MB",
         float_of_int (top_heap * (Sys.word_size / 8)) /. 1e6) ]
    in
    Printf.printf "workload %s, seed %d: %d repetitions, %d ops each\n" w.w_name seed
      (List.length reps) first.out.ops;
    List.iter (fun (n, u, v) -> Printf.printf "  %-14s %14.6g %s\n" n v u) e2e;
    Printf.printf "  fail_frac      %14.6g (%d/%d)\n"
      (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
    List.iter (Printf.printf "note: %s\n") (first.out.notes @ fin.notes);
    Printf.printf "sim_digest %s %s\n" w.w_name sim_digest;
    let failed, metrics =
      if trace then begin
        let trace_ok, layer =
          per_layer_report w ~seed ~reps ~traced_reps ~rep_sids
        in
        (failed + Bool.to_int (not trace_ok), layer)
      end
      else (failed, e2e)
    in
    print_endline
      (result_json ~correct:(failed = 0) ~attempted:(attempted + Bool.to_int trace)
         ~failed metrics)
