open Ise_aso

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

(* ------------------------------------------------------------------ *)
(* Spec_state                                                          *)

let test_spec_state_arithmetic () =
  let c = Spec_state.for_checkpoints ~checkpoints:4 ~ssb_entries:32 in
  check Alcotest.int "ssb" (32 * 16) c.Spec_state.ssb_bytes;
  check Alcotest.int "regs" (4 * 256) c.Spec_state.registers_bytes;
  check Alcotest.int "maps" (4 * 40) c.Spec_state.map_tables_bytes;
  check Alcotest.int "total"
    ((32 * 16) + (4 * 256) + (4 * 40) + Spec_state.fixed_cache_bits_bytes)
    (Spec_state.total_bytes c)

let test_spec_state_kb () =
  let c = Spec_state.for_checkpoints ~checkpoints:0 ~ssb_entries:0 in
  check (Alcotest.float 0.01) "fixed floor"
    (float_of_int Spec_state.fixed_cache_bits_bytes /. 1024.)
    (Spec_state.total_kb c)

let prop_spec_state_monotonic =
  QCheck.Test.make ~name:"spec state grows with checkpoints" ~count:50
    QCheck.(pair (int_range 0 63) (int_range 0 127))
    (fun (k, ssb) ->
      Spec_state.total_bytes (Spec_state.for_checkpoints ~checkpoints:(k + 1) ~ssb_entries:ssb)
      > Spec_state.total_bytes (Spec_state.for_checkpoints ~checkpoints:k ~ssb_entries:ssb))

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)

let test_checkpoint_allocate_release () =
  let p = Checkpoint.create ~max_checkpoints:2 in
  check Alcotest.bool "first" true (Checkpoint.try_allocate p ~store_seq:1);
  check Alcotest.bool "second" true (Checkpoint.try_allocate p ~store_seq:2);
  check Alcotest.bool "exhausted" false (Checkpoint.try_allocate p ~store_seq:3);
  check Alcotest.int "failure counted" 1 (Checkpoint.allocation_failures p);
  Checkpoint.complete p ~store_seq:1;
  check Alcotest.bool "freed" true (Checkpoint.try_allocate p ~store_seq:4);
  check Alcotest.int "watermark" 2 (Checkpoint.watermark p)

let test_checkpoint_rollback () =
  let p = Checkpoint.create ~max_checkpoints:8 in
  List.iter (fun s -> ignore (Checkpoint.try_allocate p ~store_seq:s)) [ 1; 2; 3; 4 ];
  let discarded = Checkpoint.rollback p ~store_seq:3 in
  check Alcotest.int "discards 3 and younger" 2 discarded;
  check Alcotest.int "older survive" 2 (Checkpoint.active p);
  check Alcotest.int "rollback counted" 1 (Checkpoint.rollbacks p)

(* ------------------------------------------------------------------ *)
(* Aso_core                                                            *)

let profile = Ise_workload.Mix.find "BFS"

let mk_programs () =
  Ise_workload.Mix.multicore_streams ~seed:11 ~length_per_core:8_000 ~cores:2 profile

let test_aso_run_metrics () =
  let r =
    Aso_core.run
      ~cfg:(Ise_sim.Config.with_consistency Ise_model.Axiom.Wc Ise_sim.Config.default)
      ~programs:mk_programs ()
  in
  check Alcotest.int "all retired" 16_000 r.Aso_core.retired;
  check Alcotest.bool "ipc sane" true (r.Aso_core.ipc > 0.1 && r.Aso_core.ipc < 4.0);
  check Alcotest.bool "watermarks observed" true (r.Aso_core.sb_occupancy_watermark > 0)

let test_aso_ipc_monotonic_in_checkpoints () =
  let ipc k =
    (Aso_core.run ~cfg:(Aso_core.aso_config ~checkpoints:k Ise_sim.Config.default)
       ~programs:mk_programs ())
      .Aso_core.ipc
  in
  let i1 = ipc 1 and i8 = ipc 8 and i32 = ipc 32 in
  check Alcotest.bool "more checkpoints, no slower" true (i8 >= i1 -. 0.01);
  check Alcotest.bool "saturates upward" true (i32 >= i8 -. 0.01)

let test_aso_sizing () =
  let s =
    Aso_core.size_for_wc_performance ~cfg:Ise_sim.Config.default
      ~programs:mk_programs ()
  in
  check Alcotest.bool "reaches target" true
    (s.Aso_core.aso_ipc >= 0.97 *. s.Aso_core.wc_ipc);
  check Alcotest.bool "wc beats sc" true (s.Aso_core.wc_speedup > 1.0);
  check Alcotest.bool "state within silicon budget shape" true
    (s.Aso_core.state_kb > 5. && s.Aso_core.state_kb < 40.)

let test_aso_skew_needs_more_state () =
  let sizing cfg =
    (Aso_core.size_for_wc_performance ~cfg ~programs:mk_programs ())
      .Aso_core.checkpoints
  in
  let base = sizing Ise_sim.Config.default in
  let skew = sizing (Ise_sim.Config.with_4x_store_skew Ise_sim.Config.default) in
  check Alcotest.bool "4x skew needs at least as many checkpoints" true
    (skew >= base)

let suite =
  [
    ("spec state arithmetic", `Quick, test_spec_state_arithmetic);
    ("spec state fixed floor", `Quick, test_spec_state_kb);
    qtest prop_spec_state_monotonic;
    ("checkpoint allocate/release", `Quick, test_checkpoint_allocate_release);
    ("checkpoint rollback", `Quick, test_checkpoint_rollback);
    ("aso run metrics", `Quick, test_aso_run_metrics);
    ("aso ipc monotonic in checkpoints", `Quick, test_aso_ipc_monotonic_in_checkpoints);
    ("aso sizing reaches WC", `Slow, test_aso_sizing);
    ("aso 4x skew needs more state", `Slow, test_aso_skew_needs_more_state);
  ]
