open Ise_os
open Ise_sim

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

let base = Config.default.Config.einject_base

(* ------------------------------------------------------------------ *)
(* Page_table                                                          *)

let test_pt_default_present () =
  let pt = Page_table.create ~page_bits:12 in
  check Alcotest.bool "unknown pages present" true
    (Page_table.presence pt 0x1234 = Page_table.Present)

let test_pt_resolve_minor () =
  let pt = Page_table.create ~page_bits:12 in
  Page_table.set_presence pt 0x4000 Page_table.Absent_minor;
  check Alcotest.bool "minor" true (Page_table.resolve pt 0x4abc = `Minor);
  check Alcotest.bool "now present" true (Page_table.resolve pt 0x4000 = `Was_present);
  check Alcotest.int "count" 1 (Page_table.minor_faults pt)

let test_pt_resolve_major () =
  let pt = Page_table.create ~page_bits:12 in
  Page_table.set_presence pt 0x8000 Page_table.Absent_major;
  check Alcotest.bool "major" true (Page_table.resolve pt 0x8000 = `Major);
  check Alcotest.int "majors" 1 (Page_table.major_faults pt);
  check Alcotest.int "mapped" 1 (Page_table.pages_mapped pt)

(* ------------------------------------------------------------------ *)
(* Kernel                                                              *)

let test_kernel_deliver () =
  let k = Kernel.create () in
  let handled = ref [] in
  let run d = handled := d :: !handled in
  check Alcotest.bool "delivered" true
    (Kernel.deliver k (Kernel.Interrupt 1) run);
  check Alcotest.int "one handled" 1 (List.length !handled);
  check Alcotest.bool "ie clear after" false (Kernel.ie k)

let test_kernel_queue_while_masked () =
  let k = Kernel.create () in
  let handled = ref [] in
  let run d = handled := d :: !handled in
  Kernel.enter k;
  check Alcotest.bool "queued" false
    (Kernel.deliver k (Kernel.Imprecise_exception 2) run);
  check Alcotest.int "pending" 1 (Kernel.pending k);
  Kernel.exit_and_drain k run;
  check Alcotest.int "drained" 1 (List.length !handled);
  check Alcotest.int "none pending" 0 (Kernel.pending k)

let test_kernel_no_recursion () =
  let k = Kernel.create () in
  Kernel.enter k;
  Alcotest.check_raises "recursive"
    (Failure "Kernel.enter: recursive handlers are not supported") (fun () ->
      Kernel.enter k)

let prop_kernel_all_delivered =
  QCheck.Test.make ~name:"every delivery eventually runs" ~count:100
    QCheck.(list bool)
    (fun masked_first ->
      let k = Kernel.create () in
      let count = ref 0 in
      let run _ = incr count in
      let sent = ref 0 in
      List.iter
        (fun mask ->
          if mask && not (Kernel.ie k) then Kernel.enter k;
          ignore (Kernel.deliver k (Kernel.Interrupt 0) run);
          incr sent;
          if Kernel.ie k then Kernel.exit_and_drain k run)
        masked_first;
      Kernel.exit_and_drain k run;
      !count = !sent)

(* ------------------------------------------------------------------ *)
(* Handler                                                             *)

let st a v = Sim_instr.St { addr = Sim_instr.addr a; data = Sim_instr.Imm v }

let test_handler_batching_counts () =
  (* several stores to faulting pages back-to-back: one invocation
     covers them all *)
  let prog = List.init 6 (fun i -> st (base + (i * 4096)) (i + 1)) in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  let os = Handler.install m in
  for i = 0 to 5 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.run m;
  check Alcotest.bool "few invocations" true (os.Handler.invocations <= 3);
  check Alcotest.int "all stores handled" 6 os.Handler.faulting_handled;
  check Alcotest.bool "batched" true
    (Ise_util.Stats.max_value os.Handler.batch_sizes >= 2.);
  for i = 0 to 5 do
    check Alcotest.int "applied" (i + 1) (Machine.read_word m (base + (i * 4096)))
  done

let test_handler_unbatched_with_fences () =
  let prog =
    List.concat (List.init 3 (fun i -> [ st (base + (i * 4096)) (i + 1); Sim_instr.Fence ]))
  in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  let os = Handler.install m in
  for i = 0 to 2 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.run m;
  check Alcotest.int "one invocation per store" 3 os.Handler.invocations;
  check (Alcotest.float 0.01) "batch of one" 1.0
    (Ise_util.Stats.mean os.Handler.batch_sizes)

let test_handler_demand_paging_majors () =
  let pt = Page_table.create ~page_bits:12 in
  Page_table.set_presence pt base Page_table.Absent_major;
  let config =
    { Handler.costs = Ise_core.Batch.default_cost_model;
      policy = Handler.Demand_paging { table = pt; io_latency = 10_000 } }
  in
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 5 ] |] () in
  let os = Handler.install ~config m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "one IO request" 1 os.Handler.io_requests;
  check Alcotest.bool "IO latency paid" true (Machine.cycles m > 10_000);
  check Alcotest.int "store applied" 5 (Machine.read_word m base)

let test_handler_precise_cost () =
  let m =
    Machine.create
      ~programs:[| Sim_instr.of_list [ Sim_instr.Ld { dst = 0; addr = Sim_instr.addr base } ] |]
      ()
  in
  let os = Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "precise handled" 1 os.Handler.precise_faults;
  (* dispatch + resolve + os_other at defaults = 522 cycles minimum *)
  check Alcotest.bool "cost paid" true (Machine.cycles m > 500)

let test_handler_stats_breakdown () =
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 1 ] |] () in
  let os = Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.bool "apply cycles accounted" true (os.Handler.apply_cycles > 0);
  check Alcotest.bool "other cycles accounted" true (os.Handler.other_cycles > 0);
  let uarch = (Core.stats (Machine.core m 0)).Core.drain_uarch_cycles in
  check Alcotest.bool "uarch is the small fraction" true
    (uarch < os.Handler.other_cycles)

(* ------------------------------------------------------------------ *)
(* Syscall (§5.4)                                                      *)

let test_copy_to_user_clean () =
  let r =
    Syscall.run_copy_to_user ~dst:base ~values:[ 1; 2; 3 ] ~mark_faulting:false ()
  in
  check Alcotest.bool "completed" true r.Syscall.completed;
  check Alcotest.bool "data correct" true r.Syscall.data_correct;
  check Alcotest.int "no kernel exceptions" 0 r.Syscall.kernel_exceptions

let test_copy_to_user_contained () =
  let r =
    Syscall.run_copy_to_user ~dst:base ~values:[ 10; 20; 30; 40 ]
      ~mark_faulting:true ()
  in
  check Alcotest.bool "completed" true r.Syscall.completed;
  check Alcotest.bool "data correct" true r.Syscall.data_correct;
  check Alcotest.bool "kernel took imprecise exceptions" true
    (r.Syscall.kernel_exceptions >= 1);
  check Alcotest.bool "contained by the fence" true r.Syscall.contained

let test_copy_to_user_stub_shape () =
  let stub = Syscall.copy_to_user ~dst:base ~values:[ 1; 2 ] in
  check Alcotest.int "two stores and a fence" 3 (List.length stub);
  check Alcotest.bool "ends with fence" true
    (List.nth stub 2 = Ise_sim.Sim_instr.Fence)

let suite =
  [
    ("page table default present", `Quick, test_pt_default_present);
    ("page table minor fault", `Quick, test_pt_resolve_minor);
    ("page table major fault", `Quick, test_pt_resolve_major);
    ("kernel delivery", `Quick, test_kernel_deliver);
    ("kernel queues while masked", `Quick, test_kernel_queue_while_masked);
    ("kernel rejects recursion", `Quick, test_kernel_no_recursion);
    qtest prop_kernel_all_delivered;
    ("handler batching", `Quick, test_handler_batching_counts);
    ("handler unbatched with fences", `Quick, test_handler_unbatched_with_fences);
    ("handler demand paging majors", `Quick, test_handler_demand_paging_majors);
    ("handler precise cost", `Quick, test_handler_precise_cost);
    ("handler stats breakdown", `Quick, test_handler_stats_breakdown);
    ("copy_to_user clean", `Quick, test_copy_to_user_clean);
    ("copy_to_user containment (§5.4)", `Quick, test_copy_to_user_contained);
    ("copy_to_user stub shape", `Quick, test_copy_to_user_stub_shape);
  ]
