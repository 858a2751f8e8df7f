open Ise_core

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

let record ?(core = 0) ?(code = Fault.Bus_error) seq addr data =
  { Fault.core; seq; addr; data; byte_mask = 0xFF; code }

(* ------------------------------------------------------------------ *)
(* Fault                                                               *)

let test_fault_severity () =
  (* every code, so a new constructor cannot silently default *)
  check Alcotest.bool "no exception recoverable" true
    (Fault.severity_of Fault.No_exception = Fault.Recoverable);
  check Alcotest.bool "page fault recoverable" true
    (Fault.severity_of Fault.Page_fault = Fault.Recoverable);
  check Alcotest.bool "protection fault irrecoverable" true
    (Fault.severity_of Fault.Protection_fault = Fault.Irrecoverable);
  check Alcotest.bool "bus error recoverable" true
    (Fault.severity_of Fault.Bus_error = Fault.Recoverable);
  check Alcotest.bool "accelerator recoverable" true
    (Fault.severity_of (Fault.Accelerator 3) = Fault.Recoverable);
  check Alcotest.bool "accelerator code 0 recoverable" true
    (Fault.severity_of (Fault.Accelerator 0) = Fault.Recoverable)

let test_fault_x86_taxonomy () =
  (* Table 1: machine checks are the only hierarchy-origin exception *)
  let aborts =
    List.filter (fun e -> e.Fault.cls = Fault.Abort) Fault.x86_taxonomy
  in
  check Alcotest.int "one abort row" 1 (List.length aborts);
  check Alcotest.bool "machine check in aborts" true
    (List.exists
       (fun e -> List.mem "Machine Check" e.Fault.names)
       aborts);
  check Alcotest.bool "page fault is a memory-stage fault" true
    (List.exists
       (fun e ->
         e.Fault.cls = Fault.Fault && e.Fault.stage = "Memory"
         && List.mem "Page fault" e.Fault.names)
       Fault.x86_taxonomy)

(* ------------------------------------------------------------------ *)
(* Fsb                                                                 *)

let test_fsb_sysregs () =
  let fsb = Fsb.create ~entries:8 ~base:0x7000_0000 () in
  check Alcotest.int "base" 0x7000_0000 (Fsb.base fsb);
  check Alcotest.int "mask" 7 (Fsb.mask fsb);
  check Alcotest.int "head" 0 (Fsb.head fsb);
  check Alcotest.int "tail" 0 (Fsb.tail fsb);
  check Alcotest.bool "empty" true (Fsb.is_empty fsb)

let test_fsb_fifo () =
  let fsb = Fsb.create ~entries:8 ~base:0 () in
  for i = 0 to 4 do
    check Alcotest.bool "append ok" true (Fsb.fsbc_append fsb (record i (8 * i) i))
  done;
  check Alcotest.int "tail advanced" 5 (Fsb.tail fsb);
  let drained = Fsb.os_drain_all fsb in
  check (Alcotest.list Alcotest.int) "interface order"
    [ 0; 1; 2; 3; 4 ]
    (List.map (fun r -> r.Fault.seq) drained);
  check Alcotest.int "head caught tail" (Fsb.tail fsb) (Fsb.head fsb)

let test_fsb_full () =
  let fsb = Fsb.create ~entries:2 ~base:0 () in
  ignore (Fsb.fsbc_append fsb (record 0 0 0));
  ignore (Fsb.fsbc_append fsb (record 1 8 1));
  check Alcotest.bool "full rejects" false (Fsb.fsbc_append fsb (record 2 16 2));
  (* a refused append changes nothing: pointers, pending, stats *)
  check Alcotest.int "pending unchanged" 2 (Fsb.pending fsb);
  check Alcotest.int "tail unchanged" 2 (Fsb.tail fsb);
  check Alcotest.int "appends not counted" 2 (Fsb.total_appended fsb)

let test_fsb_capacity () =
  let fsb = Fsb.create ~entries:8 ~base:0 () in
  check Alcotest.int "capacity = entries" (Fsb.entries fsb) (Fsb.capacity fsb);
  check Alcotest.bool "full iff pending = capacity" false (Fsb.is_full fsb);
  for i = 0 to Fsb.capacity fsb - 1 do
    ignore (Fsb.fsbc_append fsb (record i (8 * i) i))
  done;
  check Alcotest.bool "now full" true (Fsb.is_full fsb);
  (* non-power-of-two sizes would alias ring slots under the mask *)
  List.iter
    (fun n ->
      check Alcotest.bool
        (Printf.sprintf "entries=%d rejected" n)
        true
        (match Fsb.create ~entries:n ~base:0 () with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ 0; -1; 3; 6; 12 ]

let test_fsb_peek_advance () =
  let fsb = Fsb.create ~entries:4 ~base:0 () in
  ignore (Fsb.fsbc_append fsb (record 0 0 10));
  (match Fsb.os_peek fsb with
   | Some r -> check Alcotest.int "peek data" 10 r.Fault.data
   | None -> Alcotest.fail "expected entry");
  Fsb.os_advance fsb;
  check Alcotest.bool "empty after advance" true (Fsb.is_empty fsb);
  Alcotest.check_raises "advance empty"
    (Failure "Fsb.os_advance: head has caught up with tail") (fun () ->
      Fsb.os_advance fsb)

let test_fsb_watermark () =
  let fsb = Fsb.create ~entries:8 ~base:0 () in
  for i = 0 to 3 do
    ignore (Fsb.fsbc_append fsb (record i 0 0))
  done;
  ignore (Fsb.os_drain_all fsb);
  ignore (Fsb.fsbc_append fsb (record 9 0 0));
  check Alcotest.int "watermark" 4 (Fsb.high_watermark fsb);
  check Alcotest.int "total" 5 (Fsb.total_appended fsb)

let prop_fsb_order_preserving =
  QCheck.Test.make ~name:"FSB preserves append order across mixed ops" ~count:200
    QCheck.(list (int_range 0 1))
    (fun ops ->
      let fsb = Fsb.create ~entries:16 ~base:0 () in
      let seq = ref 0 in
      let appended = ref [] and drained = ref [] in
      List.iter
        (fun op ->
          if op = 0 then begin
            if Fsb.fsbc_append fsb (record !seq 0 0) then begin
              appended := !seq :: !appended;
              incr seq
            end
          end
          else
            match Fsb.os_peek fsb with
            | Some r ->
              Fsb.os_advance fsb;
              drained := r.Fault.seq :: !drained
            | None -> ())
        ops;
      let final =
        List.rev !drained
        @ List.map (fun r -> r.Fault.seq) (Fsb.os_drain_all fsb)
      in
      final = List.rev !appended)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let entry p f = { Protocol.payload = p; faulting = f }

let test_protocol_same_stream () =
  let routing =
    Protocol.route Protocol.Same_stream [ entry 1 false; entry 2 true; entry 3 false ]
  in
  check (Alcotest.list Alcotest.int) "all to fsb, in order" [ 1; 2; 3 ]
    routing.Protocol.to_fsb;
  check (Alcotest.list Alcotest.int) "nothing to memory" []
    routing.Protocol.to_memory

let test_protocol_split_stream () =
  let routing =
    Protocol.route Protocol.Split_stream
      [ entry 1 false; entry 2 true; entry 3 false; entry 4 true ]
  in
  check (Alcotest.list Alcotest.int) "faulting to fsb" [ 2; 4 ]
    routing.Protocol.to_fsb;
  check (Alcotest.list Alcotest.int) "clean to memory" [ 1; 3 ]
    routing.Protocol.to_memory

let test_protocol_barrier_requirement () =
  check Alcotest.bool "split needs a barrier" true
    (Protocol.requires_barrier Protocol.Split_stream);
  check Alcotest.bool "same stream does not" false
    (Protocol.requires_barrier Protocol.Same_stream)

let test_protocol_priority () =
  (* imprecise exceptions beat precise ones (§5.3) *)
  let p =
    Protocol.priority
      [ Protocol.Precise { po_index = 1 };
        Protocol.Imprecise { oldest_store_seq = 9 };
        Protocol.Imprecise { oldest_store_seq = 4 } ]
  in
  (match p with
   | Some (Protocol.Imprecise { oldest_store_seq }) ->
     check Alcotest.int "oldest imprecise" 4 oldest_store_seq
   | _ -> Alcotest.fail "expected imprecise priority");
  (match Protocol.priority [ Protocol.Precise { po_index = 7 };
                             Protocol.Precise { po_index = 3 } ] with
   | Some (Protocol.Precise { po_index }) ->
     check Alcotest.int "oldest precise" 3 po_index
   | _ -> Alcotest.fail "expected precise");
  check Alcotest.bool "empty" true (Protocol.priority [] = None)

let prop_protocol_routing_partitions =
  QCheck.Test.make ~name:"routing partitions and preserves order" ~count:200
    QCheck.(list bool)
    (fun flags ->
      let entries = List.mapi (fun i f -> entry i f) flags in
      let same = Protocol.route Protocol.Same_stream entries in
      let split = Protocol.route Protocol.Split_stream entries in
      let sorted l = List.sort compare l in
      let all = List.mapi (fun i _ -> i) flags in
      same.Protocol.to_fsb = all
      && sorted (split.Protocol.to_fsb @ split.Protocol.to_memory) = all
      && split.Protocol.to_fsb = List.sort compare split.Protocol.to_fsb
      && split.Protocol.to_memory = List.sort compare split.Protocol.to_memory)

(* ------------------------------------------------------------------ *)
(* Contract                                                            *)

let put c cy r = Contract.Put { core = c; cycle = cy; record = r }
let get c cy r = Contract.Get { core = c; cycle = cy; record = r }
let apply c cy r = Contract.Apply { core = c; cycle = cy; record = r }

let good_trace =
  let r0 = record 0 0 1 and r1 = record 1 8 2 in
  [ Contract.Detect { core = 0; cycle = 10 };
    put 0 11 r0; put 0 12 r1;
    get 0 20 r0; get 0 21 r1;
    apply 0 30 r0; apply 0 31 r1;
    Contract.Resolve { core = 0; cycle = 40 };
    Contract.Resume { core = 0; cycle = 41 } ]

let test_contract_good () =
  check Alcotest.bool "valid trace accepted" true
    (Stdlib.Result.is_ok (Contract.check ~ncores:1 good_trace))

let test_contract_put_order () =
  let r0 = record 5 0 1 and r1 = record 3 8 2 in
  let trace = [ put 0 1 r0; put 0 2 r1 ] in
  (match Contract.check ~ncores:1 trace with
   | Error v -> check Alcotest.string "rule" "cores-supply-in-sb-order" v.Contract.rule
   | Ok () -> Alcotest.fail "expected violation")

let test_contract_get_fifo () =
  let r0 = record 0 0 1 and r1 = record 1 8 2 in
  let trace = [ put 0 1 r0; put 0 2 r1; get 0 3 r1; get 0 4 r0 ] in
  (match Contract.check ~ncores:1 trace with
   | Error v -> check Alcotest.string "rule" "interface-fifo" v.Contract.rule
   | Ok () -> Alcotest.fail "expected violation")

let test_contract_apply_order () =
  let r0 = record 0 0 1 and r1 = record 1 8 2 in
  let trace =
    [ put 0 1 r0; put 0 2 r1; get 0 3 r0; get 0 4 r1; apply 0 5 r1 ]
  in
  (match Contract.check ~ncores:1 trace with
   | Error v ->
     check Alcotest.string "rule" "os-apply-in-interface-order" v.Contract.rule
   | Ok () -> Alcotest.fail "expected violation");
  (* the same trace is fine under WC's relaxed apply order *)
  check Alcotest.bool "unordered apply ok under WC" true
    (Stdlib.Result.is_ok
       (Contract.check ~ordered_apply:false ~ncores:1
          (trace @ [ apply 0 6 r0; Contract.Resolve { core = 0; cycle = 7 } ])))

let test_contract_resolve_before_apply_all () =
  let r0 = record 0 0 1 in
  let trace =
    [ Contract.Detect { core = 0; cycle = 0 }; put 0 1 r0; get 0 2 r0;
      Contract.Resolve { core = 0; cycle = 3 } ]
  in
  (match Contract.check ~ncores:1 trace with
   | Error v ->
     check Alcotest.string "rule" "os-apply-all-before-resolve" v.Contract.rule
   | Ok () -> Alcotest.fail "expected violation")

let test_contract_resume_before_resolve () =
  let trace =
    [ Contract.Detect { core = 0; cycle = 0 };
      Contract.Resume { core = 0; cycle = 1 } ]
  in
  (match Contract.check ~ncores:1 trace with
   | Error v -> check Alcotest.string "rule" "os-resume-after-resolve" v.Contract.rule
   | Ok () -> Alcotest.fail "expected violation")

let test_contract_per_core_independent () =
  let r0 = record ~core:0 0 0 1 and r1 = record ~core:1 0 8 2 in
  let trace = [ put 0 1 r0; put 1 1 r1; get 1 2 r1; get 0 3 r0 ] in
  check Alcotest.bool "cross-core interleaving fine" true
    (Stdlib.Result.is_ok (Contract.check ~ncores:2 trace))

(* ------------------------------------------------------------------ *)
(* Batch                                                               *)

let test_batch_unbatched_anchor () =
  (* Figure 5: handling a single faulting store costs ~600 cycles and
     the microarchitectural part is a tiny fraction *)
  let b = Batch.per_store_overhead Batch.default_cost_model ~batch_size:1 in
  let total = Batch.total b in
  check Alcotest.bool "~600 cycles" true (total > 500. && total < 700.);
  check Alcotest.bool "uarch is tiny" true (b.Batch.uarch < 0.1 *. total)

let test_batch_monotonic () =
  let m = Batch.default_cost_model in
  let t n = Batch.total (Batch.per_store_overhead m ~batch_size:n) in
  check Alcotest.bool "8 < 1" true (t 8 < t 1);
  check Alcotest.bool "32 < 8" true (t 32 < t 8)

let test_batch_speedup () =
  check Alcotest.bool "batching speeds up" true
    (Batch.speedup Batch.default_cost_model ~batch_size:16 > 2.)

let test_batch_major_io_overlap () =
  let m = Batch.default_cost_model in
  let unbatched = Batch.per_store_overhead ~major_faults:true m ~batch_size:1 in
  let batched = Batch.per_store_overhead ~major_faults:true m ~batch_size:16 in
  check Alcotest.bool "IO overlap dominates" true
    (Batch.total batched < Batch.total unbatched /. 8.)

let test_batch_invalid () =
  Alcotest.check_raises "batch 0" (Invalid_argument "Batch.per_store_overhead")
    (fun () -> ignore (Batch.per_store_overhead Batch.default_cost_model ~batch_size:0))

let prop_batch_decreasing =
  QCheck.Test.make ~name:"per-store overhead decreases with batch size" ~count:50
    QCheck.(int_range 1 31)
    (fun n ->
      let m = Batch.default_cost_model in
      Batch.total (Batch.per_store_overhead m ~batch_size:(n + 1))
      <= Batch.total (Batch.per_store_overhead m ~batch_size:n) +. 1e-9)

let suite =
  [
    ("fault severity", `Quick, test_fault_severity);
    ("x86 taxonomy (Table 1)", `Quick, test_fault_x86_taxonomy);
    ("fsb system registers", `Quick, test_fsb_sysregs);
    ("fsb FIFO", `Quick, test_fsb_fifo);
    ("fsb full", `Quick, test_fsb_full);
    ("fsb capacity and sizing", `Quick, test_fsb_capacity);
    ("fsb peek/advance", `Quick, test_fsb_peek_advance);
    ("fsb watermark", `Quick, test_fsb_watermark);
    qtest prop_fsb_order_preserving;
    ("protocol same-stream routing", `Quick, test_protocol_same_stream);
    ("protocol split-stream routing", `Quick, test_protocol_split_stream);
    ("protocol barrier requirement", `Quick, test_protocol_barrier_requirement);
    ("protocol exception priority", `Quick, test_protocol_priority);
    qtest prop_protocol_routing_partitions;
    ("contract accepts valid trace", `Quick, test_contract_good);
    ("contract put order", `Quick, test_contract_put_order);
    ("contract get fifo", `Quick, test_contract_get_fifo);
    ("contract apply order", `Quick, test_contract_apply_order);
    ("contract apply-all before resolve", `Quick, test_contract_resolve_before_apply_all);
    ("contract resume after resolve", `Quick, test_contract_resume_before_resolve);
    ("contract per-core independence", `Quick, test_contract_per_core_independent);
    ("batch unbatched anchor (~600 cycles)", `Quick, test_batch_unbatched_anchor);
    ("batch monotonic", `Quick, test_batch_monotonic);
    ("batch speedup", `Quick, test_batch_speedup);
    ("batch major IO overlap", `Quick, test_batch_major_io_overlap);
    ("batch invalid size", `Quick, test_batch_invalid);
    qtest prop_batch_decreasing;
  ]
