open Ise_sim

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

let base = Config.default.Config.einject_base

let null_hooks =
  {
    Machine.on_imprecise = (fun _ -> Alcotest.fail "unexpected imprecise");
    on_precise =
      (fun ~core:_ ~addr:_ ~code:_ ~retry:_ -> Alcotest.fail "unexpected precise");
  }

let run_program ?(cfg = Config.default) ?(hooks = `Os) prog =
  let m = Machine.create ~cfg ~programs:[| Sim_instr.of_list prog |] () in
  (match hooks with
   | `Os -> ignore (Ise_os.Handler.install m)
   | `Null -> Machine.set_hooks m null_hooks);
  Machine.run m;
  m

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_in e 5 (fun () -> log := 5 :: !log);
  Engine.schedule_in e 2 (fun () -> log := 2 :: !log);
  Engine.schedule_in e 2 (fun () -> log := 20 :: !log);
  for _ = 1 to 6 do
    Engine.advance e;
    ignore (Engine.run_due e)
  done;
  check (Alcotest.list Alcotest.int) "firing order" [ 5; 20; 2 ] !log

let test_engine_skip () =
  let e = Engine.create () in
  Engine.schedule_in e 100 (fun () -> ());
  check Alcotest.bool "skips" true (Engine.skip_to_next_event e);
  check Alcotest.int "warped" 100 (Engine.now e)

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.advance e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: in the past")
    (fun () -> Engine.schedule_at e 0 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_variants () =
  let c = Config.default in
  let c2 = Config.with_2x_memory c in
  check Alcotest.int "2x load" (2 * c.Config.dram_load_latency)
    c2.Config.dram_load_latency;
  let c4 = Config.with_4x_store_skew c in
  check Alcotest.int "4x store" (4 * c.Config.dram_load_latency)
    c4.Config.dram_store_latency;
  check Alcotest.int "loads unchanged" c.Config.dram_load_latency
    c4.Config.dram_load_latency

let test_config_pc_inflight () =
  let c = Config.with_consistency Ise_model.Axiom.Pc Config.default in
  check Alcotest.int "PC drains serially" 1 c.Config.sb_max_inflight

let test_config_mesh () =
  let c = Config.default in
  check Alcotest.int "corner to corner" 6 (Config.hops c 0 15);
  check Alcotest.int "self" 0 (Config.hops c 5 5)

(* ------------------------------------------------------------------ *)
(* Einject                                                             *)

let test_einject_basic () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  check Alcotest.bool "in region" true (Einject.contains e 0x1000);
  check Alcotest.bool "outside" false (Einject.contains e 0x5000);
  Einject.set_faulting e 0x2123;
  check Alcotest.bool "page marked" true (Einject.is_faulting e 0x2fff);
  check Alcotest.bool "other page clear" false (Einject.is_faulting e 0x1000);
  Einject.clear_faulting e 0x2000;
  check Alcotest.bool "cleared" false (Einject.is_faulting e 0x2123)

let test_einject_outside_ignored () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* below and above the region: both MMIO registers are dead writes *)
  Einject.set_faulting e 0x0fff;
  Einject.set_faulting e 0x9000;
  Einject.set_faulting e 0x5000;
  (* one past the last page *)
  check Alcotest.int "nothing marked" 0 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x9000;
  check Alcotest.int "clr outside harmless" 0 (Einject.faulting_pages e);
  check Alcotest.bool "outside never faults" false (Einject.is_faulting e 0x9000)

let test_einject_idempotent () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* set/set and clr/clr are idempotent, like MMIO bitmap writes *)
  Einject.set_faulting e 0x2000;
  Einject.set_faulting e 0x2abc;
  check Alcotest.int "one page marked" 1 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x2fff;
  Einject.clear_faulting e 0x2000;
  check Alcotest.int "clear is idempotent" 0 (Einject.faulting_pages e);
  Einject.clear_faulting e 0x3000;
  (* clr of an unmarked page *)
  check Alcotest.int "still none" 0 (Einject.faulting_pages e)

let test_einject_page_boundary () =
  let e = Einject.create ~base:0x1000 ~pages:4 ~page_bits:12 in
  (* marking the last byte of a page marks that page alone *)
  Einject.set_faulting e 0x2fff;
  check Alcotest.bool "first byte of page" true (Einject.is_faulting e 0x2000);
  check Alcotest.bool "next page clear" false (Einject.is_faulting e 0x3000);
  check Alcotest.bool "previous page clear" false
    (Einject.is_faulting e 0x1fff);
  (* first and last pages of the region are reachable *)
  Einject.set_faulting e 0x1000;
  Einject.set_faulting e 0x4fff;
  check Alcotest.int "three pages marked" 3 (Einject.faulting_pages e);
  Einject.clear_all e;
  check Alcotest.int "clear_all" 0 (Einject.faulting_pages e)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~ways:2 () in
  check (Alcotest.option Alcotest.bool) "miss" None
    (Option.map (fun _ -> true) (Cache.lookup c 42));
  ignore (Cache.insert c 42 Cache.Shared);
  check Alcotest.bool "hit" true (Cache.lookup c 42 = Some Cache.Shared);
  check Alcotest.int "one hit" 1 (Cache.hits c);
  check Alcotest.int "one miss" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 () in
  ignore (Cache.insert c 0 Cache.Shared);
  ignore (Cache.insert c 1 Cache.Shared);
  ignore (Cache.lookup c 0);
  (* block 1 is now LRU *)
  let evicted = Cache.insert c 2 Cache.Shared in
  check (Alcotest.option Alcotest.int) "evicts LRU" (Some 1) evicted;
  check Alcotest.bool "0 still present" true (Cache.probe c 0 <> None)

let test_cache_state_transitions () =
  let c = Cache.create ~sets:4 ~ways:2 () in
  ignore (Cache.insert c 7 Cache.Exclusive);
  Cache.set_state c 7 Cache.Modified;
  check Alcotest.bool "modified" true (Cache.probe c 7 = Some Cache.Modified);
  Cache.invalidate c 7;
  check Alcotest.bool "gone" true (Cache.probe c 7 = None)

(* ------------------------------------------------------------------ *)
(* Memsys                                                              *)

let mk_memsys () =
  let cfg = Config.default in
  let engine = Engine.create () in
  let einj =
    Einject.create ~base:cfg.Config.einject_base ~pages:cfg.Config.einject_pages
      ~page_bits:cfg.Config.page_bits
  in
  (engine, einj, Memsys.create cfg engine einj)

let drain engine =
  let guard = ref 0 in
  while Engine.pending engine > 0 && !guard < 100_000 do
    Engine.advance engine;
    ignore (Engine.run_due engine);
    incr guard
  done

let test_memsys_write_read () =
  let engine, _, ms = mk_memsys () in
  let got = ref (-1) in
  Memsys.request ms ~core:0 ~addr:0x1000 (Memsys.Write { data = 77; mask = 0xFF })
    (fun _ -> ());
  drain engine;
  Memsys.request ms ~core:0 ~addr:0x1000 Memsys.Read (fun r ->
      match r with Memsys.Value v -> got := v | _ -> ());
  drain engine;
  check Alcotest.int "read back" 77 !got;
  check Alcotest.int "oracle" 77 (Memsys.peek ms 0x1000)

let test_memsys_hit_faster_than_miss () =
  let engine, _, ms = mk_memsys () in
  let t_done = ref 0 in
  Memsys.request ms ~core:0 ~addr:0x2000 Memsys.Read (fun _ ->
      t_done := Engine.now engine);
  drain engine;
  let miss_latency = !t_done in
  let start = Engine.now engine in
  Memsys.request ms ~core:0 ~addr:0x2000 Memsys.Read (fun _ ->
      t_done := Engine.now engine);
  drain engine;
  let hit_latency = !t_done - start in
  check Alcotest.bool "hit faster" true (hit_latency < miss_latency);
  check Alcotest.int "hit = l1 latency" Config.default.Config.l1_latency
    hit_latency

let test_memsys_denial () =
  let engine, einj, ms = mk_memsys () in
  Einject.set_faulting einj base;
  let result = ref None in
  Memsys.request ms ~core:0 ~addr:base (Memsys.Write { data = 1; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  (match !result with
   | Some (Memsys.Denied Ise_core.Fault.Bus_error) -> ()
   | _ -> Alcotest.fail "expected denial");
  check Alcotest.int "value not written" 0 (Memsys.peek ms base);
  check Alcotest.int "denial recorded" 1 (Memsys.denials ms)

let test_memsys_amo () =
  let engine, _, ms = mk_memsys () in
  Memsys.poke ms 0x3000 10;
  let old = ref (-1) in
  Memsys.request ms ~core:0 ~addr:0x3000 (Memsys.Atomic (Memsys.Add 5)) (fun r ->
      match r with Memsys.Value v -> old := v | _ -> ());
  drain engine;
  check Alcotest.int "old value" 10 !old;
  check Alcotest.int "updated" 15 (Memsys.peek ms 0x3000)

let test_memsys_byte_mask () =
  let engine, _, ms = mk_memsys () in
  Memsys.poke ms 0x4000 0x1122334455667788;
  Memsys.request ms ~core:0 ~addr:0x4000 (Memsys.Write { data = 0xFF; mask = 0x01 })
    (fun _ -> ());
  drain engine;
  check Alcotest.bool "only low byte replaced" true
    (Memsys.peek ms 0x4000 = 0x11223344556677FF)

let test_memsys_invalidation_counted () =
  let engine, _, ms = mk_memsys () in
  (* core 1 reads, core 2 writes: the write invalidates core 1 *)
  Memsys.request ms ~core:1 ~addr:0x5000 Memsys.Read (fun _ -> ());
  drain engine;
  Memsys.request ms ~core:2 ~addr:0x5000 (Memsys.Write { data = 3; mask = 0xFF })
    (fun _ -> ());
  drain engine;
  check Alcotest.bool "invalidations happened" true (Memsys.invalidations ms >= 1)

let test_memsys_same_block_serialises () =
  let engine, _, ms = mk_memsys () in
  let order = ref [] in
  Memsys.request ms ~core:0 ~addr:0x6000 (Memsys.Write { data = 1; mask = 0xFF })
    (fun _ -> order := 1 :: !order);
  Memsys.request ms ~core:1 ~addr:0x6000 (Memsys.Write { data = 2; mask = 0xFF })
    (fun _ -> order := 2 :: !order);
  drain engine;
  check (Alcotest.list Alcotest.int) "arrival order" [ 2; 1 ] !order;
  check Alcotest.int "last write wins" 2 (Memsys.peek ms 0x6000)

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)

let test_sb_pc_fifo () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Pc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  (match Sb.drainable sb ~max_inflight:4 with
   | [ e ] -> check Alcotest.int "head first" 0 e.Sb.seq
   | l -> Alcotest.fail (Printf.sprintf "expected 1 drain, got %d" (List.length l)));
  let e = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e;
  check (Alcotest.list Alcotest.int) "PC: one at a time" []
    (List.map (fun e -> e.Sb.seq) (Sb.drainable sb ~max_inflight:4))

let test_sb_wc_concurrent () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  check Alcotest.int "both drainable" 2
    (List.length (Sb.drainable sb ~max_inflight:4))

let test_sb_wc_coalesce () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x10 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x10 ~data:2 ~mask:0xFF);
  check Alcotest.int "coalesced" 1 (Sb.length sb);
  check (Alcotest.option Alcotest.int) "newest value" (Some 2)
    (Sb.forward sb ~addr:0x10)

let test_sb_same_word_order () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x20 ~data:1 ~mask:0xFF);
  let e0 = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e0;
  (* a same-word store pushed while the first is inflight cannot
     coalesce (the first is no longer waiting) nor drain before it *)
  ignore (Sb.push sb ~seq:1 ~addr:0x20 ~data:2 ~mask:0xFF);
  check (Alcotest.list Alcotest.int) "blocked behind inflight same word" []
    (List.map (fun e -> e.Sb.seq) (Sb.drainable sb ~max_inflight:4))

let test_sb_fault_keeps_entry () =
  let sb = Sb.create ~capacity:8 ~mode:Ise_model.Axiom.Wc in
  ignore (Sb.push sb ~seq:0 ~addr:0x30 ~data:1 ~mask:0xFF);
  let e = List.hd (Sb.drainable sb ~max_inflight:4) in
  Sb.mark_inflight sb e;
  Sb.mark_faulted sb e Ise_core.Fault.Bus_error;
  check Alcotest.bool "fault flagged" true (Sb.has_fault sb);
  check Alcotest.int "entry stays" 1 (Sb.length sb);
  check Alcotest.int "no longer inflight" 0 (Sb.inflight sb)

let test_sb_capacity () =
  let sb = Sb.create ~capacity:2 ~mode:Ise_model.Axiom.Pc in
  ignore (Sb.push sb ~seq:0 ~addr:0x0 ~data:1 ~mask:0xFF);
  ignore (Sb.push sb ~seq:1 ~addr:0x8 ~data:2 ~mask:0xFF);
  check Alcotest.bool "full rejects" false
    (Sb.push sb ~seq:2 ~addr:0x10 ~data:3 ~mask:0xFF)

(* The store buffer as a list, with the definitions the array-backed
   [Sb] replaced kept verbatim: O(n) [length]/[has_fault], append with
   [@], and the O(n^2) WC drain selection. *)
module Sb_model = struct
  type entry = {
    seq : int;
    e_addr : int;
    mutable e_data : int;
    mutable e_mask : int;
    mutable status : Sb.status;
  }

  type t = {
    cap : int;
    mode : Ise_model.Axiom.model;
    mutable items : entry list;
    mutable n_inflight : int;
    mutable n_completed : int;
    mutable occ_watermark : int;
    mutable infl_watermark : int;
  }

  let create ~capacity ~mode =
    { cap = capacity; mode; items = []; n_inflight = 0; n_completed = 0;
      occ_watermark = 0; infl_watermark = 0 }

  let length t = List.length t.items
  let is_empty t = t.items = []
  let is_full t = length t >= t.cap

  let has_fault t =
    List.exists (fun e -> match e.status with Sb.Faulted _ -> true | _ -> false)
      t.items

  let word addr = addr lsr 3

  let merge_data old_data old_mask data mask =
    let d = ref old_data and m = old_mask lor mask in
    for byte = 0 to 7 do
      if mask land (1 lsl byte) <> 0 then begin
        let shift = byte * 8 in
        let keep = lnot (0xFF lsl shift) in
        d := (!d land keep) lor (data land (0xFF lsl shift))
      end
    done;
    (!d, m)

  let push t ~seq ~addr ~data ~mask =
    let coalesced =
      match t.mode with
      | Ise_model.Axiom.Wc -> (
        match
          List.find_opt
            (fun e -> word e.e_addr = word addr && e.status = Sb.Waiting)
            t.items
        with
        | Some e ->
          let d, m = merge_data e.e_data e.e_mask data mask in
          e.e_data <- d;
          e.e_mask <- m;
          true
        | None -> false)
      | Ise_model.Axiom.Sc | Ise_model.Axiom.Pc -> false
    in
    if coalesced then true
    else if is_full t then false
    else begin
      t.items <-
        t.items @ [ { seq; e_addr = addr; e_data = data; e_mask = mask;
                      status = Sb.Waiting } ];
      t.occ_watermark <- max t.occ_watermark (length t);
      true
    end

  let older_same_word_outstanding t entry =
    List.exists
      (fun e ->
        e.seq < entry.seq && word e.e_addr = word entry.e_addr
        && e.status <> Sb.Waiting)
      t.items

  let drainable t ~max_inflight =
    if t.n_inflight >= max_inflight then []
    else
      match t.mode with
      | Ise_model.Axiom.Pc | Ise_model.Axiom.Sc -> (
        match t.items with
        | e :: _ when e.status = Sb.Waiting && t.n_inflight = 0 -> [ e ]
        | _ -> [])
      | Ise_model.Axiom.Wc ->
        let budget = max_inflight - t.n_inflight in
        let rec pick acc n = function
          | [] -> List.rev acc
          | _ when n = 0 -> List.rev acc
          | e :: rest ->
            if e.status = Sb.Waiting && not (older_same_word_outstanding t e)
            then pick (e :: acc) (n - 1) rest
            else pick acc n rest
        in
        pick [] budget t.items

  let mark_inflight t e =
    e.status <- Sb.Inflight;
    t.n_inflight <- t.n_inflight + 1;
    t.infl_watermark <- max t.infl_watermark t.n_inflight

  let complete t e =
    if e.status = Sb.Inflight then t.n_inflight <- t.n_inflight - 1;
    t.n_completed <- t.n_completed + 1;
    t.items <- List.filter (fun x -> x.seq <> e.seq) t.items

  let mark_faulted t e code =
    if e.status = Sb.Inflight then t.n_inflight <- t.n_inflight - 1;
    e.status <- Sb.Faulted code

  let forward t ~addr =
    let w = word addr in
    let rec newest acc = function
      | [] -> acc
      | e :: rest ->
        if word e.e_addr = w then newest (Some e) rest else newest acc rest
    in
    match newest None t.items with Some e -> Some e.e_data | None -> None

  let take_all t =
    let all = t.items in
    t.items <- [];
    t.n_inflight <- 0;
    all
end

type sb_op =
  | Push of int * int  (* word, data *)
  | Drain of int  (* max_inflight *)
  | Complete of int  (* index into the entries ever drained *)
  | Fault of int
  | Forward of int  (* word *)
  | Take_all

let pp_sb_op = function
  | Push (w, d) -> Printf.sprintf "push w%d=%d" w d
  | Drain m -> Printf.sprintf "drain<=%d" m
  | Complete i -> Printf.sprintf "complete #%d" i
  | Fault i -> Printf.sprintf "fault #%d" i
  | Forward w -> Printf.sprintf "forward w%d" w
  | Take_all -> "take_all"

let gen_sb_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [ (6, map2 (fun w d -> Push (w, d)) (int_bound 5) (int_bound 1000));
           (4, map (fun m -> Drain m) (int_range 1 4));
           (3, map (fun i -> Complete i) (int_bound 15));
           (1, map (fun i -> Fault i) (int_bound 15));
           (2, map (fun w -> Forward w) (int_bound 5));
           (1, return Take_all) ]))

(* Runs [ops] on both buffers; the drained entries are addressed by
   the order they were first drained in, and a completion or fault may
   reach an entry [take_all] already removed (a terminated core's late
   drain response). *)
let sb_agrees mode ops =
  let sb = Sb.create ~capacity:4 ~mode in
  let md = Sb_model.create ~capacity:4 ~mode in
  let drained = ref [||] in
  let seq = ref 0 in
  let same what a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s differs after %s" what
        (String.concat "; " (List.map pp_sb_op ops))
  in
  let seqs_sb = List.map (fun (e : Sb.entry) -> e.Sb.seq)
  and seqs_md = List.map (fun (e : Sb_model.entry) -> e.Sb_model.seq) in
  List.iter
    (fun op ->
      (match op with
       | Push (w, d) ->
         let addr = (8 * w) + (d land 7) in
         same "push" (Sb.push sb ~seq:!seq ~addr ~data:d ~mask:0xF)
           (Sb_model.push md ~seq:!seq ~addr ~data:d ~mask:0xF);
         incr seq
       | Drain m ->
         let a = Sb.drainable sb ~max_inflight:m in
         let b = Sb_model.drainable md ~max_inflight:m in
         same "drain order" (seqs_sb a) (seqs_md b);
         List.iter2
           (fun x y ->
             Sb.mark_inflight sb x;
             Sb_model.mark_inflight md y)
           a b;
         drained := Array.append !drained (Array.of_list (List.combine a b))
       | Complete i when i < Array.length !drained ->
         let x, y = !drained.(i) in
         if x.Sb.status = Sb.Inflight then begin
           Sb.complete sb x;
           Sb_model.complete md y
         end
       | Fault i when i < Array.length !drained ->
         let x, y = !drained.(i) in
         if x.Sb.status = Sb.Inflight then begin
           Sb.mark_faulted sb x Ise_core.Fault.Bus_error;
           Sb_model.mark_faulted md y Ise_core.Fault.Bus_error
         end
       | Complete _ | Fault _ -> ()
       | Forward w ->
         same "forward" (Sb.forward sb ~addr:(8 * w))
           (Sb_model.forward md ~addr:(8 * w))
       | Take_all ->
         let a = Sb.take_all sb and b = Sb_model.take_all md in
         same "take_all" (seqs_sb a) (seqs_md b);
         same "take_all data"
           (List.map (fun (e : Sb.entry) -> e.Sb.e_data) a)
           (List.map (fun (e : Sb_model.entry) -> e.Sb_model.e_data) b));
      same "length" (Sb.length sb) (Sb_model.length md);
      same "is_empty" (Sb.is_empty sb) (Sb_model.is_empty md);
      same "is_full" (Sb.is_full sb) (Sb_model.is_full md);
      same "inflight" (Sb.inflight sb) md.Sb_model.n_inflight;
      same "has_fault" (Sb.has_fault sb) (Sb_model.has_fault md);
      same "completed" (Sb.completed sb) md.Sb_model.n_completed;
      same "occupancy watermark" (Sb.occupancy_watermark sb)
        md.Sb_model.occ_watermark;
      same "inflight watermark" (Sb.inflight_watermark sb)
        md.Sb_model.infl_watermark)
    ops;
  true

let prop_sb_model mode name =
  QCheck.Test.make ~name ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_sb_op ops))
       gen_sb_ops)
    (sb_agrees mode)

let sb_model_tests =
  List.map
    (fun (mode, name) -> qtest (prop_sb_model mode name))
    [ (Ise_model.Axiom.Pc, "sb agrees with the list model (PC)");
      (Ise_model.Axiom.Wc, "sb agrees with the list model (WC)") ]

(* ------------------------------------------------------------------ *)
(* Core + Machine                                                      *)

let st a v = Sim_instr.St { addr = Sim_instr.addr a; data = Sim_instr.Imm v }
let ld r a = Sim_instr.Ld { dst = r; addr = Sim_instr.addr a }

let test_machine_plain_run () =
  let m = run_program ~hooks:`Null [ st base 42; Sim_instr.Fence; ld 0 base ] in
  check Alcotest.int "value" 42 (Core.reg (Machine.core m 0) 0);
  check Alcotest.int "retired" 3 (Machine.total_retired m);
  check Alcotest.bool "contract trivially ok" true
    (Stdlib.Result.is_ok (Machine.check_contract m))

let test_machine_forwarding () =
  (* load after store to same address, no fence: must forward *)
  let m = run_program ~hooks:`Null [ st base 5; ld 0 base ] in
  check Alcotest.int "forwarded" 5 (Core.reg (Machine.core m 0) 0)

let test_machine_store_reg_data () =
  let m =
    run_program ~hooks:`Null
      [ st base 9; Sim_instr.Fence; ld 0 base;
        Sim_instr.St { addr = Sim_instr.addr (base + 64); data = Sim_instr.From_reg 0 } ]
  in
  check Alcotest.int "dependent store data" 9 (Machine.read_word m (base + 64))

let test_machine_amo () =
  let m =
    run_program ~hooks:`Null
      [ st base 10; Sim_instr.Fence;
        Sim_instr.Amo { dst = 0; addr = Sim_instr.addr base; op = Memsys.Add 7 } ]
  in
  check Alcotest.int "amo old" 10 (Core.reg (Machine.core m 0) 0);
  check Alcotest.int "amo result" 17 (Machine.read_word m base)

let test_machine_imprecise_flow () =
  let m =
    Machine.create ~programs:[| Sim_instr.of_list [ st base 99; ld 0 (base + 64) ] |] ()
  in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  let cs = Core.stats (Machine.core m 0) in
  check Alcotest.int "one imprecise exception" 1 cs.Core.imprecise_exceptions;
  check Alcotest.int "store applied by OS" 99 (Machine.read_word m base);
  check Alcotest.bool "handler ran" true (os.Ise_os.Handler.invocations >= 1);
  check Alcotest.bool "contract holds" true
    (Stdlib.Result.is_ok (Machine.check_contract m))

let test_machine_precise_load_flow () =
  let m = Machine.create ~programs:[| Sim_instr.of_list [ ld 0 base ] |] () in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "one precise fault" 1 os.Ise_os.Handler.precise_faults;
  check Alcotest.int "load retried, reads 0" 0 (Core.reg (Machine.core m 0) 0)

let test_machine_sc_store_precise () =
  let cfg = Config.with_consistency Ise_model.Axiom.Sc Config.default in
  let m = Machine.create ~cfg ~programs:[| Sim_instr.of_list [ st base 7 ] |] () in
  let os = Ise_os.Handler.install m in
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "precise, not imprecise" 1 os.Ise_os.Handler.precise_faults;
  check Alcotest.int "no imprecise" 0
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store completed" 7 (Machine.read_word m base)

let test_machine_replay_after_exception () =
  (* instructions after the faulting store must re-execute and produce
     correct results *)
  let m =
    Machine.create
      ~programs:
        [| Sim_instr.of_list
             [ st base 1; ld 0 (base + 4096); st (base + 8192) 3;
               ld 1 (base + 8192) ] |]
      ()
  in
  ignore (Ise_os.Handler.install m);
  Einject.set_faulting (Machine.einject m) base;
  Machine.run m;
  check Alcotest.int "first store" 1 (Machine.read_word m base);
  check Alcotest.int "later store" 3 (Machine.read_word m (base + 8192));
  check Alcotest.int "later load sees it" 3 (Core.reg (Machine.core m 0) 1)

let test_machine_terminate () =
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 1 ] |] () in
  Machine.set_hooks m null_hooks;
  Core.terminate (Machine.core m 0);
  check Alcotest.bool "terminated is done" true (Core.is_done (Machine.core m 0));
  check Alcotest.bool "flag" true (Core.is_terminated (Machine.core m 0))

let test_machine_multicore_communication () =
  let x = base and y = base + 4096 in
  let prog0 = [ st x 1; Sim_instr.Fence; st y 1 ] in
  (* delay the consumer long enough that the producer has drained;
     the fence keeps the loads from issuing past the delay *)
  let prog1 =
    [ Sim_instr.Nop 2000; Sim_instr.Fence; ld 0 y; Sim_instr.Fence; ld 1 x ]
  in
  let m =
    Machine.create
      ~programs:[| Sim_instr.of_list prog0; Sim_instr.of_list prog1 |] ()
  in
  Machine.set_hooks m null_hooks;
  Machine.run m;
  check Alcotest.int "y visible" 1 (Core.reg (Machine.core m 1) 0);
  check Alcotest.int "x visible" 1 (Core.reg (Machine.core m 1) 1)

(* Reference interpreter: single-core programs must end with the same
   memory as sequential execution, faults or not. *)
let reference_memory prog =
  let mem = Hashtbl.create 16 in
  let regs = Array.make 64 0 in
  let read a = try Hashtbl.find mem (a lsr 3) with Not_found -> 0 in
  List.iter
    (fun i ->
      match i with
      | Sim_instr.Ld { dst; addr } -> regs.(dst) <- read addr.Sim_instr.base
      | Sim_instr.St { addr; data } ->
        let v =
          match data with
          | Sim_instr.Imm v -> v
          | Sim_instr.From_reg r -> regs.(r)
        in
        Hashtbl.replace mem (addr.Sim_instr.base lsr 3) v
      | Sim_instr.Amo { dst; addr; op } ->
        let old = read addr.Sim_instr.base in
        regs.(dst) <- old;
        let v = match op with Memsys.Swap v -> v | Memsys.Add v -> old + v in
        Hashtbl.replace mem (addr.Sim_instr.base lsr 3) v
      | Sim_instr.Fence | Sim_instr.Ctrl _ | Sim_instr.Nop _ -> ())
    prog;
  mem

let random_program rng n =
  let open Ise_util in
  List.init n (fun _ ->
      let a = base + (8 * Rng.int rng 64) in
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 -> st a (1 + Rng.int rng 100)
      | 4 | 5 | 6 ->
        Sim_instr.Ld { dst = Rng.int rng 8; addr = Sim_instr.addr a }
      | 7 -> Sim_instr.Fence
      | 8 -> Sim_instr.Amo { dst = Rng.int rng 8; addr = Sim_instr.addr a;
                             op = Memsys.Add 1 }
      | _ -> Sim_instr.Nop (1 + Rng.int rng 3))

let prop_single_core_sequential_memory =
  QCheck.Test.make
    ~name:"single-core final memory equals sequential reference (no faults)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let prog = random_program rng 40 in
      let m = run_program ~hooks:`Null prog in
      let reference = reference_memory prog in
      Hashtbl.fold
        (fun w v ok -> ok && Machine.read_word m (w lsl 3) = v)
        reference true)

let prop_single_core_transparent_faults =
  QCheck.Test.make
    ~name:"fault injection is transparent to single-core results" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let prog = random_program rng 30 in
      let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
      ignore (Ise_os.Handler.install m);
      (* mark the whole working set faulting *)
      Einject.set_faulting (Machine.einject m) base;
      Machine.run m;
      let reference = reference_memory prog in
      Hashtbl.fold
        (fun w v ok -> ok && Machine.read_word m (w lsl 3) = v)
        reference true)

(* ------------------------------------------------------------------ *)
(* Midgard                                                             *)

let test_midgard_vma_membership () =
  let mg = Midgard.create () in
  Midgard.add_vma mg ~base:0x1000_0000 ~bytes:(64 * 4096);
  check Alcotest.bool "inside" true (Midgard.in_vma mg 0x1000_2000);
  check Alcotest.bool "outside" false (Midgard.in_vma mg 0x2000_0000)

let test_midgard_mapping () =
  let mg = Midgard.create () in
  Midgard.add_vma mg ~base:0x1000_0000 ~bytes:(4 * 4096);
  check Alcotest.bool "starts unmapped" false (Midgard.is_mapped mg 0x1000_0000);
  Midgard.map_page mg 0x1000_0123;
  check Alcotest.bool "mapped" true (Midgard.is_mapped mg 0x1000_0fff);
  Midgard.unmap_page mg 0x1000_0000;
  check Alcotest.bool "unmapped" false (Midgard.is_mapped mg 0x1000_0000);
  Midgard.map_all mg;
  check Alcotest.int "all pages" 4 (Midgard.pages_mapped mg)

let test_midgard_interceptor_denies () =
  let mg = Midgard.create () in
  let region = 0x1000_0000 in
  Midgard.add_vma mg ~base:region ~bytes:4096;
  let engine, _, ms = mk_memsys () in
  Memsys.add_interceptor ms (Midgard.interceptor mg);
  let result = ref None in
  Memsys.request ms ~core:0 ~addr:region (Memsys.Write { data = 1; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  (match !result with
   | Some (Memsys.Denied Ise_core.Fault.Page_fault) -> ()
   | _ -> Alcotest.fail "expected Midgard page fault");
  check Alcotest.int "fault recorded" 1 (Midgard.faults_taken mg);
  (* after the OS maps the page the access succeeds and pays the walk *)
  Midgard.map_page mg region;
  Memsys.request ms ~core:0 ~addr:region (Memsys.Write { data = 7; mask = 0xFF })
    (fun r -> result := Some r);
  drain engine;
  check Alcotest.bool "mapped access succeeds" true (!result = Some (Memsys.Value 0));
  check Alcotest.int "value written" 7 (Memsys.peek ms region);
  check Alcotest.bool "walks counted" true (Midgard.walks_performed mg >= 2)

let test_midgard_imprecise_store_flow () =
  (* the Example-2 scenario end to end: a store passes the front-end,
     retires, misses the LLC, and faults during the back-end
     translation; the OS maps the page and applies the store *)
  let mg = Midgard.create () in
  let region = base + 0x0800_0000 in
  (* outside the EInject marks *)
  Midgard.add_vma mg ~base:region ~bytes:(16 * 4096);
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st region 77 ] |] () in
  Memsys.add_interceptor (Machine.mem m) (Midgard.interceptor mg);
  let config =
    { Ise_os.Handler.costs = Ise_core.Batch.default_cost_model;
      policy = Ise_os.Handler.Midgard_paging { midgard = mg; major_pct = 0; io_latency = 0 } }
  in
  ignore (Ise_os.Handler.install ~config m);
  Machine.run m;
  check Alcotest.int "imprecise exception taken" 1
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store applied after mapping" 77 (Machine.read_word m region);
  check Alcotest.bool "page now mapped" true (Midgard.is_mapped mg region)

(* ------------------------------------------------------------------ *)
(* Interrupts                                                          *)

let test_interrupt_pauses_core () =
  let m =
    Machine.create
      ~programs:[| Sim_instr.of_list (List.init 50 (fun i -> st (base + 8 * i) i)) |]
      ()
  in
  ignore (Ise_os.Handler.install m);
  Machine.enable_timer_interrupts m ~period:200 ~handler_cycles:100;
  Machine.run m;
  check Alcotest.bool "interrupts fired" true (Machine.interrupts_taken m >= 1)

let test_interrupt_deferred_during_handler () =
  (* exceptions in flight mask the timer (IE bit) *)
  let prog = List.init 8 (fun i -> st (base + (i * 4096)) (i + 1)) in
  let m = Machine.create ~programs:[| Sim_instr.of_list prog |] () in
  ignore (Ise_os.Handler.install m);
  for i = 0 to 7 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.enable_timer_interrupts m ~period:150 ~handler_cycles:50;
  Machine.run m;
  check Alcotest.bool "some deliveries deferred by IE" true
    (Machine.interrupts_deferred m >= 1);
  (* correctness is unaffected *)
  for i = 0 to 7 do
    check Alcotest.int "store landed" (i + 1)
      (Machine.read_word m (base + (i * 4096)))
  done

let test_interrupt_defers_exception_episode () =
  (* a fault arriving while the interrupt handler runs must wait for
     the handler to return before the episode starts *)
  let m = Machine.create ~programs:[| Sim_instr.of_list [ st base 9 ] |] () in
  ignore (Ise_os.Handler.install m);
  Einject.set_faulting (Machine.einject m) base;
  (* interrupt immediately, long handler: the drain response (~100
     cycles) lands inside it *)
  Machine.enable_timer_interrupts m ~period:20 ~handler_cycles:400;
  Machine.run m;
  check Alcotest.int "exception still handled exactly once" 1
    (Core.stats (Machine.core m 0)).Core.imprecise_exceptions;
  check Alcotest.int "store applied" 9 (Machine.read_word m base)

let prop_multicore_disjoint_transparency =
  QCheck.Test.make
    ~name:"2-core disjoint-range programs: faults are transparent" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ise_util.Rng.create seed in
      let mk_prog offset n =
        List.init n (fun _ ->
            let a = base + offset + (8 * Ise_util.Rng.int rng 32) in
            if Ise_util.Rng.int rng 3 = 0 then
              Sim_instr.Ld { dst = Ise_util.Rng.int rng 8; addr = Sim_instr.addr a }
            else
              Sim_instr.St
                { addr = Sim_instr.addr a;
                  data = Sim_instr.Imm (1 + Ise_util.Rng.int rng 50) })
      in
      let p0 = mk_prog 0 20 and p1 = mk_prog 8192 20 in
      let run inject =
        let m =
          Machine.create
            ~programs:[| Sim_instr.of_list p0; Sim_instr.of_list p1 |] ()
        in
        ignore (Ise_os.Handler.install m);
        if inject then begin
          Einject.set_faulting (Machine.einject m) base;
          Einject.set_faulting (Machine.einject m) (base + 8192)
        end;
        Machine.run m;
        List.map (fun w -> Machine.read_word m w)
          (List.init 64 (fun i -> base + (8 * i))
           @ List.init 64 (fun i -> base + 8192 + (8 * i)))
      in
      run false = run true)

(* ------------------------------------------------------------------ *)
(* Golden counters                                                     *)

(* Exact simulated statistics of a few small runs, recorded before the
   issue scan and store buffer were made incremental.  Any change to
   these values is a timing-model change, not an optimisation: it must
   be deliberate and re-record them (and perfbench's reference rows). *)

let golden_counters m =
  let cores = Array.init (Machine.ncores m) (Machine.core m) in
  let sum f = Array.fold_left (fun acc c -> acc + f (Core.stats c)) 0 cores in
  let wm f = Array.fold_left (fun acc c -> max acc (f c)) 0 cores in
  let mem = Machine.mem m in
  Printf.sprintf
    "cycles=%d retired=%d rob_full=%d sb_full=%d sb_wm=%d inflight_wm=%d \
     l1=%d/%d l2=%d/%d inval=%d noc=%d"
    (Machine.cycles m) (Machine.total_retired m)
    (sum (fun s -> s.Core.rob_full_stalls))
    (sum (fun s -> s.Core.sb_full_stalls))
    (wm Core.sb_occupancy_watermark) (wm Core.sb_inflight_watermark)
    (Memsys.l1_hits mem) (Memsys.l1_misses mem) (Memsys.l2_hits mem)
    (Memsys.l2_misses mem) (Memsys.invalidations mem) (Memsys.noc_hop_cycles mem)

let golden_handler (h : Ise_os.Handler.stats) =
  Printf.sprintf "inv=%d stores=%d faulting=%d apply=%d other=%d precise=%d"
    h.Ise_os.Handler.invocations h.stores_handled h.faulting_handled
    h.apply_cycles h.other_cycles h.precise_faults

let golden_bc cfg =
  let programs =
    Ise_workload.Mix.multicore_streams ~seed:11 ~length_per_core:1000 ~cores:4
      (Ise_workload.Mix.find "BC")
  in
  let m = Machine.create ~cfg ~programs () in
  Machine.set_hooks m null_hooks;
  Machine.set_trace_enabled m false;
  Machine.run m;
  golden_counters m

let test_golden_bc_wc () =
  check Alcotest.string "BC 4x1000 WC"
    "cycles=1077 retired=4000 rob_full=1793 sb_full=21 sb_wm=32 \
     inflight_wm=32 l1=377/1547 l2=218/1329 inval=217 noc=14736"
    (golden_bc Config.default)

let test_golden_bc_sc () =
  let cfg =
    { (Config.with_consistency Ise_model.Axiom.Sc Config.default) with
      Config.sc_speculative_loads = true }
  in
  check Alcotest.string "BC 4x1000 SC speculative loads"
    "cycles=3272 retired=4000 rob_full=7280 sb_full=0 sb_wm=0 \
     inflight_wm=0 l1=1266/1631 l2=302/1329 inval=301 noc=16209"
    (golden_bc cfg)

let test_golden_bc_aso () =
  check Alcotest.string "BC 4x1000 ASO k=8"
    "cycles=2254 retired=4000 rob_full=2133 sb_full=1104 \
     sb_wm=128 inflight_wm=8 l1=346/1538 l2=209/1329 inval=209 \
     noc=14544"
    (golden_bc (Ise_aso.Aso_core.aso_config ~checkpoints:8 Config.default))

let test_golden_bfs_faults () =
  let g =
    Ise_workload.Graph.power_law (Ise_util.Rng.create 5) ~nodes:150
      ~avg_degree:6
  in
  let bfs = Ise_workload.Gap.bfs g ~base ~src:0 in
  let m = Machine.create ~programs:[| Ise_workload.Gap.stream_of bfs |] () in
  Machine.set_trace_enabled m false;
  let h = Ise_os.Handler.install m in
  Ise_workload.Gap.mark_faulting m bfs;
  Machine.run m;
  check Alcotest.bool "BFS verifies" true (Ise_workload.Gap.verify m bfs);
  check Alcotest.string "BFS all pages faulting"
    "cycles=11390 retired=5072 rob_full=1695 sb_full=1772 \
     sb_wm=32 inflight_wm=32 l1=3796/319 l2=0/319 inval=0 \
     noc=2478 inv=3 stores=55 faulting=55 apply=1526 other=1500 \
     precise=1"
    (golden_counters m ^ " " ^ golden_handler h)

(* AMOs (a younger load to the AMO's word takes the blocked-retry
   path), fences, branches, register-dependent stores, faulting stores
   and loads, and timer interrupts that pause the core and defer
   detections to the return. *)
let golden_mixed_program rng ~core =
  let region = base + (core * 0x8000) in
  let addr () =
    region + (4096 * Ise_util.Rng.int rng 6) + (8 * Ise_util.Rng.int rng 12)
  in
  (* page 6 is only ever loaded from *)
  let load_addr () = region + (4096 * 6) + (8 * Ise_util.Rng.int rng 12) in
  List.init 400 (fun _ ->
      match Ise_util.Rng.int rng 12 with
      | 0 ->
        Sim_instr.Amo
          { dst = Ise_util.Rng.int rng 8; addr = Sim_instr.addr (addr ());
            op = Memsys.Add 1 }
      | 1 -> Sim_instr.Fence
      | 2 -> Sim_instr.Ctrl (Ise_util.Rng.int rng 8)
      | 3 -> Sim_instr.Nop (1 + Ise_util.Rng.int rng 6)
      | 4 | 5 -> ld (Ise_util.Rng.int rng 8) (addr ())
      | 6 -> ld (Ise_util.Rng.int rng 8) (load_addr ())
      | 7 ->
        Sim_instr.St
          { addr = Sim_instr.addr (addr ());
            data = Sim_instr.From_reg (Ise_util.Rng.int rng 8) }
      | 8 ->
        Sim_instr.Ld
          { dst = Ise_util.Rng.int rng 8;
            addr = Sim_instr.addr ~dep:(Ise_util.Rng.int rng 8) (addr ()) }
      | _ -> st (addr ()) (1 + Ise_util.Rng.int rng 1000))

let golden_mixed model =
  let rng = Ise_util.Rng.create 23 in
  let programs =
    Array.init 2 (fun core -> Sim_instr.of_list (golden_mixed_program rng ~core))
  in
  let cfg = Config.with_consistency model Config.default in
  let m = Machine.create ~cfg ~programs () in
  Machine.set_trace_enabled m false;
  let h = Ise_os.Handler.install m in
  (* pages 0-2 and the load-only page 6 of each core fault once: a
     store reaching one first faults imprecisely (WC/PC), a load or AMO
     precisely *)
  for core = 0 to 1 do
    List.iter
      (fun page ->
        Einject.set_faulting (Machine.einject m)
          (base + (core * 0x8000) + (page * 4096)))
      [ 0; 1; 2; 6 ]
  done;
  Machine.enable_timer_interrupts m ~period:97 ~handler_cycles:40;
  Machine.run m;
  Printf.sprintf "%s %s irq=%d/%d" (golden_counters m) (golden_handler h)
    (Machine.interrupts_taken m) (Machine.interrupts_deferred m)

let test_golden_mixed_wc () =
  check Alcotest.string "AMO/fence/interrupt program WC"
    "cycles=3103 retired=800 rob_full=769 sb_full=0 sb_wm=6 \
     inflight_wm=6 l1=576/39 l2=0/39 inval=0 noc=60 inv=3 \
     stores=6 faulting=6 apply=414 other=1500 precise=5 \
     irq=23/37"
    (golden_mixed Ise_model.Axiom.Wc)

let test_golden_mixed_pc () =
  check Alcotest.string "AMO/fence/interrupt program PC"
    "cycles=3641 retired=800 rob_full=797 sb_full=0 sb_wm=7 \
     inflight_wm=1 l1=569/38 l2=0/38 inval=0 noc=60 inv=3 \
     stores=9 faulting=3 apply=828 other=1500 precise=5 \
     irq=31/40"
    (golden_mixed Ise_model.Axiom.Pc)

let suite =
  [
    ("engine event order", `Quick, test_engine_order);
    ("engine skip to next", `Quick, test_engine_skip);
    ("engine rejects the past", `Quick, test_engine_past_raises);
    ("config latency variants", `Quick, test_config_variants);
    ("config PC inflight", `Quick, test_config_pc_inflight);
    ("config mesh distance", `Quick, test_config_mesh);
    ("einject mark/clear", `Quick, test_einject_basic);
    ("einject ignores outside", `Quick, test_einject_outside_ignored);
    ("einject set/clr idempotent", `Quick, test_einject_idempotent);
    ("einject page boundaries", `Quick, test_einject_page_boundary);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache state transitions", `Quick, test_cache_state_transitions);
    ("memsys write/read", `Quick, test_memsys_write_read);
    ("memsys hit faster than miss", `Quick, test_memsys_hit_faster_than_miss);
    ("memsys EInject denial", `Quick, test_memsys_denial);
    ("memsys atomic", `Quick, test_memsys_amo);
    ("memsys byte mask", `Quick, test_memsys_byte_mask);
    ("memsys invalidations", `Quick, test_memsys_invalidation_counted);
    ("memsys per-block serialisation", `Quick, test_memsys_same_block_serialises);
    ("sb PC fifo", `Quick, test_sb_pc_fifo);
    ("sb WC concurrency", `Quick, test_sb_wc_concurrent);
    ("sb WC coalescing", `Quick, test_sb_wc_coalesce);
    ("sb same-word order", `Quick, test_sb_same_word_order);
    ("sb fault keeps entry", `Quick, test_sb_fault_keeps_entry);
    ("sb capacity", `Quick, test_sb_capacity);
  ]
  @ sb_model_tests
  @ [
    ("machine plain run", `Quick, test_machine_plain_run);
    ("machine store forwarding", `Quick, test_machine_forwarding);
    ("machine dependent store data", `Quick, test_machine_store_reg_data);
    ("machine amo", `Quick, test_machine_amo);
    ("machine imprecise flow", `Quick, test_machine_imprecise_flow);
    ("machine precise load flow", `Quick, test_machine_precise_load_flow);
    ("machine SC store is precise", `Quick, test_machine_sc_store_precise);
    ("machine replay after exception", `Quick, test_machine_replay_after_exception);
    ("machine terminate", `Quick, test_machine_terminate);
    ("machine multicore communication", `Quick, test_machine_multicore_communication);
    qtest prop_single_core_sequential_memory;
    qtest prop_single_core_transparent_faults;
    ("midgard vma membership", `Quick, test_midgard_vma_membership);
    ("midgard mapping", `Quick, test_midgard_mapping);
    ("midgard interceptor denies", `Quick, test_midgard_interceptor_denies);
    ("midgard imprecise store flow", `Quick, test_midgard_imprecise_store_flow);
    ("interrupt pauses core", `Quick, test_interrupt_pauses_core);
    ("interrupt deferred during handler", `Quick, test_interrupt_deferred_during_handler);
    ("interrupt defers exception episode", `Quick, test_interrupt_defers_exception_episode);
    qtest prop_multicore_disjoint_transparency;
    ("golden counters BC WC", `Quick, test_golden_bc_wc);
    ("golden counters BC SC", `Quick, test_golden_bc_sc);
    ("golden counters BC ASO", `Quick, test_golden_bc_aso);
    ("golden counters BFS faulting", `Quick, test_golden_bfs_faults);
    ("golden counters AMO/fence/irq WC", `Quick, test_golden_mixed_wc);
    ("golden counters AMO/fence/irq PC", `Quick, test_golden_mixed_pc);
  ]
