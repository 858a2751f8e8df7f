type env = {
  trace : Ise_core.Contract.event -> unit;
  on_imprecise : int -> unit;
  on_precise :
    core:int -> addr:int -> code:Ise_core.Fault.code -> retry:(unit -> unit)
    -> unit;
}

type stats = {
  mutable retired : int;
  mutable loads : int;
  mutable stores : int;
  mutable fences : int;
  mutable imprecise_exceptions : int;
  mutable faulting_stores : int;
  mutable precise_exceptions : int;
  mutable drain_uarch_cycles : int;
  mutable sb_full_stalls : int;
  mutable rob_full_stalls : int;
  mutable fsb_overflow_stalls : int;
  mutable fsb_overflow_drops : int;
}

let fresh_stats () =
  { retired = 0; loads = 0; stores = 0; fences = 0; imprecise_exceptions = 0;
    faulting_stores = 0; precise_exceptions = 0; drain_uarch_cycles = 0;
    sb_full_stalls = 0; rob_full_stalls = 0; fsb_overflow_stalls = 0;
    fsb_overflow_drops = 0 }

(* Chaos plane hooks (see {!Ise_chaos}): consulted by the FSBC on each
   append.  [None] — the default — costs one option match. *)
type chaos_hooks = {
  ch_put_delay : unit -> int;
  ch_backpressure : unit -> bool;
}

type rstatus = Waiting | Executing | Done

type rob_entry = {
  r_seq : int;  (* == ROB position, monotonic *)
  instr : Sim_instr.t;
  mutable r_status : rstatus;
  mutable r_value : int;
  mutable r_addr : int;  (* resolved effective address; -1 unknown *)
  mutable r_data : int;
  mutable ready_at : int;  (* Nop completion cycle *)
  mutable prefetched : bool;  (* SC: exclusive prefetch sent *)
  (* renamed source operands: producer ROB seq, or -1 = committed
     register file.  Captured at dispatch so dependencies always point
     backwards even when architectural registers are reused. *)
  a_dep : int;  (* address dependency *)
  d_dep : int;  (* data dependency *)
  c_dep : int;  (* control (branch) dependency *)
}

type phase =
  | Running
  | Paused  (* an interrupt handler is executing (IE set) *)
  | Waiting_drains
  | Draining_fsb
  | In_handler
  | Terminated

(* Telemetry handles, resolved once at attach time so hot paths touch
   plain mutable cells instead of the registry's hash table.  [None]
   (the default) costs one option match per site and no allocation. *)
type tel = {
  t_sink : Ise_telemetry.Sink.t;
  t_drained : Ise_telemetry.Registry.counter;
  t_drain_faults : Ise_telemetry.Registry.counter;
  t_episodes : Ise_telemetry.Registry.counter;
  t_flushes : Ise_telemetry.Registry.counter;
}

let nregs = 64

type t = {
  cfg : Config.t;
  engine : Engine.t;
  mem : Memsys.t;
  env : env;
  core_id : int;
  stream : Sim_instr.stream;
  mutable stream_done : bool;
  mutable replay : Sim_instr.t list;
  regs : int array;
  producers : int array;
  rob : rob_entry option array;  (* ring indexed by [seq land rob_mask] *)
  rob_mask : int;
  mutable rob_head : int;
  mutable rob_tail : int;
  st_seqs : int array;
      (* ring ([rob_mask]) of the seqs of the St and Amo entries in the
         ROB, oldest at [st_head]: what store-to-load forwarding walks *)
  mutable st_head : int;
  mutable st_tail : int;
  pending : int array;
      (* seqs of the ROB entries not known to be [Done], in program
         order: appended at dispatch, compacted by the issue scan *)
  mutable n_pending : int;
  incomplete_words : Ise_util.Wordset.t;  (* scratch for the issue scan *)
  mutable version : int;
      (* bumped by every change to what the issue scan reads: see
         [touch] and the invariant in core.mli *)
  mutable scanned : int;  (* [version] the last issue scan started at *)
  mutable scan_progress : bool;  (* the last issue scan set [progress] *)
  mutable nop_wake : int;
      (* earliest [ready_at] of a waiting Nop the last scan visited *)
  sb : Sb.t;
  fsb_ : Ise_core.Fsb.t;
  mutable phase : phase;
  stats : stats;
  mutable progress : bool;
  mutable tel : tel option;
  mutable chaos : chaos_hooks option;
  mutable handler_invoked : bool;
      (* the OS hook has been called for the current episode (possibly
         early, under FSB-overflow stall backpressure) *)
  mutable overflow_replay : Ise_core.Fault.record list;
      (* records withheld from a full FSB under [Fsb_degrade]; they
         re-execute as ordinary stores after the handler resumes *)
  degraded_words : (int, unit) Hashtbl.t;
      (* word addresses with a withheld record this episode: later
         same-word records must degrade too, else the handler's S_OS
         apply of a newer write would be overwritten by the replayed
         older one (per-location order) *)
}

let create cfg engine mem env ~id ~program =
  let rob_size = ref 1 in
  while !rob_size < cfg.Config.rob_entries do rob_size := 2 * !rob_size done;
  {
    cfg;
    engine;
    mem;
    env;
    core_id = id;
    stream = program;
    stream_done = false;
    replay = [];
    regs = Array.make nregs 0;
    producers = Array.make nregs (-1);
    rob = Array.make !rob_size None;
    rob_mask = !rob_size - 1;
    rob_head = 0;
    rob_tail = 0;
    st_seqs = Array.make !rob_size 0;
    st_head = 0;
    st_tail = 0;
    pending = Array.make cfg.Config.rob_entries 0;
    n_pending = 0;
    incomplete_words = Ise_util.Wordset.create ~capacity:cfg.Config.rob_entries;
    version = 0;
    scanned = -1;
    scan_progress = false;
    nop_wake = max_int;
    sb = Sb.create ~capacity:cfg.Config.sb_entries ~mode:cfg.Config.consistency;
    fsb_ =
      Ise_core.Fsb.create ~entries:cfg.Config.fsb_entries
        ~base:(0x7000_0000 + (id * 4096)) ();
    phase = Running;
    stats = fresh_stats ();
    progress = false;
    tel = None;
    chaos = None;
    handler_invoked = false;
    overflow_replay = [];
    degraded_words = Hashtbl.create 8;
  }

let id t = t.core_id
let fsb t = t.fsb_
let stats t = t.stats
let set_chaos t c = t.chaos <- c

let in_exception_drain t =
  match t.phase with
  | Waiting_drains | Draining_fsb -> true
  | Running | Paused | In_handler | Terminated -> false

let phase_name t =
  match t.phase with
  | Running -> "running"
  | Paused -> "paused"
  | Waiting_drains -> "waiting-drains"
  | Draining_fsb -> "draining-fsb"
  | In_handler -> "in-handler"
  | Terminated -> "terminated"
let reg t r = t.regs.(r)
let sb_occupancy t = Sb.length t.sb
let sb_occupancy_watermark t = Sb.occupancy_watermark t.sb
let sb_inflight_watermark t = Sb.inflight_watermark t.sb

let set_telemetry t sink =
  let registry = Ise_telemetry.Sink.registry sink in
  let name s = Printf.sprintf "core%d/%s" t.core_id s in
  t.tel <-
    Some
      { t_sink = sink;
        t_drained = Ise_telemetry.Registry.counter registry (name "sb/drained");
        t_drain_faults =
          Ise_telemetry.Registry.counter registry (name "sb/drain_faults");
        t_episodes =
          Ise_telemetry.Registry.counter registry (name "ise/episodes");
        t_flushes =
          Ise_telemetry.Registry.counter registry (name "rob/flushes") }

let rob_count t = t.rob_tail - t.rob_head
let rob_occupancy = rob_count

let slot t seq = seq land t.rob_mask

(* Something the issue scan reads has changed: the next [issue] must
   scan again. *)
let touch t = t.version <- t.version + 1

let get_entry t seq =
  if seq < t.rob_head || seq >= t.rob_tail then None
  else t.rob.(slot t seq)

let entry_live t (e : rob_entry) =
  match get_entry t e.r_seq with Some e' -> e' == e | None -> false

(* ------------------------------------------------------------------ *)
(* Register dataflow (renamed at dispatch)                             *)

(* A producer seq is ready when it has completed or already retired
   (its value is then in the committed register file). *)
let dep_ready t seq =
  seq < 0
  ||
  match get_entry t seq with
  | Some e -> e.r_status = Done
  | None -> true

let dep_value t seq ~reg_fallback =
  if seq < 0 then t.regs.(reg_fallback)
  else
    match get_entry t seq with
    | Some e -> e.r_value
    | None -> t.regs.(reg_fallback)

let data_ready t (e : rob_entry) = function
  | Sim_instr.Imm _ -> true
  | Sim_instr.From_reg _ -> dep_ready t e.d_dep

let data_value t (e : rob_entry) = function
  | Sim_instr.Imm v -> v
  | Sim_instr.From_reg r -> dep_value t e.d_dep ~reg_fallback:r

(* ------------------------------------------------------------------ *)
(* Retirement                                                          *)

let word addr = addr lsr 3

let commit t e =
  (match e.instr with
   | Sim_instr.Ld { dst; _ } | Sim_instr.Amo { dst; _ } ->
     t.regs.(dst) <- e.r_value;
     if t.producers.(dst) = e.r_seq then t.producers.(dst) <- -1
   | _ -> ());
  (match e.instr with
   | Sim_instr.Ld _ -> t.stats.loads <- t.stats.loads + 1
   | Sim_instr.St _ ->
     t.stats.stores <- t.stats.stores + 1;
     t.st_head <- t.st_head + 1
   | Sim_instr.Amo _ -> t.st_head <- t.st_head + 1
   | Sim_instr.Fence -> t.stats.fences <- t.stats.fences + 1
   | Sim_instr.Ctrl _ | Sim_instr.Nop _ -> ());
  t.rob.(slot t e.r_seq) <- None;
  t.rob_head <- t.rob_head + 1;
  t.stats.retired <- t.stats.retired + 1;
  t.progress <- true;
  touch t

let retire t =
  let sc = t.cfg.Config.consistency = Ise_model.Axiom.Sc in
  let n = ref 0 and stop = ref false in
  while (not !stop) && !n < t.cfg.Config.retire_width do
    match get_entry t t.rob_head with
    | None -> stop := true
    | Some e -> (
      match e.instr with
      | Sim_instr.Fence ->
        if Sb.is_empty t.sb && Sb.inflight t.sb = 0 then begin
          e.r_status <- Done;
          commit t e;
          incr n
        end
        else stop := true
      | Sim_instr.St _ when not sc ->
        if e.r_status <> Done then stop := true
        else if
          Sb.push t.sb ~seq:e.r_seq ~addr:e.r_addr ~data:e.r_data ~mask:0xFF
        then begin
          commit t e;
          incr n
        end
        else begin
          t.stats.sb_full_stalls <- t.stats.sb_full_stalls + 1;
          stop := true
        end
      | _ ->
        if e.r_status = Done then begin
          commit t e;
          incr n
        end
        else stop := true)
  done

(* ------------------------------------------------------------------ *)
(* Imprecise exception flow (§5.3)                                     *)

let record_of_sb_entry t (e : Sb.entry) =
  let code =
    match e.Sb.status with Sb.Faulted c -> c | _ -> Ise_core.Fault.No_exception
  in
  { Ise_core.Fault.core = t.core_id; seq = e.Sb.seq; addr = e.Sb.e_addr;
    data = e.Sb.e_data; byte_mask = e.Sb.e_mask; code }

(* Flush the pipeline: unretired instructions go back to the replay
   queue (they re-execute after the handler), renames are reset. *)
let flush_pipeline t =
  (match t.tel with
   | None -> ()
   | Some tel -> Ise_telemetry.Registry.incr tel.t_flushes);
  let replayed = ref [] in
  for seq = t.rob_tail - 1 downto t.rob_head do
    match t.rob.(slot t seq) with
    | Some e ->
      replayed := e.instr :: !replayed;
      t.rob.(slot t seq) <- None
    | None -> ()
  done;
  t.replay <- !replayed @ t.replay;
  t.rob_head <- t.rob_tail;
  t.st_head <- t.st_tail;
  t.n_pending <- 0;
  touch t;
  Array.fill t.producers 0 nregs (-1)

let flush_and_invoke_handler t ~drain_cycles =
  (match t.tel with
   | None -> ()
   | Some tel ->
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"fsb_drain"
       ~tid:t.core_id now;
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"pipeline_flush"
       ~tid:t.core_id now);
  flush_pipeline t;
  t.stats.drain_uarch_cycles <-
    t.stats.drain_uarch_cycles + drain_cycles + t.cfg.Config.pipeline_flush_cost;
  t.phase <- In_handler;
  if not t.handler_invoked then begin
    t.handler_invoked <- true;
    Engine.schedule_in t.engine t.cfg.Config.pipeline_flush_cost (fun () ->
        if t.phase <> Terminated then t.env.on_imprecise t.core_id)
  end

(* Under [Fsb_stall] a full FSB invokes the handler before the drain
   completes: its GETs free ring entries so the stalled FSBC can make
   progress.  The handler polls until the drain finishes. *)
let invoke_handler_early t =
  if not t.handler_invoked then begin
    t.handler_invoked <- true;
    Engine.schedule_in t.engine 1 (fun () ->
        if t.phase <> Terminated then t.env.on_imprecise t.core_id)
  end

(* A store dropped-to-precise re-executes after resume as an ordinary
   store with the record's payload. *)
let sim_instr_of_record (r : Ise_core.Fault.record) =
  Sim_instr.St
    { addr = Sim_instr.addr r.Ise_core.Fault.addr;
      data = Sim_instr.Imm r.Ise_core.Fault.data }

let start_fsb_drain t =
  t.phase <- Draining_fsb;
  (match t.tel with
   | None -> ()
   | Some tel ->
     Ise_telemetry.Trace.span_begin
       (Ise_telemetry.Sink.trace tel.t_sink)
       ~cat:"ise" ~name:"fsb_drain" ~tid:t.core_id (Engine.now t.engine));
  let entries = Sb.take_all t.sb in
  touch t;
  let tagged =
    List.map
      (fun (e : Sb.entry) ->
        let faulting =
          match e.Sb.status with Sb.Faulted _ -> true | _ -> false
        in
        { Ise_core.Protocol.payload = e; faulting })
      entries
  in
  let routing = Ise_core.Protocol.route t.cfg.Config.protocol_mode tagged in
  let drain_cost = t.cfg.Config.fsbc_drain_cost in
  let remaining =
    ref
      (List.length routing.Ise_core.Protocol.to_fsb
       + List.length routing.Ise_core.Protocol.to_memory)
  in
  let drain_cycles = ref 0 in
  let finish_if_ready () =
    if !remaining = 0 && t.phase = Draining_fsb then
      flush_and_invoke_handler t ~drain_cycles:!drain_cycles
  in
  let trace_put record =
    t.env.trace
      (Ise_core.Contract.Put
         { core = t.core_id; cycle = Engine.now t.engine; record });
    match t.tel with
    | None -> ()
    | Some tel ->
      Ise_telemetry.Trace.instant
        (Ise_telemetry.Sink.trace tel.t_sink)
        ~cat:"ise" ~name:"PUT" ~tid:t.core_id
        ~args:
          [ ("seq", Ise_telemetry.Json.Int record.Ise_core.Fault.seq);
            ("addr", Ise_telemetry.Json.Int record.Ise_core.Fault.addr) ]
        (Engine.now t.engine)
  in
  (* Append one record, honouring chaos backpressure and the configured
     overflow policy; [k] continues once the record is disposed of
     (appended, or withheld under [Fsb_degrade]). *)
  let put_record record k =
    let degrade () =
      t.stats.fsb_overflow_drops <- t.stats.fsb_overflow_drops + 1;
      Hashtbl.replace t.degraded_words (record.Ise_core.Fault.addr lsr 3) ();
      t.overflow_replay <- t.overflow_replay @ [ record ];
      remaining := !remaining - 1;
      finish_if_ready ();
      k ()
    in
    let rec attempt () =
      if t.phase = Terminated then ()
      else if
        Hashtbl.length t.degraded_words > 0
        && Hashtbl.mem t.degraded_words (record.Ise_core.Fault.addr lsr 3)
      then degrade ()
      else
        let forced =
          match t.chaos with Some c -> c.ch_backpressure () | None -> false
        in
        if (not forced) && Ise_core.Fsb.fsbc_append t.fsb_ record then begin
          trace_put record;
          drain_cycles := !drain_cycles + drain_cost;
          remaining := !remaining - 1;
          finish_if_ready ();
          k ()
        end
        else if forced then begin
          (* transient FSBC-port backpressure: the plane bounds it, so
             plain retry converges without anything being freed *)
          t.stats.fsb_overflow_stalls <- t.stats.fsb_overflow_stalls + 1;
          retry ()
        end
        else begin
          match t.cfg.Config.fsb_overflow with
          | Config.Fsb_fatal ->
            failwith "FSB overflow: sized below the store buffer"
          | Config.Fsb_stall ->
            (* genuine overflow: stall this append and invoke the
               handler early — its GETs free ring entries mid-drain *)
            t.stats.fsb_overflow_stalls <- t.stats.fsb_overflow_stalls + 1;
            invoke_handler_early t;
            retry ()
          | Config.Fsb_degrade -> degrade ()
        end
    and retry () =
      let backoff = max 1 (drain_cost * 4) in
      drain_cycles := !drain_cycles + backoff;
      Engine.schedule_in t.engine backoff attempt
    in
    attempt ()
  in
  let chaos_put_delay () =
    match t.chaos with Some c -> c.ch_put_delay () | None -> 0
  in
  (* The FSBC writes the routed entries to the FSB as a sequential
     chain, one per drain slot: each append starts only when its
     predecessor has been disposed of, so per-record chaos delays and
     overflow stalls cannot reorder the PUT stream (interface rule 1) *)
  let rec append_chain = function
    | [] -> ()
    | (e : Sb.entry) :: rest ->
      Engine.schedule_in t.engine (drain_cost + chaos_put_delay ()) (fun () ->
          if t.phase <> Terminated then
            put_record (record_of_sb_entry t e) (fun () -> append_chain rest))
  in
  append_chain routing.Ise_core.Protocol.to_fsb;
  (* Split stream: clean stores drain directly to memory, in FIFO
     order; any of them may fault in turn and joins the FSB late —
     the ordering hazard of §4.5. *)
  let rec drain_to_memory = function
    | [] -> ()
    | (e : Sb.entry) :: rest ->
      Memsys.request t.mem ~core:t.core_id ~addr:e.Sb.e_addr
        (Memsys.Write { data = e.Sb.e_data; mask = e.Sb.e_mask })
        (fun result ->
          if t.phase = Terminated then ()
          else
            match result with
            | Memsys.Value _ ->
              remaining := !remaining - 1;
              finish_if_ready ();
              drain_to_memory rest
            | Memsys.Denied code ->
              t.stats.faulting_stores <- t.stats.faulting_stores + 1;
              let record =
                { (record_of_sb_entry t e) with Ise_core.Fault.code }
              in
              put_record record (fun () -> drain_to_memory rest))
  in
  if !remaining = 0 then
    Engine.schedule_in t.engine 1 (fun () -> finish_if_ready ())
  else drain_to_memory routing.Ise_core.Protocol.to_memory

let begin_exception_episode t =
  t.phase <- Waiting_drains;
  t.stats.imprecise_exceptions <- t.stats.imprecise_exceptions + 1;
  (match t.tel with
   | None -> ()
   | Some tel ->
     Ise_telemetry.Registry.incr tel.t_episodes;
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"DETECT" ~tid:t.core_id
       now;
     Ise_telemetry.Trace.span_begin tr ~cat:"ise" ~name:"episode"
       ~tid:t.core_id now);
  t.env.trace
    (Ise_core.Contract.Detect { core = t.core_id; cycle = Engine.now t.engine })

(* Leaving a paused state (interrupt handler return, precise-fault
   retry): an imprecise exception detected meanwhile starts now. *)
let unpause t =
  if t.phase = Paused then
    if Sb.has_fault t.sb then begin_exception_episode t
    else begin
      t.phase <- Running;
      touch t
    end

let on_drain_response t (entry : Sb.entry) result =
  match result with
  | Memsys.Value _ ->
    (match t.tel with
     | None -> ()
     | Some tel ->
       Ise_telemetry.Registry.incr tel.t_drained;
       Ise_telemetry.Trace.instant
         (Ise_telemetry.Sink.trace tel.t_sink)
         ~cat:"sb" ~name:"store_drain" ~tid:t.core_id
         ~args:[ ("addr", Ise_telemetry.Json.Int entry.Sb.e_addr) ]
         (Engine.now t.engine));
    Sb.complete t.sb entry;
    touch t
  | Memsys.Denied code ->
    (match t.tel with
     | None -> ()
     | Some tel ->
       Ise_telemetry.Registry.incr tel.t_drain_faults;
       Ise_telemetry.Trace.instant
         (Ise_telemetry.Sink.trace tel.t_sink)
         ~cat:"sb" ~name:"store_fault" ~tid:t.core_id
         ~args:[ ("addr", Ise_telemetry.Json.Int entry.Sb.e_addr) ]
         (Engine.now t.engine));
    Sb.mark_faulted t.sb entry code;
    touch t;
    t.stats.faulting_stores <- t.stats.faulting_stores + 1;
    (* while an interrupt handler executes (IE set), the detection is
       deferred: the episode starts when the handler returns (§5.3) *)
    if t.phase = Running then begin_exception_episode t

let drain_sb t =
  let picks = Sb.drainable t.sb ~max_inflight:t.cfg.Config.sb_max_inflight in
  List.iter
    (fun (entry : Sb.entry) ->
      Sb.mark_inflight t.sb entry;
      touch t;
      t.progress <- true;
      Memsys.request t.mem ~core:t.core_id ~addr:entry.Sb.e_addr
        (Memsys.Write { data = entry.Sb.e_data; mask = entry.Sb.e_mask })
        (fun result -> on_drain_response t entry result))
    picks

(* ------------------------------------------------------------------ *)
(* Issue                                                               *)

(* A precise exception flushes the pipeline (the faulting instruction
   and everything younger re-execute from the replay queue) and stalls
   the core for the handler's duration.  If an imprecise store
   exception was detected meanwhile, it takes priority at unpause
   (§5.3). *)
let take_precise_fault t ~addr ~code =
  t.stats.precise_exceptions <- t.stats.precise_exceptions + 1;
  flush_pipeline t;
  if t.phase = Running then t.phase <- Paused;
  t.env.on_precise ~core:t.core_id ~addr ~code ~retry:(fun () -> unpause t)

(* Nearest older store to the same word: forward if resolved; block if
   unresolved (conservative memory disambiguation) or behind an
   incomplete AMO.  Only St and Amo entries can decide, so the walk
   covers [st_seqs], from the youngest entry older than the load. *)
let forward_from_rob t (load : rob_entry) =
  let lo = ref t.st_head and hi = ref t.st_tail in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.st_seqs.(slot t mid) < load.r_seq then lo := mid + 1 else hi := mid
  done;
  let result = ref `Miss in
  let p = ref (!lo - 1) in
  while !p >= t.st_head do
    (match t.rob.(slot t t.st_seqs.(slot t !p)) with
     | Some ({ instr = Sim_instr.St _; _ } as e) ->
       if e.r_addr < 0 then result := `Block
       else if word e.r_addr = word load.r_addr then
         (* resolved same-word store: forward its data whether or not
            the write has reached memory yet *)
         result := `Forward e.r_data
     | Some ({ instr = Sim_instr.Amo _; _ } as e) ->
       (* a completed AMO's write is already in memory *)
       if e.r_status <> Done then result := `Block
     | Some _ | None -> ());
    if !result == `Miss then decr p else p := t.st_head - 1
  done;
  !result

(* A completion callback: the entry's result is in. *)
let complete_entry t (e : rob_entry) v =
  e.r_value <- v;
  e.r_status <- Done;
  touch t

let issue_load t (e : rob_entry) =
  e.r_status <- Executing;
  t.progress <- true;
  match forward_from_rob t e with
  | `Forward v ->
    touch t;
    Engine.schedule_in t.engine t.cfg.Config.l1_latency (fun () ->
        if entry_live t e then complete_entry t e v)
  | `Block ->
    (* retry next cycle; nothing changed, so a skipped scan repeats
       this [progress] (see [issue]) *)
    e.r_status <- Waiting
  | `Miss -> (
    touch t;
    match Sb.forward t.sb ~addr:e.r_addr with
    | Some v ->
      Engine.schedule_in t.engine t.cfg.Config.l1_latency (fun () ->
          if entry_live t e then complete_entry t e v)
    | None ->
      Memsys.request t.mem ~core:t.core_id ~addr:e.r_addr Memsys.Read
        (fun result ->
          if entry_live t e then
            match result with
            | Memsys.Value v -> complete_entry t e v
            | Memsys.Denied code -> take_precise_fault t ~addr:e.r_addr ~code))

let issue_amo t (e : rob_entry) op =
  e.r_status <- Executing;
  t.progress <- true;
  touch t;
  Memsys.request t.mem ~core:t.core_id ~addr:e.r_addr (Memsys.Atomic op)
    (fun result ->
      if entry_live t e then
        match result with
        | Memsys.Value old -> complete_entry t e old
        | Memsys.Denied code -> take_precise_fault t ~addr:e.r_addr ~code)

let issue_sc_store t (e : rob_entry) =
  e.r_status <- Executing;
  t.progress <- true;
  touch t;
  Memsys.request t.mem ~core:t.core_id ~addr:e.r_addr
    (Memsys.Write { data = e.r_data; mask = 0xFF })
    (fun result ->
      if entry_live t e then
        match result with
        | Memsys.Value _ ->
          e.r_status <- Done;
          touch t
        | Memsys.Denied code ->
          (* without a store buffer the fault is precise (§2.3) *)
          take_precise_fault t ~addr:e.r_addr ~code)

(* Resolves a memory operation's address; a change is a mutation. *)
let resolve_addr t (e : rob_entry) a =
  if e.r_addr <> a then begin
    e.r_addr <- a;
    touch t
  end

(* One pass over the pending entries, oldest first: act on each, then
   fold its (possibly new) state into the ordering context younger
   entries see.  A [Done] entry neither acts nor changes any ordering
   flag, so entries that completed or retired since the last scan are
   dropped where met. *)
let scan t =
  let cfg = t.cfg in
  let sc = cfg.Config.consistency = Ise_model.Axiom.Sc in
  let pc = cfg.Config.consistency = Ise_model.Axiom.Pc in
  let now = Engine.now t.engine in
  t.scanned <- t.version;
  let progress_before = t.progress in
  t.progress <- false;
  let nop_wake = ref max_int in
  let all_older_done = ref true in
  let older_loadlike_done = ref true in
  let older_unresolved_store = ref false in
  let older_store_unissued = ref false in
  let fence_pending = ref false in
  (* same-word tracking for WC po-loc: words of incomplete accesses *)
  let incomplete_words = t.incomplete_words in
  Ise_util.Wordset.clear incomplete_words;
  let blocked = ref false in
  let n = t.n_pending in
  let i = ref 0 and kept = ref 0 in
  while (not !blocked) && !i < n do
    let seq = t.pending.(!i) in
    incr i;
    match get_entry t seq with
    | None -> ()  (* retired *)
    | Some e when e.r_status = Done -> ()
    | Some e ->
      let is_head = seq = t.rob_head in
      (* try to make progress on this entry *)
      (match (e.instr, e.r_status) with
       | Sim_instr.Nop _, Waiting ->
         if now >= e.ready_at then begin
           e.r_status <- Done;
           t.progress <- true;
           touch t
         end
         else if e.ready_at < !nop_wake then nop_wake := e.ready_at
       | Sim_instr.Ctrl _, Waiting ->
         if dep_ready t e.c_dep then begin
           e.r_status <- Done;
           t.progress <- true;
           touch t
         end
       | Sim_instr.St { addr; data }, Waiting ->
         if dep_ready t e.a_dep && data_ready t e data then begin
           let a = addr.Sim_instr.base and d = data_value t e data in
           resolve_addr t e a;
           if e.r_data <> d then begin
             e.r_data <- d;
             touch t
           end;
           if sc then begin
             (* SC without a store buffer: an exclusive prefetch warms
                the block as soon as the address resolves, and the
                write itself performs at the ROB head, so every store
                pays a short commit-time latency (§2.3) *)
             if (not e.prefetched)
                && e.r_seq - t.rob_head < cfg.Config.sc_store_issue_window
             then begin
               e.prefetched <- true;
               touch t;
               Memsys.request t.mem ~core:t.core_id ~addr:a
                 Memsys.Prefetch_exclusive (fun _ -> ())
             end;
             if is_head && (not !fence_pending) && not !older_store_unissued
             then issue_sc_store t e
           end
           else begin
             e.r_status <- Done;
             t.progress <- true;
             touch t
           end
         end
       | Sim_instr.Ld { addr; _ }, Waiting ->
         if dep_ready t e.a_dep then begin
           let a = addr.Sim_instr.base in
           resolve_addr t e a;
           let eligible =
             (not !fence_pending)
             && (not (Ise_util.Wordset.mem incomplete_words (word a)))
             && (if sc then
                   if cfg.Config.sc_speculative_loads then
                     not !older_unresolved_store
                   else !all_older_done
                 else if pc then
                   !older_loadlike_done && not !older_unresolved_store
                 else not !older_unresolved_store)
           in
           if eligible then issue_load t e
         end
       | Sim_instr.Amo { addr; op; _ }, Waiting ->
         if dep_ready t e.a_dep then begin
           resolve_addr t e addr.Sim_instr.base;
           if is_head && Sb.is_empty t.sb && Sb.inflight t.sb = 0 then
             issue_amo t e op
         end
       | _ -> ());
      (* update ordering context from this entry's (possibly new) state *)
      (match e.instr with
       | Sim_instr.Ctrl _ when e.r_status <> Done ->
         (* no branch speculation: nothing younger issues *)
         blocked := true
       | Sim_instr.Fence when e.r_status <> Done -> fence_pending := true
       | Sim_instr.St _ ->
         (* unresolved store addresses block younger loads (no memory
            disambiguation speculation); resolved stores are handled
            by ROB/SB forwarding *)
         if e.r_addr < 0 then older_unresolved_store := true;
         if e.r_status = Waiting then older_store_unissued := true
       | Sim_instr.Ld _ | Sim_instr.Amo _ ->
         if e.r_status <> Done then begin
           older_loadlike_done := false;
           (* same-word load-load order (CoRR); an address-dependent
              older load with an unknown address cannot block younger
              loads by word, which is acceptable because dependent
              loads are ordered by their dependency anyway *)
           if e.r_addr >= 0 then
             Ise_util.Wordset.add incomplete_words (word e.r_addr)
         end
       | _ -> ());
      if e.r_status <> Done then begin
        all_older_done := false;
        t.pending.(!kept) <- seq;
        incr kept
      end
  done;
  (* entries past a blocking branch were not visited: keep them *)
  if !kept < !i then Array.blit t.pending !i t.pending !kept (n - !i);
  t.n_pending <- !kept + (n - !i);
  t.nop_wake <- !nop_wake;
  t.scan_progress <- t.progress;
  t.progress <- progress_before || t.progress

(* The scan is a pure function of the ROB, the store buffer, the phase
   and (for waiting Nops) the cycle, and every change to those bumps
   [version] — including the scan's own, so a scan that acted is
   always followed by another.  A scan that would start from the
   version the last one started from, before any visited Nop is due,
   would repeat it exactly: skip it, keeping its [progress] (a load
   blocked behind an incomplete AMO retries, and reports progress,
   every cycle). *)
let issue t =
  if t.version = t.scanned && Engine.now t.engine < t.nop_wake then begin
    if t.scan_progress then t.progress <- true
  end
  else scan t

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let next_instr t =
  match t.replay with
  | i :: rest ->
    t.replay <- rest;
    Some i
  | [] ->
    if t.stream_done then None
    else (
      match t.stream () with
      | Some i -> Some i
      | None ->
        t.stream_done <- true;
        None)

let dispatch t =
  let dispatched = ref 0 in
  let stop = ref false in
  while (not !stop) && !dispatched < t.cfg.Config.dispatch_width do
    if rob_count t >= t.cfg.Config.rob_entries then begin
      t.stats.rob_full_stalls <- t.stats.rob_full_stalls + 1;
      stop := true
    end
    else
      match next_instr t with
      | None -> stop := true
      | Some instr ->
        let a_dep =
          match instr with
          | Sim_instr.Ld { addr; _ }
          | Sim_instr.Amo { addr; _ }
          | Sim_instr.St { addr; _ } -> (
            match addr.Sim_instr.dep with
            | Some r -> t.producers.(r)
            | None -> -1)
          | Sim_instr.Ctrl _ | Sim_instr.Fence | Sim_instr.Nop _ -> -1
        and d_dep =
          match instr with
          | Sim_instr.St { data = Sim_instr.From_reg r; _ } -> t.producers.(r)
          | _ -> -1
        and c_dep =
          match instr with Sim_instr.Ctrl r -> t.producers.(r) | _ -> -1
        in
        let e =
          { r_seq = t.rob_tail; instr; r_status = Waiting; r_value = 0;
            r_addr = -1; r_data = 0; ready_at = 0; prefetched = false;
            a_dep; d_dep; c_dep }
        in
        (match instr with
         | Sim_instr.Nop n ->
           e.ready_at <- Engine.now t.engine + max 1 n;
           (* wake the machine when the nop completes *)
           Engine.schedule_in t.engine (max 1 n) (fun () -> ())
         | Sim_instr.Ld { dst; _ } -> t.producers.(dst) <- e.r_seq
         | Sim_instr.Amo { dst; _ } ->
           t.producers.(dst) <- e.r_seq;
           t.st_seqs.(slot t t.st_tail) <- e.r_seq;
           t.st_tail <- t.st_tail + 1
         | Sim_instr.St _ ->
           t.st_seqs.(slot t t.st_tail) <- e.r_seq;
           t.st_tail <- t.st_tail + 1
         | Sim_instr.Fence | Sim_instr.Ctrl _ -> ());
        t.rob.(slot t e.r_seq) <- Some e;
        t.rob_tail <- t.rob_tail + 1;
        t.pending.(t.n_pending) <- e.r_seq;
        t.n_pending <- t.n_pending + 1;
        touch t;
        incr dispatched;
        t.progress <- true
  done

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let step t =
  t.progress <- false;
  (match t.phase with
   | Running ->
     retire t;
     issue t;
     drain_sb t;
     dispatch t
   | Paused ->
     (* the interrupt handler runs; retired stores keep draining in
        the background — no store-buffer drain is required to take an
        interrupt (§5.3) *)
     drain_sb t
   | Waiting_drains ->
     if Sb.inflight t.sb = 0 then begin
       start_fsb_drain t;
       t.progress <- true
     end
   | Draining_fsb | In_handler | Terminated -> ());
  t.progress

let is_done t =
  match t.phase with
  | Terminated -> true
  | Running ->
    t.stream_done && t.replay = [] && rob_count t = 0 && Sb.is_empty t.sb
    && Sb.inflight t.sb = 0
  | _ -> false

(* Interrupt delivery: only a Running core accepts an interrupt (the
   IE bit is set during exception handling and while another handler
   runs).  Returns whether the interrupt was taken. *)
let interrupt t ~handler_cycles =
  match t.phase with
  | Running ->
    t.phase <- Paused;
    Engine.schedule_in t.engine (max 1 handler_cycles) (fun () ->
        (* exceptions detected while the interrupt handler ran are
           taken now, in order, before user execution resumes *)
        unpause t);
    true
  | Paused | Waiting_drains | Draining_fsb | In_handler | Terminated -> false

let is_terminated t = t.phase = Terminated

let in_episode t =
  match t.phase with
  | Waiting_drains | Draining_fsb | In_handler -> true
  | Running | Paused | Terminated -> false

let terminate t =
  (match t.tel with
   | None -> ()
   | Some tel when in_episode t ->
     let tr = Ise_telemetry.Sink.trace tel.t_sink in
     let now = Engine.now t.engine in
     Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"TERMINATE"
       ~tid:t.core_id now;
     Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"episode" ~tid:t.core_id
       now
   | Some _ -> ());
  t.env.trace
    (Ise_core.Contract.Terminate
       { core = t.core_id; cycle = Engine.now t.engine });
  t.phase <- Terminated;
  t.handler_invoked <- false;
  t.overflow_replay <- [];
  Hashtbl.reset t.degraded_words;
  t.replay <- [];
  t.stream_done <- true;
  ignore (Sb.take_all t.sb);
  for seqn = t.rob_head to t.rob_tail - 1 do
    t.rob.(slot t seqn) <- None
  done;
  t.rob_head <- t.rob_tail;
  t.st_head <- t.st_tail;
  t.n_pending <- 0;
  touch t

let resume t =
  if t.phase <> Terminated then begin
    (match t.tel with
     | None -> ()
     | Some tel when in_episode t ->
       let tr = Ise_telemetry.Sink.trace tel.t_sink in
       let now = Engine.now t.engine in
       Ise_telemetry.Trace.instant tr ~cat:"ise" ~name:"RESUME" ~tid:t.core_id
         now;
       Ise_telemetry.Trace.span_end tr ~cat:"ise" ~name:"episode"
         ~tid:t.core_id now
     | Some _ -> ());
    t.env.trace
      (Ise_core.Contract.Resume
         { core = t.core_id; cycle = Engine.now t.engine });
    t.handler_invoked <- false;
    (* dropped-to-precise stores re-execute first: they are older than
       anything the pipeline flush put back in the replay queue *)
    (match t.overflow_replay with
     | [] -> ()
     | dropped ->
       t.replay <- List.map sim_instr_of_record dropped @ t.replay;
       t.overflow_replay <- [];
       Hashtbl.reset t.degraded_words);
    t.phase <- Running;
    touch t
  end
