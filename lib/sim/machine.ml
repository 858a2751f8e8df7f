type hooks = {
  on_imprecise : int -> unit;
  on_precise :
    core:int -> addr:int -> code:Ise_core.Fault.code -> retry:(unit -> unit)
    -> unit;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  einj : Einject.t;
  memsys : Memsys.t;
  mutable cores : Core.t array;
  mutable hooks : hooks option;
  mutable trace_rev : Ise_core.Contract.event list;
  mutable trace_enabled : bool;
  mutable trace_len : int;
  trace_limit : int;
  mutable interrupts_taken : int;
  mutable interrupts_deferred : int;
  mutable telemetry : Ise_telemetry.Sink.t option;
  mutable probe : Ise_telemetry.Probe.t option;
  mutable observers : (Ise_core.Contract.event -> unit) list;
}

let trace_event t ev =
  (* observers (the chaos watchdog) see every event, even when trace
     recording is disabled or the ring is full *)
  List.iter (fun f -> f ev) t.observers;
  if t.trace_enabled && t.trace_len < t.trace_limit then begin
    t.trace_rev <- ev :: t.trace_rev;
    t.trace_len <- t.trace_len + 1
  end

let add_observer t f = t.observers <- t.observers @ [ f ]

let create ?(cfg = Config.default) ~programs () =
  let engine = Engine.create () in
  let einj =
    Einject.create ~base:cfg.Config.einject_base ~pages:cfg.Config.einject_pages
      ~page_bits:cfg.Config.page_bits
  in
  let memsys = Memsys.create cfg engine einj in
  let t =
    { cfg; engine; einj; memsys; cores = [||]; hooks = None; trace_rev = [];
      trace_enabled = true; trace_len = 0; trace_limit = 1_000_000;
      interrupts_taken = 0; interrupts_deferred = 0; telemetry = None;
      probe = None; observers = [] }
  in
  let env : Core.env =
    {
      trace = (fun ev -> trace_event t ev);
      on_imprecise =
        (fun core ->
          match t.hooks with
          | Some h -> h.on_imprecise core
          | None -> failwith "Machine: no OS hooks installed");
      on_precise =
        (fun ~core ~addr ~code ~retry ->
          match t.hooks with
          | Some h -> h.on_precise ~core ~addr ~code ~retry
          | None -> failwith "Machine: no OS hooks installed");
    }
  in
  let n = Array.length programs in
  if n > cfg.Config.ncores then invalid_arg "Machine.create: too many programs";
  t.cores <-
    Array.init n (fun i ->
        Core.create cfg engine memsys env ~id:i ~program:programs.(i));
  t

let set_hooks t h = t.hooks <- Some h
let cfg t = t.cfg
let engine t = t.engine
let mem t = t.memsys
let einject t = t.einj
let core t i = t.cores.(i)
let ncores t = Array.length t.cores
let set_trace_enabled t b = t.trace_enabled <- b

let all_done t = Array.for_all Core.is_done t.cores

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let telemetry t = t.telemetry

let attach_telemetry ?(sample_period = 200) t sink =
  if sample_period <= 0 then
    invalid_arg "Machine.attach_telemetry: sample_period must be positive";
  t.telemetry <- Some sink;
  Array.iter (fun c -> Core.set_telemetry c sink) t.cores;
  let registry = Ise_telemetry.Sink.registry sink in
  let trace = Ise_telemetry.Sink.trace sink in
  let probe =
    Ise_telemetry.Probe.create ~trace ~registry ~period:sample_period ()
  in
  Array.iteri
    (fun i c ->
      let pfx = Printf.sprintf "core%d" i in
      Ise_telemetry.Probe.add_source probe (pfx ^ "/fsb/occupancy") (fun () ->
          float_of_int (Ise_core.Fsb.pending (Core.fsb c)));
      Ise_telemetry.Probe.add_source probe (pfx ^ "/sb/occupancy") (fun () ->
          float_of_int (Core.sb_occupancy c));
      Ise_telemetry.Probe.add_source probe (pfx ^ "/rob/occupancy") (fun () ->
          float_of_int (Core.rob_occupancy c)))
    t.cores;
  Ise_telemetry.Probe.add_source probe "mem/l1/miss_rate" (fun () ->
      Memsys.l1_miss_rate t.memsys);
  Ise_telemetry.Probe.add_source probe "mem/l2/miss_rate" (fun () ->
      Memsys.l2_miss_rate t.memsys);
  Ise_telemetry.Probe.add_source probe "mem/noc/hop_cycles" (fun () ->
      float_of_int (Memsys.noc_hop_cycles t.memsys));
  t.probe <- Some probe;
  (* The sampling tick only reads state, so the extra wake-ups cannot
     change what any core does at any cycle: a telemetry-on run takes
     exactly the same number of cycles as a telemetry-off run. *)
  let rec tick () =
    if not (all_done t) then begin
      Ise_telemetry.Probe.sample probe ~now:(Engine.now t.engine);
      Engine.schedule_in t.engine sample_period tick
    end
  in
  Engine.schedule_in t.engine sample_period tick

let record_final_stats t =
  match t.telemetry with
  | None -> ()
  | Some sink ->
    let r = Ise_telemetry.Sink.registry sink in
    let set name v =
      Ise_telemetry.Registry.(set_counter (counter r name) v)
    in
    let setf name v = Ise_telemetry.Registry.(set (gauge r name) v) in
    set "machine/cycles" (Engine.now t.engine);
    set "machine/interrupts/taken" t.interrupts_taken;
    set "machine/interrupts/deferred" t.interrupts_deferred;
    Array.iteri
      (fun i c ->
        let pfx = Printf.sprintf "core%d" i in
        let s = Core.stats c in
        set (pfx ^ "/retired") s.Core.retired;
        set (pfx ^ "/loads") s.Core.loads;
        set (pfx ^ "/stores") s.Core.stores;
        set (pfx ^ "/fences") s.Core.fences;
        set (pfx ^ "/ise/imprecise_exceptions") s.Core.imprecise_exceptions;
        set (pfx ^ "/ise/faulting_stores") s.Core.faulting_stores;
        set (pfx ^ "/ise/precise_exceptions") s.Core.precise_exceptions;
        set (pfx ^ "/ise/drain_uarch_cycles") s.Core.drain_uarch_cycles;
        set (pfx ^ "/sb/full_stalls") s.Core.sb_full_stalls;
        set (pfx ^ "/rob/full_stalls") s.Core.rob_full_stalls;
        set (pfx ^ "/fsb/overflow_stalls") s.Core.fsb_overflow_stalls;
        set (pfx ^ "/fsb/overflow_drops") s.Core.fsb_overflow_drops;
        let fsb = Core.fsb c in
        set (pfx ^ "/fsb/appended") (Ise_core.Fsb.total_appended fsb);
        set (pfx ^ "/fsb/drained") (Ise_core.Fsb.total_drained fsb);
        set (pfx ^ "/fsb/high_watermark") (Ise_core.Fsb.high_watermark fsb))
      t.cores;
    set "mem/l1/hits" (Memsys.l1_hits t.memsys);
    set "mem/l1/misses" (Memsys.l1_misses t.memsys);
    set "mem/l2/hits" (Memsys.l2_hits t.memsys);
    set "mem/l2/misses" (Memsys.l2_misses t.memsys);
    set "mem/dram/accesses" (Memsys.dram_accesses t.memsys);
    set "mem/denials" (Memsys.denials t.memsys);
    set "mem/invalidations" (Memsys.invalidations t.memsys);
    set "mem/noc/total_hop_cycles" (Memsys.noc_hop_cycles t.memsys);
    setf "mem/l1/final_miss_rate" (Memsys.l1_miss_rate t.memsys);
    setf "mem/l2/final_miss_rate" (Memsys.l2_miss_rate t.memsys)

let run ?(max_cycles = 50_000_000) t =
  if t.hooks = None then failwith "Machine.run: no OS hooks installed";
  let rec loop () =
    if all_done t then ()
    else if Engine.now t.engine > max_cycles then
      failwith
        (Printf.sprintf "Machine.run: exceeded %d cycles (livelock?)" max_cycles)
    else begin
      ignore (Engine.run_due t.engine);
      let progress = ref false in
      for i = 0 to Array.length t.cores - 1 do
        if Core.step t.cores.(i) then progress := true
      done;
      if all_done t then ()
      else if !progress then begin
        Engine.advance t.engine;
        loop ()
      end
      else if Engine.skip_to_next_event t.engine then loop ()
      else if Engine.pending t.engine > 0 then begin
        (* events due this very cycle were scheduled during core
           stepping: run them before advancing *)
        Engine.advance t.engine;
        loop ()
      end
      else
        failwith
          (Printf.sprintf "Machine.run: deadlock at cycle %d"
             (Engine.now t.engine))
    end
  in
  loop ()

let cycles t = Engine.now t.engine

let total_retired t =
  Array.fold_left (fun acc c -> acc + (Core.stats c).Core.retired) 0 t.cores

let trace t = List.rev t.trace_rev

let check_contract t =
  let ordered_apply = t.cfg.Config.consistency <> Ise_model.Axiom.Wc in
  Ise_core.Contract.check ~ordered_apply ~ncores:(Array.length t.cores)
    (trace t)

(* Periodic timer interrupts on every core, like the OS activity the
   paper's workloads run under (§6.5). *)
let enable_timer_interrupts t ~period ~handler_cycles =
  let note name core =
    match t.telemetry with
    | None -> ()
    | Some sink ->
      Ise_telemetry.Trace.instant
        (Ise_telemetry.Sink.trace sink)
        ~cat:"irq" ~name ~tid:(Core.id core) (Engine.now t.engine)
  in
  let rec tick () =
    Array.iter
      (fun core ->
        if not (Core.is_done core) then
          if Core.interrupt core ~handler_cycles then begin
            t.interrupts_taken <- t.interrupts_taken + 1;
            note "timer_interrupt" core
          end
          else begin
            t.interrupts_deferred <- t.interrupts_deferred + 1;
            note "timer_interrupt_deferred" core
          end)
      t.cores;
    if not (all_done t) then Engine.schedule_in t.engine period tick
  in
  Engine.schedule_in t.engine period tick

let interrupts_taken t = t.interrupts_taken
let interrupts_deferred t = t.interrupts_deferred

let read_word t addr = Memsys.peek t.memsys addr
let write_word t addr v = Memsys.poke t.memsys addr v
