(* The ise_telemetry subsystem: registry semantics, trace recording and
   Chrome-trace export, and the cycle-equivalence guarantee (telemetry
   must observe the simulation without perturbing it). *)

open Ise_telemetry
open Ise_sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_basics () =
  let r = Registry.create () in
  let c = Registry.counter r "core0/fsb/appended" in
  Registry.incr c;
  Registry.add c 4;
  check Alcotest.int "counter" 5 (Registry.value c);
  let g = Registry.gauge r "mem/l1/miss_rate" in
  Registry.set g 0.25;
  check (Alcotest.float 1e-9) "gauge" 0.25 (Registry.get g);
  (* registration is idempotent: same name, same cell *)
  let c' = Registry.counter r "core0/fsb/appended" in
  Registry.incr c';
  check Alcotest.int "shared handle" 6 (Registry.value c)

let test_registry_collision () =
  let r = Registry.create () in
  ignore (Registry.counter r "core0/x");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument
       "Registry: \"core0/x\" already registered as a counter, wanted a gauge")
    (fun () -> ignore (Registry.gauge r "core0/x"));
  ignore (Registry.histogram r "core0/h");
  Alcotest.check_raises "histogram vs counter"
    (Invalid_argument
       "Registry: \"core0/h\" already registered as a histogram, wanted a \
        counter")
    (fun () -> ignore (Registry.counter r "core0/h"))

let test_histogram_snapshot_merge () =
  let r = Registry.create () in
  let h = Registry.histogram r "core0/sb/occupancy" in
  for i = 1 to 100 do
    Ise_util.Stats.add_int h i
  done;
  (match List.assoc "core0/sb/occupancy" (Registry.snapshot r) with
   | Registry.Snap_histogram s ->
     check Alcotest.int "count" 100 s.Registry.s_count;
     check (Alcotest.float 1e-9) "mean" 50.5 s.Registry.s_mean;
     check (Alcotest.float 1e-9) "p50" 50.5 s.Registry.s_p50;
     check (Alcotest.float 1e-9) "p99" 99.01 s.Registry.s_p99;
     check (Alcotest.float 1e-9) "max" 100. s.Registry.s_max
   | _ -> Alcotest.fail "expected a histogram snapshot");
  (* merging two histograms behaves like one that saw both streams *)
  let a = Ise_util.Stats.create () and b = Ise_util.Stats.create () in
  for i = 1 to 50 do
    Ise_util.Stats.add_int a i
  done;
  for i = 51 to 100 do
    Ise_util.Stats.add_int b i
  done;
  let m = Ise_util.Stats.merge a b in
  check Alcotest.int "merged count" 100 (Ise_util.Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 50.5 (Ise_util.Stats.mean m);
  check (Alcotest.float 1e-9) "merged p50" 50.5
    (Ise_util.Stats.percentile m 50.);
  (* reset keeps handles alive *)
  Registry.reset r;
  check Alcotest.int "cleared" 0 (Ise_util.Stats.count h)

let test_registry_emitters () =
  let r = Registry.create () in
  Registry.set_counter (Registry.counter r "a/count") 7;
  Registry.set (Registry.gauge r "b/rate") 0.5;
  Ise_util.Stats.add (Registry.histogram r "c/hist") 3.;
  let csv = Registry.to_csv r in
  check Alcotest.bool "csv header" true
    (String.length csv > 0
     && String.sub csv 0 (String.index csv '\n')
        = "name,kind,value,count,mean,min,p50,p90,p99,max");
  (* the JSON emitter round-trips through our own parser *)
  match Json.of_string (Json.to_string (Registry.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    check (Alcotest.option Alcotest.int) "counter value" (Some 7)
      (Json.member "a/count" j |> Option.get |> Json.to_int);
    check (Alcotest.option (Alcotest.float 1e-9)) "gauge value" (Some 0.5)
      (Json.member "b/rate" j |> Option.get |> Json.to_float);
    check (Alcotest.option Alcotest.int) "histogram count" (Some 1)
      (Json.member "c/hist" j |> Option.get |> Json.member "count" |> Option.get
       |> Json.to_int)

(* ------------------------------------------------------------------ *)
(* Trace recorder                                                      *)

let test_trace_ring_eviction () =
  let tr = Trace.create ~ring_capacity:4 () in
  for i = 0 to 9 do
    Trace.instant tr ~name:(Printf.sprintf "ev%d" i) ~tid:0 i
  done;
  check Alcotest.int "length" 4 (Trace.length tr);
  check Alcotest.int "recorded" 10 (Trace.recorded tr);
  check Alcotest.int "dropped" 6 (Trace.dropped tr);
  check
    (Alcotest.list Alcotest.string)
    "newest survive"
    [ "ev6"; "ev7"; "ev8"; "ev9" ]
    (List.map (fun e -> e.Trace.ev_name) (Trace.events tr));
  Trace.clear tr;
  check Alcotest.int "cleared" 0 (Trace.length tr)

let test_chrome_json_roundtrip () =
  let tr = Trace.create () in
  Trace.span_begin tr ~cat:"os" ~name:"handler" ~tid:1 100;
  Trace.instant tr ~cat:"ise" ~name:"PUT"
    ~args:[ ("addr", Json.Int 0xdead) ]
    ~tid:1 110;
  Trace.counter tr ~name:"core1/sb/occupancy" ~value:12. 120;
  Trace.span_end tr ~cat:"os" ~name:"handler" ~tid:1 130;
  let rendered = Json.to_string (Trace.to_chrome_json tr) in
  match Json.of_string rendered with
  | Error e -> Alcotest.fail ("unparsable trace JSON: " ^ e)
  | Ok j ->
    let events =
      Json.member "traceEvents" j |> Option.get |> Json.to_list |> Option.get
    in
    check Alcotest.int "event count" 4 (List.length events);
    let field name ev = Json.member name ev |> Option.get in
    let phases =
      List.map (fun e -> field "ph" e |> Json.to_str |> Option.get) events
    in
    check
      (Alcotest.list Alcotest.string)
      "phases" [ "B"; "i"; "C"; "E" ] phases;
    let put = List.nth events 1 in
    check (Alcotest.option Alcotest.string) "instant scope" (Some "t")
      (Json.member "s" put |> Option.map (fun s -> Json.to_str s |> Option.get));
    check (Alcotest.option Alcotest.int) "instant arg" (Some 0xdead)
      (field "args" put |> Json.member "addr" |> Option.get |> Json.to_int);
    check (Alcotest.option Alcotest.int) "ts" (Some 110)
      (field "ts" put |> Json.to_int);
    let ctr = List.nth events 2 in
    check (Alcotest.option (Alcotest.float 1e-9)) "counter value" (Some 12.)
      (field "args" ctr |> Json.member "value" |> Option.get |> Json.to_float)

(* ------------------------------------------------------------------ *)
(* Cycle equivalence and end-to-end episode capture                    *)

let faulting_program base =
  Sim_instr.of_list
    (List.concat
       (List.init 8 (fun i ->
            [ Sim_instr.St
                { addr = Sim_instr.addr (base + (i * 4096));
                  data = Sim_instr.Imm (i + 1) };
              Sim_instr.Nop 2 ])))

let run_machine ~telemetry =
  let base = Config.default.Config.einject_base in
  let m = Machine.create ~programs:[| faulting_program base |] () in
  ignore (Ise_os.Handler.install m);
  let sink =
    if telemetry then begin
      let sink = Sink.create () in
      (* a deliberately odd period, so sampling wake-ups land on cycles
         the uninstrumented run never visits *)
      Machine.attach_telemetry ~sample_period:7 m sink;
      Some sink
    end
    else None
  in
  for i = 0 to 7 do
    Einject.set_faulting (Machine.einject m) (base + (i * 4096))
  done;
  Machine.run m;
  Machine.record_final_stats m;
  (Machine.cycles m, Machine.total_retired m, sink)

let test_cycle_equivalence () =
  let cycles_off, retired_off, _ = run_machine ~telemetry:false in
  let cycles_on, retired_on, sink = run_machine ~telemetry:true in
  check Alcotest.int "cycles identical" cycles_off cycles_on;
  check Alcotest.int "retired identical" retired_off retired_on;
  (* and the instrumented run actually observed something *)
  let sink = Option.get sink in
  let names =
    List.map (fun e -> e.Trace.ev_name) (Trace.events (Sink.trace sink))
  in
  List.iter
    (fun n ->
      check Alcotest.bool (n ^ " recorded") true (List.mem n names))
    [ "DETECT"; "PUT"; "GET"; "APPLY"; "RESOLVE"; "RESUME" ]

let test_episode_sequence () =
  let _, _, sink = run_machine ~telemetry:true in
  let events = Trace.events (Sink.trace (Option.get sink)) in
  (* the Table 5 interface ops of one episode appear in order *)
  let order = [ "DETECT"; "PUT"; "GET"; "APPLY"; "RESOLVE"; "RESUME" ] in
  let rec advance expected = function
    | [] -> expected
    | e :: rest ->
      (match expected with
       | next :: more when e.Trace.ev_name = next -> advance more rest
       | _ -> advance expected rest)
  in
  check
    (Alcotest.list Alcotest.string)
    "full DETECT..RESUME sequence" [] (advance order events);
  (* spans are balanced: every begin has a matching end *)
  let depth = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let key = (e.Trace.ev_name, e.Trace.ev_tid) in
      let d = try Hashtbl.find depth key with Not_found -> 0 in
      match e.Trace.ev_ph with
      | Trace.Span_begin -> Hashtbl.replace depth key (d + 1)
      | Trace.Span_end ->
        check Alcotest.bool "end without begin" true (d > 0);
        Hashtbl.replace depth key (d - 1)
      | Trace.Instant | Trace.Counter_sample -> ())
    events;
  Hashtbl.iter
    (fun (name, _) d ->
      check Alcotest.int (name ^ " balanced") 0 d)
    depth

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)

let test_trace_ctx_roundtrip () =
  let ctx =
    { Trace.trace_id = "t-1"; span_id = "s-9"; parent_span_id = Some "d-3" }
  in
  let tr = Trace.create () in
  Trace.span_begin tr ~name:"shard 9" ~tid:0 ~ctx 100;
  Trace.instant tr ~name:"receive" ~tid:0
    ~ctx:{ ctx with Trace.parent_span_id = Some "d-3" } 101;
  (match Trace.events tr with
   | [ b; _ ] ->
     (match Trace.ctx_of_event b with
      | Some c ->
        check Alcotest.string "trace id" "t-1" c.Trace.trace_id;
        check Alcotest.string "span id" "s-9" c.Trace.span_id;
        check
          (Alcotest.option Alcotest.string)
          "parent" (Some "d-3") c.Trace.parent_span_id
      | None -> Alcotest.fail "ctx lost in ev_args")
   | _ -> Alcotest.fail "expected two events");
  (* the ctx survives Chrome JSON: args round-trip generically *)
  let doc = Trace.to_chrome_json ~pid:4 tr in
  let ev =
    match Json.member "traceEvents" doc with
    | Some (Json.List (e :: _)) -> e
    | _ -> Alcotest.fail "no traceEvents"
  in
  check
    (Alcotest.option Alcotest.int)
    "pid override" (Some 4)
    (Option.bind (Json.member "pid" ev) Json.to_int);
  let arg k =
    Option.bind (Json.member "args" ev) (fun a ->
        Option.bind (Json.member k a) Json.to_str)
  in
  check
    (Alcotest.option Alcotest.string)
    "json trace id" (Some "t-1") (arg Trace.ctx_key_trace);
  check
    (Alcotest.option Alcotest.string)
    "json parent" (Some "d-3") (arg Trace.ctx_key_parent)

let suite =
  [
    ("registry basics", `Quick, test_registry_basics);
    ("registry collision", `Quick, test_registry_collision);
    ("histogram snapshot/merge", `Quick, test_histogram_snapshot_merge);
    ("registry emitters", `Quick, test_registry_emitters);
    ("trace ring eviction", `Quick, test_trace_ring_eviction);
    ("chrome json roundtrip", `Quick, test_chrome_json_roundtrip);
    ("cycle equivalence", `Quick, test_cycle_equivalence);
    ("episode sequence", `Quick, test_episode_sequence);
    ("trace ctx roundtrip", `Quick, test_trace_ctx_roundtrip);
  ]
