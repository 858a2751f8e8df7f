(* Tests for Ise_obs: journal codec, flight recorder, offline episode
   analyzer (cross-checked against the online watchdog), and the
   regression ledger. *)

open Ise_obs

let trace_event ?(cat = "ise") ?(args = []) ?(ph = Ise_telemetry.Trace.Instant)
    ~name ~tid ts =
  { Ise_telemetry.Trace.ev_name = name; ev_cat = cat; ev_ph = ph;
    ev_ts = ts; ev_tid = tid; ev_args = args }

(* ------------------------------------------------------------------ *)
(* journal codec                                                       *)

let test_journal_roundtrip () =
  let nasty = "a b=c%d\te\nf\rg" in
  let events =
    [ trace_event ~name:"PUT" ~tid:1 10
        ~args:
          [ ("seq", Ise_telemetry.Json.Int 3);
            ("addr", Ise_telemetry.Json.Int 0x4000);
            ("note", Ise_telemetry.Json.String nasty);
            ("frac", Ise_telemetry.Json.Float 0.25);
            ("flag", Ise_telemetry.Json.Bool true);
            ("nil", Ise_telemetry.Json.Null);
            ( "nested",
              Ise_telemetry.Json.Obj
                [ ("k", Ise_telemetry.Json.List [ Ise_telemetry.Json.Int 1 ])
                ] ) ];
      trace_event ~ph:Ise_telemetry.Trace.Span_begin ~name:nasty ~cat:nasty
        ~tid:0 11;
      trace_event ~ph:Ise_telemetry.Trace.Span_end ~name:nasty ~cat:nasty
        ~tid:0 12;
      trace_event ~ph:Ise_telemetry.Trace.Counter_sample ~name:"occ" ~tid:2
        ~args:[ ("value", Ise_telemetry.Json.Float 7.5) ]
        13 ]
  in
  let meta = [ ("run_id", "abc123"); ("profile", "with space=and%pct") ] in
  let text = Journal.render meta events in
  match Journal.parse text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    Alcotest.(check (list (pair string string)))
      "meta round-trips" meta p.Journal.j_meta;
    Alcotest.(check int) "no corrupt lines" 0 (List.length p.Journal.j_corrupt);
    Alcotest.(check bool) "events round-trip" true (p.Journal.j_events = events)

let test_journal_truncated_tail () =
  let events =
    List.init 5 (fun i ->
        trace_event ~name:"PUT" ~tid:0 (i * 10)
          ~args:[ ("seq", Ise_telemetry.Json.Int i) ])
  in
  let text = Journal.render [ ("k", "v") ] events in
  (* tear the last line mid-argument ("seq=i4" -> "seq="), as a
     SIGKILL mid-write would *)
  let cut = String.length text - 3 in
  let truncated = String.sub text 0 cut in
  match Journal.parse truncated with
  | Error msg -> Alcotest.failf "truncated parse failed: %s" msg
  | Ok p ->
    Alcotest.(check int) "first 4 events survive" 4
      (List.length p.Journal.j_events);
    Alcotest.(check int) "the torn line is corrupt, not fatal" 1
      (List.length p.Journal.j_corrupt)

let test_journal_bad_header () =
  (match Journal.parse "not a journal\n1 0 i ise DETECT\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad header must be an error");
  match Journal.parse "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty text must be an error"

(* ------------------------------------------------------------------ *)
(* recorder                                                            *)

let test_recorder_ring_and_dump () =
  let r = Recorder.create ~capacity:8 ~meta:[ ("kind", "test") ] () in
  for i = 0 to 19 do
    Recorder.instant r ~name:"PUT" ~tid:0 i
      ~args:[ ("seq", Ise_telemetry.Json.Int i) ]
  done;
  Alcotest.(check int) "recorded counts everything" 20 (Recorder.recorded r);
  Alcotest.(check int) "ring keeps the newest 8" 8
    (List.length (Recorder.events r));
  Alcotest.(check int) "dropped the rest" 12 (Recorder.dropped r);
  match Journal.parse (Recorder.dump r) with
  | Error msg -> Alcotest.failf "dump must parse: %s" msg
  | Ok p ->
    Alcotest.(check (option string))
      "meta survives" (Some "test")
      (List.assoc_opt "kind" p.Journal.j_meta);
    let seqs =
      List.filter_map
        (fun (e : Ise_telemetry.Trace.event) ->
          match List.assoc_opt "seq" e.Ise_telemetry.Trace.ev_args with
          | Some (Ise_telemetry.Json.Int i) -> Some i
          | _ -> None)
        p.Journal.j_events
    in
    Alcotest.(check (list int)) "oldest-first tail" [ 12; 13; 14; 15; 16; 17; 18; 19 ] seqs

let test_recorder_spill_survives () =
  let path = Filename.temp_file "ise_obs" ".jnl" in
  let r = Recorder.create ~capacity:4 ~spill:path ~meta:[ ("k", "v") ] () in
  for i = 0 to 9 do
    Recorder.instant r ~name:"GET" ~tid:1 i
  done;
  (* no close: the spill is flushed per line, like a killed worker *)
  match Journal.load path with
  | Error msg -> Alcotest.failf "spill must load: %s" msg
  | Ok p ->
    (* the spill keeps everything, not just the ring tail *)
    Alcotest.(check int) "all 10 events spilled" 10
      (List.length p.Journal.j_events);
    Recorder.close r;
    Sys.remove path

(* ------------------------------------------------------------------ *)
(* episode analyzer: synthetic streams                                 *)

let ev kind core cycle seq =
  { Episode.e_kind = kind; e_core = core; e_cycle = cycle;
    e_seq = Some seq; e_addr = Some (0x1000 + (seq * 8));
    e_data = Some seq }

let bare kind core cycle =
  { Episode.e_kind = kind; e_core = core; e_cycle = cycle; e_seq = None;
    e_addr = None; e_data = None }

let clean_episode core t0 =
  [ bare Episode.Detect core t0;
    ev Episode.Put core (t0 + 5) 0;
    ev Episode.Put core (t0 + 6) 1;
    ev Episode.Get core (t0 + 10) 0;
    ev Episode.Get core (t0 + 11) 1;
    ev Episode.Apply core (t0 + 20) 0;
    ev Episode.Apply core (t0 + 21) 1;
    bare Episode.Resolve core (t0 + 30);
    bare Episode.Resume core (t0 + 40) ]

let test_analyzer_clean () =
  let evs = clean_episode 0 100 @ clean_episode 1 200 in
  let a = Episode.analyze evs in
  Alcotest.(check bool) "clean" true (Episode.clean a);
  Alcotest.(check int) "two episodes" 2 (List.length a.Episode.an_episodes);
  let e = List.hd a.Episode.an_episodes in
  let ph = Episode.phases_of e in
  Alcotest.(check (option int)) "detect->drain" (Some 5)
    ph.Episode.ph_detect_to_drain;
  Alcotest.(check (option int)) "drain" (Some 1) ph.Episode.ph_drain;
  Alcotest.(check (option int)) "get loop" (Some 1) ph.Episode.ph_get_loop;
  Alcotest.(check (option int)) "apply" (Some 1) ph.Episode.ph_apply;
  Alcotest.(check (option int)) "resume" (Some 10) ph.Episode.ph_resume;
  Alcotest.(check (option int)) "total" (Some 40) ph.Episode.ph_total

let check_rules name expected evs =
  let a = Episode.analyze evs in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Printf.sprintf "%s flags %s" name rule)
        true
        (List.mem rule (Episode.rules a)))
    expected

let test_analyzer_lost_store () =
  check_rules "lost store" [ "lost-store"; "lost-store-at-exit" ]
    [ bare Episode.Detect 0 10;
      ev Episode.Put 0 12 0;
      ev Episode.Put 0 13 1;
      ev Episode.Get 0 20 0;
      ev Episode.Apply 0 25 0;
      (* seq 1 never retrieved *)
      bare Episode.Resolve 0 30;
      bare Episode.Resume 0 40 ]

let test_analyzer_get_order () =
  check_rules "out-of-order GET" [ "get-order" ]
    [ bare Episode.Detect 0 10;
      ev Episode.Put 0 12 0;
      ev Episode.Put 0 13 1;
      ev Episode.Get 0 20 1;
      (* replays PUT order backwards *)
      ev Episode.Get 0 21 0 ]

let test_analyzer_get_order_ok_when_unordered () =
  let evs =
    [ bare Episode.Detect 0 10;
      ev Episode.Put 0 12 0;
      ev Episode.Put 0 13 1;
      ev Episode.Get 0 20 1;
      ev Episode.Get 0 21 0;
      ev Episode.Apply 0 25 1;
      ev Episode.Apply 0 26 0;
      bare Episode.Resolve 0 30;
      bare Episode.Resume 0 40 ]
  in
  let a = Episode.analyze ~ordered_interface:false ~ordered_apply:false evs in
  Alcotest.(check bool) "split-stream/WC order is fine" true (Episode.clean a)

let test_analyzer_resume_before_resolve () =
  check_rules "resume before resolve" [ "resume-before-resolve" ]
    [ bare Episode.Detect 0 10; bare Episode.Resume 0 20 ]

let test_analyzer_after_terminate () =
  check_rules "activity after terminate" [ "after-terminate" ]
    [ bare Episode.Detect 0 10;
      ev Episode.Put 0 12 0;
      bare Episode.Terminate 0 20;
      ev Episode.Get 0 25 0 ]

let test_analyzer_stuck_episode () =
  let a =
    Episode.analyze
      [ bare Episode.Detect 0 10; ev Episode.Put 0 12 0; ev Episode.Get 0 14 0;
        ev Episode.Apply 0 16 0 ]
  in
  Alcotest.(check bool) "stuck flagged" true
    (List.mem "stuck-episode" (Episode.rules a));
  match a.Episode.an_episodes with
  | [ e ] -> Alcotest.(check (option int)) "no end cycle" None e.Episode.ep_end
  | _ -> Alcotest.fail "expected one episode"

let test_analyzer_retry_storm () =
  let gets = List.init 6 (fun i -> ev Episode.Get 0 (20 + i) 0) in
  let evs =
    (bare Episode.Detect 0 10 :: ev Episode.Put 0 12 0 :: gets)
    @ [ ev Episode.Apply 0 40 0; bare Episode.Resolve 0 50;
        bare Episode.Resume 0 60 ]
  in
  let a = Episode.analyze ~retry_threshold:4 evs in
  Alcotest.(check bool) "retry storm flagged" true
    (List.mem "retry-storm" (Episode.rules a))

(* ------------------------------------------------------------------ *)
(* offline analyzer ≡ online watchdog on real runs                     *)

let analyze_report (r : Ise_chaos.Chaos_run.report) =
  match Journal.parse r.Ise_chaos.Chaos_run.r_journal with
  | Error msg -> Alcotest.failf "report journal must parse: %s" msg
  | Ok p ->
    let flag k d =
      match List.assoc_opt k p.Journal.j_meta with
      | Some "true" -> true
      | Some "false" -> false
      | _ -> d
    in
    Episode.analyze
      ~ordered_interface:(flag "ordered_interface" true)
      ~ordered_apply:(flag "ordered_apply" true)
      (Episode.of_journal p)

let test_offline_matches_online_clean () =
  List.iter
    (fun profile ->
      let r =
        Ise_chaos.Chaos_run.run_stress ~ncores:2 ~stores_per_core:60 ~seed:7
          ~profile ()
      in
      Alcotest.(check bool)
        ("online clean under " ^ profile.Ise_chaos.Profile.name)
        true
        (r.Ise_chaos.Chaos_run.r_violations = []);
      let a = analyze_report r in
      Alcotest.(check (list string))
        ("offline clean under " ^ profile.Ise_chaos.Profile.name)
        [] (Episode.rules a);
      Alcotest.(check bool)
        ("episodes reconstructed under " ^ profile.Ise_chaos.Profile.name)
        true
        (a.Episode.an_episodes <> []))
    (List.filter Ise_chaos.Profile.outcome_transparent Ise_chaos.Profile.all)

let test_offline_matches_online_dropped_get () =
  (* the --inject-bug canary: the handler drops one retrieved record
     per batch; both implementations must call it a lost store *)
  Ise_os.Handler.bug_drop_get := true;
  Fun.protect
    ~finally:(fun () -> Ise_os.Handler.bug_drop_get := false)
    (fun () ->
      let profile = Option.get (Ise_chaos.Profile.named "light") in
      let r =
        Ise_chaos.Chaos_run.run_stress ~ncores:2 ~stores_per_core:60 ~seed:7
          ~profile ()
      in
      let online_rules =
        List.sort_uniq compare
          (List.map
             (fun v -> v.Ise_chaos.Watchdog.w_rule)
             r.Ise_chaos.Chaos_run.r_violations)
      in
      Alcotest.(check bool) "online watchdog trips" true (online_rules <> []);
      Alcotest.(check bool) "online names lost-store" true
        (List.mem "lost-store" online_rules);
      let a = analyze_report r in
      Alcotest.(check bool) "offline names lost-store" true
        (List.mem "lost-store" (Episode.rules a));
      (* every online lost-store rule the watchdog found is also found
         offline (the offline pass may add its own exit-time rules) *)
      List.iter
        (fun rule ->
          if rule = "lost-store" || rule = "lost-store-at-exit" then
            Alcotest.(check bool)
              ("offline also flags " ^ rule)
              true
              (List.mem rule (Episode.rules a)))
        online_rules)

(* ------------------------------------------------------------------ *)
(* ledger                                                              *)

let mk_record ?(kind = "bench") ?(label = "x") ?(rev = "r1") metrics =
  Ledger.make ~run_id:"rid" ~git_rev:rev ~config:"cfg" ~time:0. ~kind ~label
    ~seed:1 metrics

let test_ledger_roundtrip () =
  let dir = Filename.temp_file "ise_ledger" "" in
  Sys.remove dir;
  let path = Filename.concat dir "ledger.jsonl" in
  let r1 = mk_record [ ("cycles", 100.); ("ipc", 1.5) ] in
  let r2 = mk_record ~rev:"r2" [ ("cycles", 90.); ("ipc", 1.6) ] in
  Ledger.append ~path r1;
  Ledger.append ~path r2;
  (match Ledger.load ~path with
   | Error msg -> Alcotest.failf "load failed: %s" msg
   | Ok records ->
     Alcotest.(check int) "two records" 2 (List.length records);
     Alcotest.(check bool) "round-trips" true (records = [ r1; r2 ]);
     (match Ledger.last ~kind:"bench" records with
      | Some r ->
        Alcotest.(check string) "last is newest" "r2" r.Ledger.l_git_rev
      | None -> Alcotest.fail "last must find a record");
     Alcotest.(check bool) "last with absent kind" true
       (Ledger.last ~kind:"zzz" records = None));
  (* corrupt line: load is an error, naming the line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{not json\n";
  close_out oc;
  (match Ledger.load ~path with
   | Error msg ->
     Alcotest.(check bool) "error names line 3" true
       (let rec contains i =
          i + 2 <= String.length msg
          && (String.sub msg i 2 = ":3" || contains (i + 1))
        in
        contains 0)
   | Ok _ -> Alcotest.fail "corrupt line must be an error");
  Sys.remove path;
  Unix.rmdir dir

let delta_of cmp name =
  List.find (fun d -> d.Ledger.d_name = name) cmp.Ledger.c_deltas

let test_compare_boundaries () =
  let base =
    mk_record
      [ ("cycles", 100.); ("only_base", 1.); ("zero", 0.); ("nan", Float.nan);
        ("zero_to_some", 0.); ("wall_s", 10.) ]
  in
  let cand =
    mk_record ~rev:"r2"
      [ ("cycles", 102.); ("only_new", 1.); ("zero", 0.); ("nan", 1.);
        ("zero_to_some", 5.); ("wall_s", 50.) ]
  in
  let cmp = Ledger.compare_records ~threshold:0.02 ~base cand in
  (* exactly at the threshold: +2% on a 2% band is neutral *)
  Alcotest.(check bool) "at-threshold is neutral" true
    ((delta_of cmp "cycles").Ledger.d_verdict = Ledger.Neutral);
  Alcotest.(check bool) "missing from new" true
    ((delta_of cmp "only_base").Ledger.d_verdict = Ledger.Missing_new);
  Alcotest.(check bool) "missing from base" true
    ((delta_of cmp "only_new").Ledger.d_verdict = Ledger.Missing_base);
  Alcotest.(check bool) "zero = zero is neutral" true
    ((delta_of cmp "zero").Ledger.d_verdict = Ledger.Neutral);
  Alcotest.(check bool) "NaN is incomparable" true
    ((delta_of cmp "nan").Ledger.d_verdict = Ledger.Incomparable);
  Alcotest.(check bool) "zero base, nonzero new is incomparable" true
    ((delta_of cmp "zero_to_some").Ledger.d_verdict = Ledger.Incomparable);
  (* wall-clock moved 5x but is informational: never gates *)
  Alcotest.(check bool) "wall clock never regresses" true
    ((delta_of cmp "wall_s").Ledger.d_verdict <> Ledger.Regressed);
  Alcotest.(check bool) "nothing above gates" false (Ledger.regressed cmp);
  (* strictly beyond the threshold does gate *)
  let cmp2 =
    Ledger.compare_records ~threshold:0.02 ~base
      (mk_record ~rev:"r2" [ ("cycles", 103.) ])
  in
  Alcotest.(check bool) "beyond threshold regresses" true
    (Ledger.regressed cmp2);
  (* per-metric override loosens it back to neutral *)
  let cmp3 =
    Ledger.compare_records ~threshold:0.02 ~thresholds:[ ("cycles", 0.05) ]
      ~base
      (mk_record ~rev:"r2" [ ("cycles", 103.) ])
  in
  Alcotest.(check bool) "override wins" false (Ledger.regressed cmp3);
  (* higher-better metrics regress downwards *)
  let b = mk_record [ ("ipc", 2.0) ] in
  let cmp4 =
    Ledger.compare_records ~threshold:0.02 ~base:b
      (mk_record ~rev:"r2" [ ("ipc", 1.8) ])
  in
  Alcotest.(check bool) "ipc drop regresses" true (Ledger.regressed cmp4)

let test_flatten_json () =
  let json =
    Ise_telemetry.Json.Obj
      [ ("run_id", Ise_telemetry.Json.String "skip me");
        ( "fig5",
          Ise_telemetry.Json.Obj
            [ ("total", Ise_telemetry.Json.Float 3.5);
              ("ok", Ise_telemetry.Json.Bool true) ] );
        ("rows", Ise_telemetry.Json.List [ Ise_telemetry.Json.Int 7 ]) ]
  in
  Alcotest.(check (list (pair string (float 0.))))
    "flatten paths"
    [ ("b/fig5/total", 3.5); ("b/fig5/ok", 1.0); ("b/rows/0", 7.0) ]
    (Ledger.flatten_json ~prefix:"b" json)

(* ------------------------------------------------------------------ *)
(* pool crash journals                                                 *)

let test_pool_crash_journal () =
  if not Ise_pool.Pool.fork_available then ()
  else begin
    let dir = Filename.temp_file "ise_jnl" "" in
    Sys.remove dir;
    (* the poison job notes into the global recorder (spilling, because
       the pool enabled it) and then dies without warning *)
    let job i =
      if i = 1 then begin
        Recorder.note "about-to-die" ~args:[ ("i", Ise_telemetry.Json.Int i) ];
        Unix.kill (Unix.getpid ()) Sys.sigkill
      end;
      i * 2
    in
    let outcomes, _ =
      Ise_pool.Pool.map ~jobs:2 ~journal_dir:dir job
        [| 0; 1; 2 |]
    in
    (match outcomes.(1) with
     | Ise_pool.Pool.Failed (Ise_pool.Pool.Crashed reason) ->
       let marker = "journal: " in
       let at =
         let rec find i =
           if i + String.length marker > String.length reason then None
           else if String.sub reason i (String.length marker) = marker then
             Some (i + String.length marker)
           else find (i + 1)
         in
         find 0
       in
       (match at with
        | None -> Alcotest.failf "no journal path in %S" reason
        | Some start ->
          let path = String.sub reason start (String.length reason - start) in
          (match Journal.load path with
           | Error msg -> Alcotest.failf "crash journal unreadable: %s" msg
           | Ok p ->
             Alcotest.(check bool) "journal has the dying worker's note" true
               (List.exists
                  (fun (e : Ise_telemetry.Trace.event) ->
                    e.Ise_telemetry.Trace.ev_name = "about-to-die")
                  p.Journal.j_events)))
     | o ->
       Alcotest.failf "expected a crash, got %s"
         (match o with
          | Ise_pool.Pool.Done _ -> "Done"
          | Ise_pool.Pool.Failed e -> Ise_pool.Pool.error_to_string e));
    (* healthy results are unaffected *)
    Alcotest.(check bool) "other jobs fine" true
      (outcomes.(0) = Ise_pool.Pool.Done 0
      && outcomes.(2) = Ise_pool.Pool.Done 4);
    (* clean workers' journals were removed; the crash journal stays *)
    let left = Sys.readdir dir in
    Alcotest.(check bool) "only crash journals remain" true
      (Array.length left >= 1);
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) left;
    Unix.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* trace stitching                                                     *)

module Json = Ise_telemetry.Json

(* hand-built Chrome trace-event objects, so each test controls the
   clock domains exactly *)
let chrome_ev ?(ph = "i") ?(tid = 0) ?(args = []) ~name ts =
  Json.Obj
    [ ("name", Json.String name); ("cat", Json.String "fabric");
      ("ph", Json.String ph); ("ts", Json.Int ts); ("pid", Json.Int 0);
      ("tid", Json.Int tid); ("args", Json.Obj args) ]

let ctx_args ?parent span =
  (Ise_telemetry.Trace.ctx_key_span, Json.String span)
  :: (match parent with
      | Some p -> [ (Ise_telemetry.Trace.ctx_key_parent, Json.String p) ]
      | None -> [])

let doc ?role events =
  Json.Obj
    ((match role with
      | Some r -> [ ("role", Json.String r) ]
      | None -> [])
    @ [ ("traceEvents", Json.List events) ])

let sup_input =
  { Ise_obs.Stitch.in_file = "supervisor.trace.json";
    in_doc =
      doc ~role:"supervisor"
        [ chrome_ev ~ph:"B" ~name:"dispatch shard 0"
            ~args:(ctx_args "d-0") 1000;
          chrome_ev ~ph:"E" ~name:"dispatch shard 0"
            ~args:(ctx_args "d-0") 1900;
          chrome_ev ~ph:"B" ~name:"dispatch shard 1"
            ~args:(ctx_args "d-1") 2000;
          chrome_ev ~ph:"E" ~name:"dispatch shard 1"
            ~args:(ctx_args "d-1") 2900 ] }

(* this worker's clock runs 7000 us ahead; its fastest observed
   dispatch (d-1, 50 us latency) bounds the skew at 7050 *)
let worker_input =
  { Ise_obs.Stitch.in_file = "worker0.trace.json";
    in_doc =
      doc ~role:"worker"
        [ chrome_ev ~name:"receive" ~args:(ctx_args ~parent:"d-0" "w-r0")
            8100;
          chrome_ev ~ph:"B" ~name:"shard 0"
            ~args:(ctx_args ~parent:"d-0" "w-s0") 8200;
          chrome_ev ~ph:"E" ~name:"shard 0"
            ~args:(ctx_args ~parent:"d-0" "w-s0") 8500;
          chrome_ev ~name:"receive" ~args:(ctx_args ~parent:"d-1" "w-r1")
            9050 ] }

let ts_of ev = Option.bind (Json.member "ts" ev) Json.to_int
let name_of ev = Option.bind (Json.member "name" ev) Json.to_str

let stitched_events d =
  match Option.bind (Json.member "traceEvents" d) Json.to_list with
  | Some evs -> evs
  | None -> Alcotest.fail "stitched doc has no traceEvents"

let test_stitch_skew_normalization () =
  let d, infos = Ise_obs.Stitch.stitch [ worker_input; sup_input ] in
  (* supervisor first regardless of argument order, pid 0 / offset 0 *)
  (match infos with
   | [ s; w ] ->
     Alcotest.(check string) "sup role" "supervisor" s.Ise_obs.Stitch.sf_role;
     Alcotest.(check int) "sup pid" 0 s.Ise_obs.Stitch.sf_pid;
     Alcotest.(check int) "sup offset" 0 s.Ise_obs.Stitch.sf_offset_us;
     Alcotest.(check int) "worker pid" 1 w.Ise_obs.Stitch.sf_pid;
     (* min(8100-1000, 9050-2000): the tightest anchor wins *)
     Alcotest.(check int) "worker offset" 7050 w.Ise_obs.Stitch.sf_offset_us
   | _ -> Alcotest.fail "expected two file infos");
  let evs = stitched_events d in
  (* the anchoring receive lands exactly on its dispatch begin, and
     every worker event is causally after its dispatch *)
  let receive1 =
    List.find
      (fun ev ->
        name_of ev = Some "receive"
        && Option.bind (Json.member "args" ev) (fun a ->
               Option.bind
                 (Json.member Ise_telemetry.Trace.ctx_key_parent a)
                 Json.to_str)
           = Some "d-1")
      evs
  in
  Alcotest.(check (option int)) "anchor on dispatch" (Some 2000)
    (ts_of receive1);
  List.iter
    (fun ev ->
      if name_of ev = Some "shard 0" then
        match ts_of ev with
        | Some ts ->
          Alcotest.(check bool) "shard after dispatch" true (ts >= 1000)
        | None -> ())
    evs

let test_stitch_deterministic () =
  let d1, _ = Ise_obs.Stitch.stitch [ sup_input; worker_input ] in
  let d2, _ = Ise_obs.Stitch.stitch [ worker_input; sup_input ] in
  Alcotest.(check string) "byte-identical output"
    (Json.to_string d1) (Json.to_string d2)

let test_stitch_orphans () =
  let lost =
    { Ise_obs.Stitch.in_file = "worker1.trace.json";
      in_doc =
        doc ~role:"worker"
          [ chrome_ev ~ph:"B" ~name:"shard 9"
              ~args:(ctx_args ~parent:"d-gone" "w1-s9") 500 ] }
  in
  let d, _ = Ise_obs.Stitch.stitch [ sup_input; worker_input; lost ] in
  let orphan_of ev =
    Option.bind (Json.member "args" ev) (Json.member "orphan")
  in
  List.iter
    (fun ev ->
      match name_of ev with
      | Some "shard 9" ->
        (* the parent died with its process: tagged, not dropped *)
        Alcotest.(check bool) "orphan tagged" true
          (orphan_of ev = Some (Json.Bool true))
      | Some "shard 0" ->
        Alcotest.(check bool) "resolved parent untouched" true
          (orphan_of ev = None)
      | _ -> ())
    (stitched_events d)

let test_stitch_mixed_versions () =
  (* a v1/v2 worker streams nothing and writes no ctx: its file (if
     any) has no receive anchor and no parents — it must merge with
     offset 0 and no orphan tags *)
  let v1 =
    { Ise_obs.Stitch.in_file = "worker-old.trace.json";
      in_doc = doc [ chrome_ev ~ph:"B" ~name:"shard 3" 400 ] }
  in
  let d, infos = Ise_obs.Stitch.stitch [ sup_input; v1; worker_input ] in
  let old = List.find (fun f -> f.Ise_obs.Stitch.sf_file
                                = "worker-old.trace.json") infos in
  Alcotest.(check int) "no anchor, no shift" 0 old.Ise_obs.Stitch.sf_offset_us;
  List.iter
    (fun ev ->
      if name_of ev = Some "shard 3" then begin
        Alcotest.(check (option int)) "ts unshifted" (Some 400) (ts_of ev);
        Alcotest.(check bool) "no orphan tag" true
          (Option.bind (Json.member "args" ev) (Json.member "orphan") = None)
      end)
    (stitched_events d)

(* ------------------------------------------------------------------ *)
(* crash journals                                                      *)

let test_crash_dump_bounded () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ise-crash-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  (* pre-existing journals from older crashed runs, oldest first *)
  let plant name age =
    let p = Filename.concat dir name in
    let oc = open_out p in
    output_string oc "stale\n";
    close_out oc;
    let t = Unix.gettimeofday () -. age in
    Unix.utimes p t t
  in
  plant "crash-old1-1.jnl" 300.;
  plant "crash-old2-2.jnl" 200.;
  plant "crash-old3-3.jnl" 100.;
  let r = Recorder.create ~meta:[ ("kind", "test") ] () in
  Recorder.instant r ~name:"boom" ~tid:0 1;
  (match Recorder.crash_dump ~dir ~keep:2 r with
   | None -> Alcotest.fail "crash_dump failed"
   | Some path ->
     Alcotest.(check bool) "dump exists" true (Sys.file_exists path);
     (* the fresh dump decodes as a journal *)
     let ic = open_in_bin path in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     (match Journal.parse text with
      | Ok p ->
        Alcotest.(check int) "one event" 1 (List.length p.Journal.j_events)
      | Error e -> Alcotest.fail ("crash journal does not parse: " ^ e));
     let left =
       Sys.readdir dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".jnl")
       |> List.sort compare
     in
     (* pruned oldest-first down to keep=2, never the fresh dump *)
     Alcotest.(check int) "bounded count" 2 (List.length left);
     Alcotest.(check bool) "fresh dump kept" true
       (List.mem (Filename.basename path) left);
     Alcotest.(check bool) "oldest pruned" false
       (List.mem "crash-old1-1.jnl" left))

let suite =
  [ Alcotest.test_case "journal round-trip with escaping" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal tolerates a truncated tail" `Quick
      test_journal_truncated_tail;
    Alcotest.test_case "journal rejects a bad header" `Quick
      test_journal_bad_header;
    Alcotest.test_case "recorder ring bound and dump" `Quick
      test_recorder_ring_and_dump;
    Alcotest.test_case "recorder spill survives without close" `Quick
      test_recorder_spill_survives;
    Alcotest.test_case "analyzer: clean lifecycle and phase math" `Quick
      test_analyzer_clean;
    Alcotest.test_case "analyzer: lost store" `Quick test_analyzer_lost_store;
    Alcotest.test_case "analyzer: out-of-order GET" `Quick
      test_analyzer_get_order;
    Alcotest.test_case "analyzer: unordered modes accept reordering" `Quick
      test_analyzer_get_order_ok_when_unordered;
    Alcotest.test_case "analyzer: resume before resolve" `Quick
      test_analyzer_resume_before_resolve;
    Alcotest.test_case "analyzer: activity after terminate" `Quick
      test_analyzer_after_terminate;
    Alcotest.test_case "analyzer: stuck episode" `Quick
      test_analyzer_stuck_episode;
    Alcotest.test_case "analyzer: retry storm" `Quick
      test_analyzer_retry_storm;
    Alcotest.test_case "offline == online on clean runs" `Slow
      test_offline_matches_online_clean;
    Alcotest.test_case "offline == online on the dropped-GET canary" `Quick
      test_offline_matches_online_dropped_get;
    Alcotest.test_case "ledger append/load round-trip" `Quick
      test_ledger_roundtrip;
    Alcotest.test_case "compare: threshold and boundary cases" `Quick
      test_compare_boundaries;
    Alcotest.test_case "flatten_json paths" `Quick test_flatten_json;
    Alcotest.test_case "pool crash leaves a decodable journal" `Quick
      test_pool_crash_journal;
    Alcotest.test_case "crash journals are bounded" `Quick
      test_crash_dump_bounded;
    Alcotest.test_case "stitch: clock-skew normalization" `Quick
      test_stitch_skew_normalization;
    Alcotest.test_case "stitch: deterministic output" `Quick
      test_stitch_deterministic;
    Alcotest.test_case "stitch: orphan spans tagged" `Quick
      test_stitch_orphans;
    Alcotest.test_case "stitch: v1 files merge untouched" `Quick
      test_stitch_mixed_versions ]
