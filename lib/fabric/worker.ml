open Ise_fuzz
module Framed = Ise_serve.Framed
module Trace = Ise_telemetry.Trace
module Json = Ise_telemetry.Json

type config = {
  socket_path : string;
  max_payload : int;
  trace_out : string option;
  log : string -> unit;
}

let default_config ~socket_path = {
  socket_path;
  max_payload = 64 * 1024 * 1024;
  trace_out = None;
  log = ignore;
}

(* The daemon memoizes the regenerated fuzz test stream per spec
   fingerprint: a campaign's generation cost is paid once per worker,
   not once per shard.  Chaos campaigns need no memo — trials are
   self-contained. *)
let memo : (string * Ise_litmus.Lit_test.t array) option ref = ref None

let tests_for spec =
  let fp = Wire.spec_fp spec in
  match !memo with
  | Some (fp', tests) when fp' = fp -> tests
  | _ ->
    let tests = Campaign.tests_of_spec spec in
    memo := Some (fp, tests);
    tests

let check campaign ~lo ~hi : Wire.shard_payload =
  match campaign with
  | Wire.Fuzz spec ->
    Wire.Fuzz_raw (Campaign.check_range spec ~tests:(tests_for spec) ~lo ~hi)
  | Wire.Chaos cs ->
    Wire.Chaos_reports (Ise_chaos.Chaos_run.check_range cs ~lo ~hi)

type t = {
  cfg : config;
  framed : Framed.t;
  started : float;
  trace : Trace.t;  (* wall-clock µs shard spans, written to trace_out *)
  mutable campaign : Wire.campaign option;
  mutable shards_run : int;
  mutable pings : int;
  mutable errors : int;
}

let create cfg =
  {
    cfg;
    framed = Framed.create ~socket_path:cfg.socket_path ();
    started = Unix.gettimeofday ();
    trace = Trace.create ();
    campaign = None;
    shards_run = 0;
    pings = 0;
    errors = 0;
  }

let request_drain t = Framed.request_drain t.framed
let install_signal_handlers t = Framed.install_signal_handlers t.framed

let stats t = {
  Wire.ws_pid = Unix.getpid ();
  ws_shards_run = t.shards_run;
  ws_pings = t.pings;
  ws_uptime_s = Unix.gettimeofday () -. t.started;
}

let send t conn resp =
  try Wire.write_response (Framed.fd conn) resp
  with Unix.Unix_error _ | Sys_error _ -> Framed.close_conn t.framed conn

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Atomic (tmp + rename) so a reader — or the stitcher — never sees a
   torn file, and written after *every* shard because a simulated
   worker dies by SIGKILL: the last drain is not guaranteed to run. *)
let flush_trace t =
  match t.cfg.trace_out with
  | None -> ()
  | Some path ->
    let doc =
      Trace.to_chrome_json
        ~meta:
          (("role", Json.String "worker")
           :: ("pid", Json.Int (Unix.getpid ()))
           :: Ise_obs.Runinfo.stamp ())
        t.trace
    in
    let tmp = path ^ ".tmp" in
    (try
       let oc = open_out_bin tmp in
       output_string oc (Json.to_string doc);
       close_out oc;
       Sys.rename tmp path
     with Sys_error _ -> ())

let send_error t conn kind msg =
  t.errors <- t.errors + 1;
  t.cfg.log (Printf.sprintf "error to supervisor: %s (%s)"
               (Framed.err_name kind) msg);
  (try Wire.write_response (Framed.fd conn) (Wire.Error (kind, msg))
   with Unix.Unix_error _ | Sys_error _ -> ());
  Framed.close_conn t.framed conn

(* One shard, checked in-process.  A raising check (a bad range
   included) fails the shard — the supervisor's retry and loss policy
   handles it — and leaves the connection open. *)
let run_shard t campaign (j : Wire.job) =
  (* Shard span, parented under the supervisor's dispatch span when the
     job carries a context.  The "receive" instant is the stitcher's
     clock anchor: its (wall-clock) timestamp pairs with the dispatch
     span's begin on the supervisor side. *)
  let ctx =
    match j.Wire.j_ctx with
    | None -> None
    | Some (trace_id, dispatch_span) ->
      let span_id =
        Printf.sprintf "w%d-s%d-%d" (Unix.getpid ()) j.Wire.j_shard
          t.shards_run
      in
      Some
        { Trace.trace_id; span_id; parent_span_id = Some dispatch_span }
  in
  let span_name = Printf.sprintf "shard %d" j.Wire.j_shard in
  (match ctx with
   | None -> ()
   | Some c ->
     let now = now_us () in
     Trace.instant t.trace ~cat:"fabric" ~ctx:c ~name:"receive" ~tid:0 now;
     Trace.span_begin t.trace ~cat:"fabric"
       ~args:[ ("lo", Json.Int j.Wire.j_lo); ("hi", Json.Int j.Wire.j_hi) ]
       ~ctx:c ~name:span_name ~tid:0 now);
  let result =
    try Ok (check campaign ~lo:j.Wire.j_lo ~hi:j.Wire.j_hi)
    with e -> Error (Printexc.to_string e)
  in
  (match ctx with
   | None -> ()
   | Some c ->
     Trace.span_end t.trace ~cat:"fabric" ~ctx:c ~name:span_name ~tid:0
       (now_us ());
     flush_trace t);
  match result with
  | Error reason -> Wire.Shard_failed { shard = j.Wire.j_shard; reason }
  | Ok payload ->
    t.shards_run <- t.shards_run + 1;
    Wire.Shard_done
      { sr_shard = j.Wire.j_shard; sr_lo = j.Wire.j_lo; sr_hi = j.Wire.j_hi;
        sr_payload = payload }

let handle_request t conn (req : Wire.request) =
  match req with
  | Wire.Hello { git_rev = _ } ->
    Framed.mark_hello conn;
    send t conn
      (Wire.Hello_ok
         { git_rev = Ise_obs.Runinfo.git_rev (); pid = Unix.getpid () })
  | _ when not (Framed.hello_done conn) ->
    send_error t conn Framed.Bad_request "first request must be Hello"
  | Wire.Set_spec campaign -> (
    (* regenerating the stream / resolving the profiles validates the
       campaign's parameters before any Run is accepted *)
    let validated =
      match campaign with
      | Wire.Fuzz spec -> (
        match tests_for spec with
        | _tests ->
          Ok
            (Printf.sprintf "fuzz spec set: seed %d, %d tests"
               spec.Campaign.s_seed spec.Campaign.s_count)
        | exception e -> Error ("spec rejected: " ^ Printexc.to_string e))
      | Wire.Chaos cs -> (
        match Ise_chaos.Chaos_run.spec_profiles cs with
        | Ok _ ->
          Ok
            (Printf.sprintf "chaos spec set: seed %d, %d trials"
               cs.Ise_chaos.Chaos_run.cs_seed
               cs.Ise_chaos.Chaos_run.cs_trials)
        | Error msg -> Error ("spec rejected: " ^ msg))
    in
    match validated with
    | Ok msg ->
      t.campaign <- Some campaign;
      t.cfg.log msg;
      send t conn Wire.Spec_ok
    | Error msg -> send_error t conn Framed.Bad_request msg)
  | Wire.Ping token ->
    t.pings <- t.pings + 1;
    send t conn (Wire.Pong token)
  | Wire.Run j -> (
    match t.campaign with
    | None ->
      send_error t conn Framed.Bad_request "Run before Set_spec"
    | Some campaign ->
      t.cfg.log
        (Printf.sprintf "shard %d: units [%d, %d)" j.Wire.j_shard
           j.Wire.j_lo j.Wire.j_hi);
      match run_shard t campaign j with
      | resp -> send t conn resp
      | exception e ->
        send_error t conn Framed.Internal (Printexc.to_string e))
  | Wire.Worker_stats_req -> send t conn (Wire.Worker_stats (stats t))
  | Wire.Shutdown ->
    send t conn Wire.Shutting_down;
    t.cfg.log "shutdown requested by supervisor";
    request_drain t

let serve_forever t =
  t.cfg.log (Printf.sprintf "fabric worker on %s (pid %d, proto v%d)"
               t.cfg.socket_path (Unix.getpid ()) Wire.version);
  Framed.serve t.framed ~proto:Wire.version ~max_payload:t.cfg.max_payload
    ~error:(fun conn kind msg -> send_error t conn kind msg)
    ~request:(fun conn payload ->
      match (Ise_pool.Codec.unseal payload : Wire.request option) with
      | Some req -> handle_request t conn req
      | None ->
        send_error t conn Framed.Malformed_frame
          "request payload does not decode")
    ~on_drained:(fun () ->
      flush_trace t;
      t.cfg.log "drained; bye")

let run cfg =
  let t = create cfg in
  install_signal_handlers t;
  serve_forever t
