open Ise_litmus

type config = {
  socket_path : string;
  store_dir : string option;
  jobs : int;
  mem_entries : int;
  max_payload : int;
  log : string -> unit;
}

let default_config ~socket_path = {
  socket_path;
  store_dir = None;
  jobs = 1;
  mem_entries = 512;
  max_payload = 16 * 1024 * 1024;
  log = ignore;
}

type t = {
  cfg : config;
  framed : Framed.t;
  store : Store.t option;
  started : float;
  (* persistent worker pool shared by every litmus request: forked
     lazily at the first parallel batch, then reused — the fork cost is
     paid once per daemon, not once per request.  The job carries its
     params because the pool's function is fixed at creation. *)
  mutable pool :
    (Proto.run_params * Lit_test.t, Proto.litmus_payload) Ise_pool.Pool.t
      option;
  mutable requests : int;
  mutable litmus_runs : int;
  mutable replays : int;
  mutable errors : int;
}

(* one litmus run, the cold path — identical to `ise litmus -j 1` *)
let run_litmus params test =
  let r =
    Lit_run.run ~seeds:params.Proto.seeds
      ~inject_faults:params.Proto.inject_faults
      ~timer_interrupts:params.Proto.timer_interrupts
      ~cfg:(Proto.cfg_of_params params) test
  in
  {
    Proto.lp_line = Lit_run.summary_line r;
    lp_pass = r.Lit_run.pass && r.Lit_run.contract_ok;
  }

let create cfg =
  let framed = Framed.create ~socket_path:cfg.socket_path () in
  let store =
    Option.map
      (fun dir -> Store.open_ ~mem_entries:cfg.mem_entries ~dir ())
      cfg.store_dir
  in
  (* fork the workers before any client connects, so they inherit a
     pristine address space (no connection fds) *)
  let pool =
    if cfg.jobs > 1 && Ise_pool.Pool.fork_available then begin
      let p =
        Ise_pool.Pool.create ~jobs:cfg.jobs (fun (params, test) ->
            run_litmus params test)
      in
      Ise_pool.Pool.prespawn p;
      Some p
    end
    else None
  in
  {
    cfg;
    framed;
    store;
    started = Unix.gettimeofday ();
    pool;
    requests = 0;
    litmus_runs = 0;
    replays = 0;
    errors = 0;
  }

let store t = t.store

let store_view t =
  Option.map
    (fun s ->
      let c = Store.counters s in
      {
        Proto.v_mem_hits = c.Store.c_mem_hits;
        v_disk_hits = c.Store.c_disk_hits;
        v_misses = c.Store.c_misses;
        v_writes = c.Store.c_writes;
        v_corrupt_skipped = c.Store.c_corrupt_skipped;
        v_mem_evictions = c.Store.c_mem_evictions;
      })
    t.store

let stats t = {
  Proto.ss_pid = Unix.getpid ();
  ss_uptime_s = Unix.gettimeofday () -. t.started;
  ss_git_rev = Ise_obs.Runinfo.git_rev ();
  ss_connections = Framed.connections t.framed;
  ss_requests = t.requests;
  ss_litmus_runs = t.litmus_runs;
  ss_replays = t.replays;
  ss_errors = t.errors;
  ss_store = store_view t;
}

let request_drain t = Framed.request_drain t.framed
let install_signal_handlers t = Framed.install_signal_handlers t.framed

(* ------------------------------------------------------------------ *)
(* request handling                                                    *)

let handle_litmus t tests params =
  let lookup test =
    match t.store with
    | None -> Error (test, None)
    | Some store ->
      let key = Proto.litmus_key test params in
      (match Option.bind (Store.find store key)
               Proto.litmus_payload_of_string with
      | Some p ->
        Ok { Proto.r_line = p.Proto.lp_line; r_pass = p.Proto.lp_pass;
             r_cached = true }
      | None -> Error (test, Some key))
  in
  let slots = List.map lookup tests in
  let misses =
    List.filter_map (function Error tk -> Some tk | Ok _ -> None) slots
  in
  (* (payload, cacheable): pool failures are transient, never cached *)
  let computed =
    let run (test, _) = run_litmus params test in
    let n = List.length misses in
    t.litmus_runs <- t.litmus_runs + n;
    if n > 1 && t.cfg.jobs > 1 && Ise_pool.Pool.fork_available then begin
      let pool =
        match t.pool with
        | Some p -> p
        | None ->
          let p =
            Ise_pool.Pool.create ~jobs:t.cfg.jobs
              (fun (params, test) -> run_litmus params test)
          in
          t.pool <- Some p;
          p
      in
      let arr = Array.of_list (List.map (fun (test, _) -> (params, test)) misses) in
      let outcomes, _stats = Ise_pool.Pool.run pool arr in
      List.map2
        (fun (test, _) outcome ->
          match outcome with
          | Ise_pool.Pool.Done p -> (p, true)
          | Ise_pool.Pool.Failed err ->
            ( {
                Proto.lp_line =
                  Printf.sprintf "%-16s POOL FAILURE: %s" test.Lit_test.name
                    (Ise_pool.Pool.error_to_string err);
                lp_pass = false;
              },
              false ))
        misses (Array.to_list outcomes)
    end
    else List.map (fun m -> (run m, true)) misses
  in
  List.iter2
    (fun (_, key) ((p : Proto.litmus_payload), cacheable) ->
      match t.store, key with
      | Some store, Some key when cacheable ->
        Store.add store key (Proto.litmus_payload_to_string p)
      | _ -> ())
    misses computed;
  (* stitch cached and computed replies back into request order *)
  let rest = ref computed in
  List.map
    (function
      | Ok reply -> reply
      | Error _ ->
        let p, _ = List.hd !rest in
        rest := List.tl !rest;
        { Proto.r_line = p.Proto.lp_line; r_pass = p.Proto.lp_pass;
          r_cached = false })
    slots

let handle_replay t entry seeds =
  let cached =
    match t.store with
    | None -> None
    | Some store ->
      Option.bind
        (Store.find store (Proto.replay_key entry ~seeds))
        Proto.replay_payload_of_string
  in
  match cached with
  | Some result -> (result, true)
  | None ->
    t.replays <- t.replays + 1;
    let result = Ise_fuzz.Campaign.replay ~seeds entry in
    Option.iter
      (fun store ->
        Store.add store (Proto.replay_key entry ~seeds)
          (Proto.replay_payload_to_string result))
      t.store;
    (result, false)

(* ------------------------------------------------------------------ *)
(* connection plumbing (the generic loop lives in Framed)              *)

let send_error t conn kind msg =
  t.errors <- t.errors + 1;
  t.cfg.log (Printf.sprintf "error to client: %s (%s)"
               (Proto.err_name kind) msg);
  (try Proto.write_response (Framed.fd conn) (Proto.Error (kind, msg))
   with Unix.Unix_error _ | Sys_error _ -> ());
  Framed.close_conn t.framed conn

let send t conn resp =
  try Proto.write_response (Framed.fd conn) resp
  with Unix.Unix_error _ | Sys_error _ -> Framed.close_conn t.framed conn

let handle_request t conn (req : Proto.request) =
  t.requests <- t.requests + 1;
  match req with
  | Proto.Hello { git_rev = _ } ->
    Framed.mark_hello conn;
    send t conn (Proto.Hello_ok { git_rev = Ise_obs.Runinfo.git_rev () })
  | _ when not (Framed.hello_done conn) ->
    send_error t conn Proto.Bad_request "first request must be Hello"
  | Proto.Litmus { tests; params } -> (
    match handle_litmus t tests params with
    | replies -> send t conn (Proto.Litmus_done replies)
    | exception e ->
      send_error t conn Proto.Internal (Printexc.to_string e))
  | Proto.Fuzz_replay { entry; seeds } -> (
    match handle_replay t entry seeds with
    | result, cached -> send t conn (Proto.Replay_done { result; cached })
    | exception e ->
      send_error t conn Proto.Internal (Printexc.to_string e))
  | Proto.Stats_req -> send t conn (Proto.Stats (stats t))
  | Proto.Shutdown ->
    send t conn Proto.Shutting_down;
    t.cfg.log "shutdown requested by client";
    request_drain t

let serve_forever t =
  t.cfg.log (Printf.sprintf "listening on %s (pid %d)" t.cfg.socket_path
               (Unix.getpid ()));
  Framed.serve t.framed ~proto:Proto.version ~max_payload:t.cfg.max_payload
    ~error:(fun conn kind msg -> send_error t conn kind msg)
    ~request:(fun conn payload ->
      match (Ise_pool.Codec.unseal payload : Proto.request option) with
      | Some req -> handle_request t conn req
      | None ->
        send_error t conn Proto.Malformed_frame
          "request payload does not decode")
    ~on_drained:(fun () ->
      (match t.pool with
       | Some p ->
         Ise_pool.Pool.close p;
         t.pool <- None
       | None -> ());
      t.cfg.log "drained; bye")

let run cfg =
  let t = create cfg in
  install_signal_handlers t;
  serve_forever t
