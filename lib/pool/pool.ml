type error =
  | Crashed of string
  | Exception of string
  | Cancelled

let error_to_string = function
  | Crashed s -> "worker crashed: " ^ s
  | Exception s -> "raised: " ^ s
  | Cancelled -> "cancelled (drain)"

type 'r outcome = Done of 'r | Failed of error

type stats = {
  st_jobs : int;
  st_workers : int;
  st_dispatched : int;
  st_completed : int;
  st_retried : int;
  st_crashes : int;
  st_cancelled : int;
  st_spawned : int;
  st_wall_s : float;
}

let zero_stats =
  {
    st_jobs = 0;
    st_workers = 0;
    st_dispatched = 0;
    st_completed = 0;
    st_retried = 0;
    st_crashes = 0;
    st_cancelled = 0;
    st_spawned = 0;
    st_wall_s = 0.;
  }

let fork_available = Sys.unix

(* The one failure policy: a crashed job is re-dispatched at most
   [max_retries] times, the first after [backoff_s], doubling. *)
let max_retries = 2
let backoff_s = 0.05

let nproc () =
  try
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 1 in
    ignore (Unix.close_process_in ic);
    max 1 n
  with _ -> 1

let default_jobs () =
  if not fork_available then 1
  else
    match Domain.recommended_domain_count () with
    | n when n >= 1 -> n
    | _ -> nproc ()
    | exception _ -> nproc ()

(* ------------------------------------------------------------------ *)
(* telemetry                                                           *)

type tele = {
  reg : Ise_telemetry.Registry.t;
  trace : Ise_telemetry.Trace.t;
  c_dispatched : Ise_telemetry.Registry.counter;
  c_completed : Ise_telemetry.Registry.counter;
  c_retried : Ise_telemetry.Registry.counter;
  c_crashes : Ise_telemetry.Registry.counter;
  c_spawned : Ise_telemetry.Registry.counter;
  t_start : float;
}

let make_tele t_start sink =
  let reg = Ise_telemetry.Sink.registry sink in
  let c = Ise_telemetry.Registry.counter reg in
  {
    reg;
    trace = Ise_telemetry.Sink.trace sink;
    c_dispatched = c "pool/dispatched";
    c_completed = c "pool/completed";
    c_retried = c "pool/retried";
    c_crashes = c "pool/crashes";
    c_spawned = c "pool/workers_spawned";
    t_start;
  }

let us t = int_of_float ((Unix.gettimeofday () -. t.t_start) *. 1e6)
let job_name idx = "job" ^ string_of_int idx

let span_begin tele ~slot idx =
  Option.iter
    (fun t ->
      Ise_telemetry.Trace.span_begin t.trace ~cat:"pool" ~name:(job_name idx)
        ~tid:slot (us t))
    tele

let span_end tele ~slot idx =
  Option.iter
    (fun t ->
      Ise_telemetry.Trace.span_end t.trace ~cat:"pool" ~name:(job_name idx)
        ~tid:slot (us t))
    tele

let worker_hist tele slot =
  Option.map
    (fun t ->
      Ise_telemetry.Registry.histogram t.reg
        (Printf.sprintf "pool/worker%d/job_ms" slot))
    tele

let count c tele = Option.iter (fun t -> Ise_telemetry.Registry.incr (c t)) tele

(* ------------------------------------------------------------------ *)
(* in-process path (-j 1, and platforms without fork)                  *)

let run_inline ~telemetry ~on_result f items =
  let t0 = Unix.gettimeofday () in
  let tele = Option.map (make_tele t0) telemetry in
  Option.iter
    (fun t ->
      Ise_telemetry.Registry.add
        (Ise_telemetry.Registry.counter t.reg "pool/jobs")
        (Array.length items))
    tele;
  let hist = worker_hist tele 0 in
  let completed = ref 0 in
  let results =
    Array.mapi
      (fun idx item ->
        count (fun t -> t.c_dispatched) tele;
        span_begin tele ~slot:0 idx;
        let started = Unix.gettimeofday () in
        let out =
          match f item with
          | r -> Done r
          | exception e -> Failed (Exception (Printexc.to_string e))
        in
        incr completed;
        count (fun t -> t.c_completed) tele;
        Option.iter
          (fun h ->
            Ise_util.Stats.add h ((Unix.gettimeofday () -. started) *. 1e3))
          hist;
        span_end tele ~slot:0 idx;
        (match on_result with Some cb -> cb idx out | None -> ());
        out)
      items
  in
  ( results,
    {
      zero_stats with
      st_jobs = Array.length items;
      st_workers = 1;
      st_dispatched = Array.length items;
      st_completed = !completed;
      st_wall_s = Unix.gettimeofday () -. t0;
    } )

(* ------------------------------------------------------------------ *)
(* forked pool                                                         *)

type running = { r_idx : int; r_started : float }

type worker = {
  w_slot : int;
  mutable w_pid : int;
  mutable w_req : Unix.file_descr;  (* parent writes jobs *)
  mutable w_resp : Unix.file_descr;  (* parent reads results *)
  mutable w_buf : string;  (* bytes read but not yet framed *)
  mutable w_job : running option;
  mutable w_alive : bool;
}

(* A persistent pool handle: configuration plus the (lazily spawned)
   worker set.  Workers survive across [run] calls — fork cost is paid
   once per worker, not once per batch, which is what lets campaign
   fan-out and the serve daemon amortize process startup. *)
type ('a, 'r) t = {
  p_jobs : int;
  p_telemetry : Ise_telemetry.Sink.t option;
  p_journal_dir : string option;
  p_f : 'a -> 'r;
  p_workers : worker array;  (* length p_jobs; spawned on demand *)
  mutable p_spawned : int;  (* total forks over the handle's lifetime *)
  mutable p_closed : bool;
}

(* Child side: one frame in, one frame out, forever.  The job function
   runs here; an exception it raises is a *result* (deterministic, so
   the supervisor must not retry it), while a crash of the process is
   detected by the supervisor as EOF.  SIGINT is ignored so a
   terminal's Ctrl-C (delivered to the whole foreground process group)
   leaves the drain decision to the supervisor.  Between batches a
   persistent worker simply blocks in [read_frame]. *)
let worker_loop req resp f =
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  let rec loop () =
    match Codec.read_frame req with
    | Error `Eof -> Unix._exit 0
    | Error (`Corrupt _) -> Unix._exit 102
    | Ok payload ->
      let idx, job = Codec.unmarshal payload in
      (* no-ops unless the supervisor enabled a journal for this child *)
      Ise_obs.Recorder.note "pool/job"
        ~args:[ ("idx", Ise_telemetry.Json.Int idx) ];
      let res =
        match f job with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      Ise_obs.Recorder.note "pool/job-end"
        ~args:[ ("idx", Ise_telemetry.Json.Int idx) ];
      (try Codec.write_frame resp (Codec.marshal (idx, res))
       with _ -> Unix._exit 103);
      loop ()
  in
  loop ()

(* Crash journals: with [journal_dir], every forked worker enables the
   process-global flight recorder with a per-(slot, pid) spill file in
   that directory; each journal line is flushed as it is written, so
   when a worker dies (crash, second-SIGINT kill) the supervisor finds a
   decodable journal tail on disk and names it in the error.  Journals
   of workers that shut down cleanly are removed. *)
let journal_file dir ~slot ~pid =
  Filename.concat dir (Printf.sprintf "worker%d-%d.jnl" slot pid)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let spawn_worker p tele w =
  (* flush so forked children don't re-flush inherited buffers *)
  flush stdout;
  flush stderr;
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    (match p.p_journal_dir with
     | None -> ()
     | Some dir -> (
       try
         ignore
           (Ise_obs.Recorder.enable ~capacity:1024
              ~spill:(journal_file dir ~slot:w.w_slot ~pid:(Unix.getpid ()))
              ~meta:
                (Ise_obs.Runinfo.stamp_meta ()
                @ [ ("kind", "pool-worker");
                    ("slot", string_of_int w.w_slot) ])
              ())
       with Sys_error _ -> ()));
    (* drop the parent ends of every other live worker's pipes, so a
       crashed sibling's EOF is seen by the supervisor alone *)
    Array.iter
      (fun w' ->
        if w'.w_alive then begin
          (try Unix.close w'.w_req with Unix.Unix_error _ -> ());
          try Unix.close w'.w_resp with Unix.Unix_error _ -> ()
        end)
      p.p_workers;
    (try worker_loop req_r resp_w p.p_f with _ -> ());
    Unix._exit 104
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    w.w_pid <- pid;
    w.w_req <- req_w;
    w.w_resp <- resp_r;
    w.w_buf <- "";
    w.w_job <- None;
    w.w_alive <- true;
    p.p_spawned <- p.p_spawned + 1;
    count (fun t -> t.c_spawned) tele

let shutdown_worker p w =
  (* orderly shutdown: EOF on the job pipe makes the worker exit 0 — a
     cleanly-exited worker's crash journal carries no information *)
  if w.w_alive then begin
    (try Unix.close w.w_req with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    (try Unix.close w.w_resp with Unix.Unix_error _ -> ());
    (match p.p_journal_dir with
     | Some dir -> (
       try Sys.remove (journal_file dir ~slot:w.w_slot ~pid:w.w_pid)
       with Sys_error _ -> ())
     | None -> ());
    w.w_alive <- false
  end

let kill_worker w =
  if w.w_alive then begin
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    (try Unix.close w.w_req with Unix.Unix_error _ -> ());
    (try Unix.close w.w_resp with Unix.Unix_error _ -> ());
    w.w_alive <- false
  end

(* One batch over the (persistent) worker set.  [persist] keeps the
   workers alive on normal return; an exception still tears them down. *)
let run_forked ~persist ~on_result p items =
  let n = Array.length items in
  let t0 = Unix.gettimeofday () in
  let tele = Option.map (make_tele t0) p.p_telemetry in
  Option.iter
    (fun t ->
      Ise_telemetry.Registry.add
        (Ise_telemetry.Registry.counter t.reg "pool/jobs")
        n)
    tele;
  let spawned0 = p.p_spawned in
  (* use at most [n] workers this batch; extra persistent workers (from
     an earlier, larger batch) stay parked with no job *)
  let nw = min p.p_jobs n in
  let workers = Array.sub p.p_workers 0 nw in
  let hists = Array.init nw (fun slot -> worker_hist tele slot) in
  let dispatched = ref 0
  and completed = ref 0
  and retried = ref 0
  and crashes = ref 0
  and cancelled = ref 0 in
  let results = Array.make n None in
  let attempts = Array.make n 0 in
  let pending = Queue.create () in
  for i = 0 to n - 1 do
    Queue.add i pending
  done;
  let retries = ref [] in
  (* (eligible_time, idx), ascending *)
  let sigints = ref 0 in
  let interrupted () = !sigints > 0 in
  let drained = ref false in
  let filled = ref 0 in
  let emit = ref 0 in
  let complete idx out =
    if Option.is_none results.(idx) then begin
      results.(idx) <- Some out;
      incr filled;
      (match out with Failed Cancelled -> incr cancelled | _ -> ());
      match on_result with
      | None -> ()
      | Some cb ->
        while !emit < n && Option.is_some results.(!emit) do
          (match results.(!emit) with Some o -> cb !emit o | None -> ());
          incr emit
        done
    end
  in
  let spawn w = spawn_worker p tele w in
  let work_queued () = (not (Queue.is_empty pending)) || !retries <> [] in
  let schedule_retry now idx =
    incr retried;
    count (fun t -> t.c_retried) tele;
    let delay = backoff_s *. (2. ** float_of_int (attempts.(idx) - 1)) in
    retries :=
      List.merge
        (fun (a, _) (b, _) -> compare a b)
        !retries
        [ (now +. delay, idx) ]
  in
  let handle_death w ~now reason =
    let journal =
      match p.p_journal_dir with
      | Some dir when Sys.file_exists (journal_file dir ~slot:w.w_slot ~pid:w.w_pid)
        -> Some (journal_file dir ~slot:w.w_slot ~pid:w.w_pid)
      | _ -> None
    in
    let status =
      match Unix.waitpid [] w.w_pid with
      | _, st -> status_string st
      | exception Unix.Unix_error _ -> "unreaped"
    in
    (try Unix.close w.w_req with Unix.Unix_error _ -> ());
    (try Unix.close w.w_resp with Unix.Unix_error _ -> ());
    w.w_alive <- false;
    w.w_buf <- "";
    (match w.w_job with
     | None -> ()
     | Some r ->
       w.w_job <- None;
       span_end tele ~slot:w.w_slot r.r_idx;
       incr crashes;
       count (fun t -> t.c_crashes) tele;
       if (not (interrupted ())) && attempts.(r.r_idx) <= max_retries then
         schedule_retry now r.r_idx
       else
         complete r.r_idx
           (Failed
              (Crashed
                 (Printf.sprintf "%s (%s)%s" reason status
                    (match journal with
                     | Some path -> "; journal: " ^ path
                     | None -> "")))));
    if (not (interrupted ())) && work_queued () then spawn w
  in
  let next_job now =
    if interrupted () then None
    else
      match !retries with
      | (t, idx) :: rest when t <= now ->
        retries := rest;
        Some idx
      | _ -> Queue.take_opt pending
  in
  let dispatch w ~now idx =
    attempts.(idx) <- attempts.(idx) + 1;
    w.w_job <- Some { r_idx = idx; r_started = now };
    incr dispatched;
    count (fun t -> t.c_dispatched) tele;
    span_begin tele ~slot:w.w_slot idx;
    try Codec.write_frame w.w_req (Codec.marshal (idx, items.(idx)))
    with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
      handle_death w ~now "dispatch write failed"
  in
  let handle_result w ~now payload =
    let idx, res = Codec.unmarshal payload in
    (match w.w_job with
     | Some r when r.r_idx = idx ->
       w.w_job <- None;
       Option.iter
         (fun h -> Ise_util.Stats.add h ((now -. r.r_started) *. 1e3))
         hists.(w.w_slot);
       span_end tele ~slot:w.w_slot idx
     | _ -> ());
    incr completed;
    count (fun t -> t.c_completed) tele;
    complete idx
      (match res with Ok r -> Done r | Error e -> Failed (Exception e))
  in
  let handle_readable w ~now =
    let chunk = Bytes.create 65536 in
    match Unix.read w.w_resp chunk 0 65536 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | 0 -> handle_death w ~now "EOF on result pipe"
    | k -> (
      let data = w.w_buf ^ Bytes.sub_string chunk 0 k in
      let total = String.length data in
      let bytes = Bytes.unsafe_of_string data in
      let pos = ref 0 in
      let corrupt = ref None in
      let parsing = ref true in
      while !parsing do
        match Codec.decode bytes ~pos:!pos ~len:(total - !pos) with
        | Codec.Frame { payload = frame; consumed = used; _ } ->
          handle_result w ~now frame;
          pos := !pos + used
        | Codec.Need_more -> parsing := false
        | Codec.Corrupt e ->
          corrupt := Some e;
          parsing := false
      done;
      match !corrupt with
      | Some e ->
        (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        handle_death w ~now ("corrupt result frame: " ^ Codec.error_to_string e)
      | None -> w.w_buf <- String.sub data !pos (total - !pos))
  in
  let select_timeout now =
    match !retries with
    | (t, _) :: _ -> Float.min 0.25 (Float.max 0.005 (t -. now))
    | [] -> 0.25
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> incr sigints))
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    Sys.set_signal Sys.sigint prev_int;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  let batch () =
    Array.iter (fun w -> if not w.w_alive then spawn w) workers;
    while !filled < n do
      let now = Unix.gettimeofday () in
      if interrupted () && not !drained then begin
        (* graceful drain: nothing new is dispatched, queued jobs are
           reported Cancelled, in-flight jobs are awaited below *)
        drained := true;
        let rec flush_pending () =
          match Queue.take_opt pending with
          | Some idx ->
            complete idx (Failed Cancelled);
            flush_pending ()
          | None -> ()
        in
        flush_pending ();
        List.iter (fun (_, idx) -> complete idx (Failed Cancelled)) !retries;
        retries := []
      end;
      if !sigints >= 2 then
        (* impatient drain: a second SIGINT abandons in-flight jobs *)
        Array.iter
          (fun w ->
            if w.w_alive && Option.is_some w.w_job then
              try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ())
          workers;
      Array.iter
        (fun w ->
          if w.w_alive && Option.is_none w.w_job then
            match next_job now with Some idx -> dispatch w ~now idx | None -> ())
        workers;
      if !filled < n then begin
        if
          (not (interrupted ()))
          && work_queued ()
          && not (Array.exists (fun w -> w.w_alive) workers)
        then spawn workers.(0);
        let fds =
          Array.fold_left
            (fun acc w -> if w.w_alive then w.w_resp :: acc else acc)
            [] workers
        in
        if fds = [] then Unix.sleepf 0.005
        else
          match Unix.select fds [] [] (select_timeout now) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
            let now = Unix.gettimeofday () in
            List.iter
              (fun fd ->
                match
                  Array.find_opt
                    (fun w -> w.w_alive && w.w_resp = fd)
                    workers
                with
                | Some w -> handle_readable w ~now
                | None -> ())
              ready
      end
    done;
    (* after SIGINT the workers have been drained; keeping them would
       leak a pool the caller is about to abandon *)
    if (not persist) || interrupted () then
      Array.iter (shutdown_worker p) workers
  in
  (match batch () with
   | () -> restore_signals ()
   | exception e ->
     Array.iter kill_worker p.p_workers;
     restore_signals ();
     raise e);
  ( Array.map (function Some o -> o | None -> Failed Cancelled) results,
    {
      st_jobs = n;
      st_workers = nw;
      st_dispatched = !dispatched;
      st_completed = !completed;
      st_retried = !retried;
      st_crashes = !crashes;
      st_cancelled = !cancelled;
      st_spawned = p.p_spawned - spawned0;
      st_wall_s = Unix.gettimeofday () -. t0;
    } )

(* ------------------------------------------------------------------ *)
(* persistent handles                                                  *)

let create ?jobs ?telemetry ?journal_dir f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  Option.iter mkdir_p journal_dir;
  {
    p_jobs = jobs;
    p_telemetry = telemetry;
    p_journal_dir = journal_dir;
    p_f = f;
    p_workers =
      Array.init jobs (fun slot ->
          {
            w_slot = slot;
            w_pid = -1;
            w_req = Unix.stdin;
            w_resp = Unix.stdin;
            w_buf = "";
            w_job = None;
            w_alive = false;
          });
    p_spawned = 0;
    p_closed = false;
  }

let close p =
  if not p.p_closed then begin
    Array.iter (shutdown_worker p) p.p_workers;
    p.p_closed <- true
  end

let prespawn p =
  if p.p_closed then invalid_arg "Pool.prespawn: closed pool";
  if p.p_jobs > 1 && fork_available then begin
    let tele = Option.map (make_tele (Unix.gettimeofday ())) p.p_telemetry in
    Array.iter
      (fun w -> if not w.w_alive then spawn_worker p tele w)
      p.p_workers
  end

let alive_workers p =
  Array.fold_left (fun acc w -> if w.w_alive then acc + 1 else acc) 0 p.p_workers

let run ?on_result p items =
  if p.p_closed then invalid_arg "Pool.run: closed pool";
  if Array.length items = 0 then ([||], zero_stats)
  else if p.p_jobs <= 1 || not fork_available then
    run_inline ~telemetry:p.p_telemetry ~on_result p.p_f items
  else run_forked ~persist:true ~on_result p items

let with_pool ?jobs ?telemetry ?journal_dir f k =
  let p = create ?jobs ?telemetry ?journal_dir f in
  Fun.protect ~finally:(fun () -> close p) (fun () -> k p)

(* ------------------------------------------------------------------ *)
(* one-shot batches                                                    *)

let map ?jobs ?telemetry ?on_result ?journal_dir f items =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if Array.length items = 0 then ([||], zero_stats)
  else if jobs <= 1 || not fork_available then
    run_inline ~telemetry ~on_result f items
  else begin
    let p = create ~jobs ?telemetry ?journal_dir f in
    Fun.protect
      ~finally:(fun () -> close p)
      (fun () -> run_forked ~persist:false ~on_result p items)
  end
