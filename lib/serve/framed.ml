module Codec = Ise_pool.Codec

type err_kind =
  | Unsupported_proto
  | Bad_request
  | Frame_too_large
  | Malformed_frame
  | Internal

let err_name = function
  | Unsupported_proto -> "unsupported-proto"
  | Bad_request -> "bad-request"
  | Frame_too_large -> "frame-too-large"
  | Malformed_frame -> "malformed-frame"
  | Internal -> "internal"

type conn = {
  c_fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (* valid bytes at the front of [buf] *)
  mutable hello_done : bool;
  mutable closed : bool;
}

let fd c = c.c_fd
let closed c = c.closed
let hello_done c = c.hello_done
let mark_hello c = c.hello_done <- true

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  mutable draining : bool;
  mutable connections : int;
}

(* Stale-socket hygiene: an existing socket file may belong to a live
   daemon (a probe connect succeeds — refuse to steal its address) or
   to a dead predecessor that never got to unlink (SIGKILL, power loss
   — the probe is refused, so replacing the file is safe). *)
let probe_stale socket_path =
  if Sys.file_exists socket_path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX socket_path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", socket_path));
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  end

let create ~socket_path () =
  probe_stale socket_path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 16;
  { socket_path; listen_fd = fd; conns = []; draining = false;
    connections = 0 }

let connections t = t.connections
let draining t = t.draining
let request_drain t = t.draining <- true

let install_signal_handlers t =
  let drain = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm drain;
  Sys.set_signal Sys.sigint drain;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ())

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

(* Peel complete frames off the connection buffer; stop on Need_more,
   hand anything corrupt to [error] as a typed kind (the callback sends
   the error frame and closes the connection). *)
let drain_frames conn ~proto ~max_payload ~error ~request =
  let continue = ref true in
  while !continue && not conn.closed do
    match Codec.decode ~max_payload conn.buf ~pos:0 ~len:conn.len with
    | Codec.Need_more -> continue := false
    | Codec.Corrupt (Codec.Oversized n) ->
      error conn Frame_too_large
        (Printf.sprintf "claimed payload of %d bytes exceeds the %d-byte cap"
           n max_payload)
    | Codec.Corrupt (Codec.Unsupported_version v) ->
      error conn Unsupported_proto
        (Printf.sprintf "unsupported frame version %d" v)
    | Codec.Corrupt e ->
      error conn Malformed_frame (Codec.error_to_string e)
    | Codec.Frame { payload; proto = got; consumed } ->
      Bytes.blit conn.buf consumed conn.buf 0 (conn.len - consumed);
      conn.len <- conn.len - consumed;
      if got <> proto then
        error conn Unsupported_proto
          (Printf.sprintf "frame protocol byte %d, daemon speaks v%d" got
             proto)
      else request conn payload
  done

let read_chunk = Bytes.create 65536

let handle_readable t conn ~proto ~max_payload ~error ~request =
  match Unix.read conn.c_fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> close_conn t conn (* clean EOF *)
  | n ->
    if conn.len + n > Bytes.length conn.buf then begin
      let cap = max (conn.len + n) (2 * Bytes.length conn.buf) in
      let bigger = Bytes.create cap in
      Bytes.blit conn.buf 0 bigger 0 conn.len;
      conn.buf <- bigger
    end;
    Bytes.blit read_chunk 0 conn.buf conn.len n;
    conn.len <- conn.len + n;
    drain_frames conn ~proto ~max_payload ~error ~request
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn t conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let accept t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    Unix.set_close_on_exec fd;
    t.connections <- t.connections + 1;
    t.conns <-
      { c_fd = fd; buf = Bytes.create 4096; len = 0; hello_done = false;
        closed = false }
      :: t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let serve ?(tick = fun () -> ()) t ~proto ~max_payload ~error ~request
    ~on_drained =
  while not t.draining do
    let fds = t.listen_fd :: List.map (fun c -> c.c_fd) t.conns in
    (match Unix.select fds [] [] 1.0 with
     | readable, _, _ ->
       List.iter
         (fun fd ->
           if t.draining then ()
           else if fd = t.listen_fd then accept t
           else
             match List.find_opt (fun c -> c.c_fd = fd) t.conns with
             | Some conn ->
               handle_readable t conn ~proto ~max_payload ~error ~request
             | None -> ())
         readable
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if not t.draining then tick ()
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  on_drained ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ())
