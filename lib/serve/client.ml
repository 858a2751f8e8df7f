type t = { fd : Unix.file_descr }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t req =
  match Proto.write_request t.fd req with
  | () -> Proto.read_response t.fd
  | exception Unix.Unix_error (e, _, _) ->
    Error ("cannot reach daemon: " ^ Unix.error_message e)

let connect ?(retries = 0) path =
  let rec attempt n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec fd;
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if n > 0 then begin
        (* daemon may still be starting up *)
        ignore (Unix.select [] [] [] 0.1);
        attempt (n - 1)
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
  in
  match attempt retries with
  | Error _ as e -> e
  | Ok t -> (
    match
      rpc t (Proto.Hello { git_rev = Ise_obs.Runinfo.git_rev () })
    with
    | Ok (Proto.Hello_ok _) -> Ok t
    | Ok (Proto.Error (kind, msg)) ->
      close t;
      Error (Printf.sprintf "daemon refused hello: %s (%s)"
               (Proto.err_name kind) msg)
    | Ok _ ->
      close t;
      Error "daemon sent an unexpected hello response"
    | Error msg ->
      close t;
      Error msg)

let litmus t ~tests ~params =
  match rpc t (Proto.Litmus { tests; params }) with
  | Ok (Proto.Litmus_done replies) -> Ok replies
  | Ok (Proto.Error (kind, msg)) ->
    Error (Printf.sprintf "%s (%s)" (Proto.err_name kind) msg)
  | Ok _ -> Error "unexpected response to litmus request"
  | Error _ as e -> e

let server_stats t =
  match rpc t Proto.Stats_req with
  | Ok (Proto.Stats s) -> Ok s
  | Ok (Proto.Error (kind, msg)) ->
    Error (Printf.sprintf "%s (%s)" (Proto.err_name kind) msg)
  | Ok _ -> Error "unexpected response to stats request"
  | Error _ as e -> e

let shutdown t =
  match rpc t Proto.Shutdown with
  | Ok Proto.Shutting_down -> Ok ()
  | Ok (Proto.Error (kind, msg)) ->
    Error (Printf.sprintf "%s (%s)" (Proto.err_name kind) msg)
  | Ok _ -> Error "unexpected response to shutdown request"
  | Error _ as e -> e
