(** Client side of the serve protocol: connect, Hello, and issue
    synchronous requests. *)

type t

val connect : ?retries:int -> string -> (t, string) result
(** Connect to the daemon's Unix socket at the given path and perform
    the mandatory Hello exchange at {!Proto.version}.  [retries]
    (default 0) re-attempts the [connect] with 100 ms backoff while
    the daemon is still starting up.  On [Error] the descriptor is
    closed. *)

val rpc : t -> Proto.request -> (Proto.response, string) result
(** One request, one response.  A typed [Error] frame from the daemon
    comes back as [Ok (Proto.Error _)] — the transport worked; the
    daemon will close the connection after it. *)

val close : t -> unit

(** {1 Conveniences} *)

val litmus :
  t ->
  tests:Ise_litmus.Lit_test.t list ->
  params:Proto.run_params ->
  (Proto.litmus_reply list, string) result

val server_stats : t -> (Proto.server_stats, string) result

val shutdown : t -> (unit, string) result
(** Asks the daemon to drain and exit. *)
