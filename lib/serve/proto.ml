open Ise_litmus

(* The frame's protocol byte is the only version check, by strict
   equality.  Daemon and client ship in the same executable image, so a
   bump is safe: there is no mixed-version serve deployment to stay
   compatible with.  Bumped whenever a message's marshalled shape
   changes, to a value no earlier serve or fabric build spoke (serve 2
   and 4, fabric 1-3 and 6): both protocols use the same frame layout,
   envelope and Hello shape, so the protocol byte is all that tells a
   serve frame from a fabric one. *)
let version = 5
let store_abi = Cache.store_abi

(* ------------------------------------------------------------------ *)
(* run parameters and cache keys                                       *)

type run_params = {
  seeds : int;
  inject_faults : bool;
  timer_interrupts : bool;
  model : Ise_model.Axiom.model;
}

let default_params = {
  seeds = 20;
  inject_faults = true;
  timer_interrupts = false;
  model = Ise_model.Axiom.Wc;
}

let cfg_of_params p =
  Ise_sim.Config.with_consistency p.model Ise_sim.Config.default

let model_name = function
  | Ise_model.Axiom.Sc -> "sc"
  | Ise_model.Axiom.Pc -> "pc"
  | Ise_model.Axiom.Wc -> "wc"

(* The config fingerprint digests everything that changes what a run
   means: the store ABI epoch, the enumeration-engine epoch (a result
   computed by an older engine must miss, not masquerade as current),
   the full machine configuration (via Marshal — any Config.t field
   change invalidates), and the run parameters.  git_rev is
   deliberately excluded. *)
let config_fp_at ~enum_epoch p =
  let cfg = cfg_of_params p in
  Cache.config_fp ~enum_epoch ~domain:"litmus"
    [ Digest.to_hex (Digest.string (Marshal.to_string cfg []));
      string_of_int p.seeds;
      string_of_bool p.inject_faults;
      string_of_bool p.timer_interrupts;
      model_name p.model ]

let litmus_key_at ~enum_epoch test params =
  Store.key ~test_fp:(Lit_test.fingerprint test)
    ~cfg_fp:(config_fp_at ~enum_epoch params)

let litmus_key test params =
  litmus_key_at ~enum_epoch:Ise_model.Enum.epoch test params

let replay_key entry ~seeds =
  let open Ise_fuzz.Corpus in
  let cfg_fp =
    Cache.config_fp ~domain:"replay"
      [ entry.e_variant;
        (match entry.e_expect with
         | Must_pass -> "pass"
         | Must_fail -> "fail");
        entry.e_kind;
        string_of_int seeds ]
  in
  Store.key ~test_fp:(Lit_test.fingerprint entry.e_test) ~cfg_fp

(* ------------------------------------------------------------------ *)
(* cached payloads                                                     *)

type litmus_payload = { lp_line : string; lp_pass : bool }

let litmus_payload_to_string (p : litmus_payload) =
  Ise_pool.Codec.marshal p

let litmus_payload_of_string s : litmus_payload option =
  Ise_pool.Codec.unmarshal_opt s

let replay_payload_to_string (r : (unit, string) result) =
  Ise_pool.Codec.marshal r

let replay_payload_of_string s : (unit, string) result option =
  Ise_pool.Codec.unmarshal_opt s

(* ------------------------------------------------------------------ *)
(* messages                                                            *)

type request =
  | Hello of { git_rev : string }
  | Litmus of { tests : Lit_test.t list; params : run_params }
  | Fuzz_replay of { entry : Ise_fuzz.Corpus.entry; seeds : int }
  | Stats_req
  | Shutdown

type litmus_reply = { r_line : string; r_pass : bool; r_cached : bool }

type store_view = {
  v_mem_hits : int;
  v_disk_hits : int;
  v_misses : int;
  v_writes : int;
  v_corrupt_skipped : int;
  v_mem_evictions : int;
}

type server_stats = {
  ss_pid : int;
  ss_uptime_s : float;
  ss_git_rev : string;
  ss_connections : int;
  ss_requests : int;
  ss_litmus_runs : int;
  ss_replays : int;
  ss_errors : int;
  ss_store : store_view option;
}

type err_kind = Framed.err_kind =
  | Unsupported_proto
  | Bad_request
  | Frame_too_large
  | Malformed_frame
  | Internal

let err_name = Framed.err_name

type response =
  | Hello_ok of { git_rev : string }
  | Litmus_done of litmus_reply list
  | Replay_done of { result : (unit, string) result; cached : bool }
  | Stats of server_stats
  | Shutting_down
  | Error of err_kind * string

(* ------------------------------------------------------------------ *)
(* framed I/O                                                          *)

let write_request fd (req : request) =
  Ise_pool.Codec.write_sealed ~proto:version fd req

let write_response fd (resp : response) =
  Ise_pool.Codec.write_sealed ~proto:version fd resp

let read_response ?max_payload fd : (response, string) result =
  Ise_pool.Codec.read_sealed ?max_payload ~proto:version ~peer:"daemon" fd
