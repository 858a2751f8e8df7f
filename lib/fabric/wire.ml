open Ise_fuzz
module Codec = Ise_pool.Codec

let version = 3
let min_version = 1

type campaign =
  | Fuzz of Campaign.spec
  | Chaos of Ise_chaos.Chaos_run.spec

let campaign_count = function
  | Fuzz s -> s.Campaign.s_count
  | Chaos cs -> cs.Ise_chaos.Chaos_run.cs_trials

let campaign_seed = function
  | Fuzz s -> s.Campaign.s_seed
  | Chaos cs -> cs.Ise_chaos.Chaos_run.cs_seed

type job = {
  j_shard : int;
  j_lo : int;
  j_hi : int;
  (* v3 observability fields.  Marshal is structural and every fabric
     endpoint is the same executable image, so older-*protocol* peers
     still decode them — they just never act on them: a supervisor
     only sets them on connections negotiated at >= 3. *)
  j_ctx : (string * string) option;
      (* (trace_id, dispatch span id): the worker parents its shard
         span under the supervisor's dispatch span *)
  j_stream : bool;  (* stream Telemetry frames after this shard *)
}

let plain_job ~shard ~lo ~hi =
  { j_shard = shard; j_lo = lo; j_hi = hi; j_ctx = None; j_stream = false }

type request =
  | Hello of { proto : int; git_rev : string }
  | Set_spec of campaign
  | Run of job
  | Ping of int
  | Worker_stats_req
  | Shutdown

type shard_payload =
  | Fuzz_raw of Campaign.raw_failure list
  | Chaos_reports of Ise_chaos.Chaos_run.report list

type shard_result = {
  sr_shard : int;
  sr_lo : int;
  sr_hi : int;
  sr_payload : shard_payload;
}

type worker_stats = {
  ws_pid : int;
  ws_proto : int;
  ws_shards_run : int;
  ws_pings : int;
  ws_uptime_s : float;
}

type telemetry_update = {
  tu_pid : int;
  tu_seq : int;
  tu_metrics : Ise_telemetry.Registry.drained;
}

type response =
  | Hello_ok of { proto : int; git_rev : string; pid : int }
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
  | Worker_stats of worker_stats
  | Telemetry of telemetry_update
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string

(* ------------------------------------------------------------------ *)
(* payload envelopes                                                   *)

(* v2 payloads carry a leading MD5 of the marshalled value: Marshal has
   no integrity check of its own, and a wire-corrupted payload that
   still unmarshals (flipped bytes inside an int field) would silently
   poison the merge.  With the digest, corruption of any payload byte
   is *guaranteed* to surface as a typed decode failure, which the
   fault-handling paths (worker error frames, supervisor worker_lost +
   re-dispatch) then absorb.  v1 payloads are bare marshal — kept so a
   v2 endpoint still speaks to v1 peers after Hello negotiation. *)

let seal v =
  let m = Codec.marshal v in
  Digest.string m ^ m

let unseal s =
  if String.length s < 16 then None
  else
    let d = String.sub s 0 16 in
    let body = String.sub s 16 (String.length s - 16) in
    if not (String.equal (Digest.string body) d) then None
    else match Codec.unmarshal body with
      | v -> Some v
      | exception _ -> None

let encode_payload ~proto v =
  if proto >= 2 then seal v else Codec.marshal v

(* v1 payloads (and the hello exchange, which always travels at v1)
   have no digest — decode them through the structural validator so a
   wire-corrupted stream surfaces as [None] instead of crashing the
   runtime's intern loop. *)
let decode_payload ~proto s =
  if proto >= 2 then unseal s else Codec.unmarshal_opt s

(* ------------------------------------------------------------------ *)
(* framed I/O                                                          *)

(* Hello/Hello_ok always travel at v1 framing — the lowest version any
   peer speaks — so negotiation itself never needs negotiating.  The
   agreed version governs every frame after the handshake. *)
let hello_proto = 1

let write_request ?(proto = version) fd (req : request) =
  Codec.write_frame ~proto fd (encode_payload ~proto (req : request))

let write_response ?(proto = version) fd (resp : response) =
  Codec.write_frame ~proto fd (encode_payload ~proto (resp : response))

let read_response ?max_payload fd =
  match Codec.read_frame_ext ?max_payload fd with
  | Stdlib.Error `Eof -> Stdlib.Error "connection closed by worker"
  | Stdlib.Error (`Corrupt e) ->
    Stdlib.Error ("corrupt response frame: " ^ Codec.error_to_string e)
  | Stdlib.Ok (proto, payload) ->
    if proto < min_version || proto > version then
      Stdlib.Error
        (Printf.sprintf
           "protocol mismatch: worker speaks v%d, we speak v%d..v%d" proto
           min_version version)
    else begin
      match (decode_payload ~proto payload : response option) with
      | Some resp -> Stdlib.Ok resp
      | None -> Stdlib.Error "undecodable response payload"
    end

(* ------------------------------------------------------------------ *)
(* shard cache keys and payloads                                       *)

let spec_fp (s : Campaign.spec) =
  Digest.to_hex (Digest.string (Marshal.to_string s []))

let campaign_fp = function
  | Fuzz s -> spec_fp s
  | Chaos cs -> Digest.to_hex (Digest.string (Marshal.to_string cs []))

let campaign_domain = function
  | Fuzz _ -> "fuzz-shard"
  | Chaos _ -> "chaos-shard"

let shard_key c ~lo ~hi =
  Ise_serve.Store.key ~test_fp:(campaign_fp c)
    ~cfg_fp:
      (Ise_serve.Cache.config_fp ~domain:(campaign_domain c)
         [ string_of_int (campaign_seed c);
           string_of_int lo;
           string_of_int hi ])

let shard_payload_to_string (p : shard_payload) = seal p

let shard_payload_of_string str : shard_payload option = unseal str
