open Ise_fuzz
module Codec = Ise_pool.Codec

(* Bumped whenever a message's marshalled shape changes, to a value no
   earlier fabric or serve build spoke (fabric 1-3, serve 2, 4 and 5):
   both protocols share frame layout, envelope and Hello shape, so the
   protocol byte is all that refuses an old or foreign peer, at its
   first frame. *)
let version = 6

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
  j_ctx : (string * string) option;
      (* (trace_id, dispatch span id): the worker parents its shard
         span under the supervisor's dispatch span *)
}

let plain_job ~shard ~lo ~hi =
  { j_shard = shard; j_lo = lo; j_hi = hi; j_ctx = None }

type request =
  | Hello of { git_rev : string }
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
  ws_shards_run : int;
  ws_pings : int;
  ws_uptime_s : float;
}

type response =
  | Hello_ok of { git_rev : string; pid : int }
  | Spec_ok
  | Pong of int
  | Shard_done of shard_result
  | Shard_failed of { shard : int; reason : string }
  | Worker_stats of worker_stats
  | Shutting_down
  | Error of Ise_serve.Framed.err_kind * string

(* ------------------------------------------------------------------ *)
(* framed I/O                                                          *)

let write_request fd (req : request) = Codec.write_sealed ~proto:version fd req

let write_response fd (resp : response) =
  Codec.write_sealed ~proto:version fd resp

let read_response ?max_payload fd : (response, string) result =
  Codec.read_sealed ?max_payload ~proto:version ~peer:"worker" fd

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

let shard_payload_to_string (p : shard_payload) = Codec.seal p

let shard_payload_of_string str : shard_payload option = Codec.unseal str
