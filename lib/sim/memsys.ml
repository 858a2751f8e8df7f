open Ise_util

type amo = Swap of int | Add of int

type kind =
  | Read
  | Write of { data : int; mask : int }
  | Atomic of amo
  | Prefetch_exclusive

type result =
  | Value of int
  | Denied of Ise_core.Fault.code

type dir_entry = {
  sharers : Bitset.t;
  mutable owner : int option;  (* core holding the block Modified *)
}

type pending = {
  p_core : int;
  p_addr : int;
  p_kind : kind;
  p_k : result -> unit;
}

type interceptor = {
  int_name : string;
  check : addr:int -> write:bool -> Ise_core.Fault.code option;
  extra_latency : addr:int -> int;
}

type perturb = {
  pb_delay : core:int -> addr:int -> write:bool -> int;
  pb_deny : core:int -> addr:int -> write:bool -> Ise_core.Fault.code option;
  pb_duplicate : core:int -> addr:int -> bool;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  einj : Einject.t;
  mutable interceptors : interceptor list;
  data : (int, int) Hashtbl.t;  (* word index -> value *)
  l1 : Cache.t array;
  l2 : Cache.t array;
  dir : (int, dir_entry) Hashtbl.t;
  busy : (int, pending Queue.t) Hashtbl.t;
      (* blocks with a transaction in flight -> requests waiting for it *)
  no_waiters : pending Queue.t;
      (* shared, always empty: the [busy] value of an uncontended block,
         so an uncontended request allocates no queue *)
  mutable dram_accesses : int;
  mutable invalidations : int;
  mutable noc_hop_cycles : int;
  mutable perturb : perturb option;
}

let einject_interceptor einj =
  {
    int_name = "einject";
    check =
      (fun ~addr ~write:_ ->
        if Einject.is_faulting einj addr then begin
          Einject.record_denial einj;
          Some Ise_core.Fault.Bus_error
        end
        else None);
    extra_latency = (fun ~addr:_ -> 0);
  }

let create cfg engine einj =
  {
    cfg;
    engine;
    einj;
    interceptors = [ einject_interceptor einj ];
    data = Hashtbl.create 4096;
    l1 = Array.init cfg.Config.ncores (fun _ ->
        Cache.create ~sets:cfg.Config.l1_sets ~ways:cfg.Config.l1_ways ());
    l2 = Array.init (cfg.Config.mesh_width * cfg.Config.mesh_width) (fun _ ->
        Cache.create ~sets:cfg.Config.l2_sets ~ways:cfg.Config.l2_ways ());
    dir = Hashtbl.create 4096;
    busy = Hashtbl.create 64;
    no_waiters = Queue.create ();
    dram_accesses = 0;
    invalidations = 0;
    noc_hop_cycles = 0;
    perturb = None;
  }

let add_interceptor t i = t.interceptors <- t.interceptors @ [ i ]
let set_perturb t p = t.perturb <- p

let einject t = t.einj

let block_of t addr = addr lsr t.cfg.Config.block_bits
let word_of addr = addr lsr 3

let dir_entry t block =
  match Hashtbl.find_opt t.dir block with
  | Some e -> e
  | None ->
    let e = { sharers = Bitset.create t.cfg.Config.ncores; owner = None } in
    Hashtbl.replace t.dir block e;
    e

let ntiles t = t.cfg.Config.mesh_width * t.cfg.Config.mesh_width
let tile_of_core t core = core mod ntiles t

let hop_latency t a b =
  let l = Config.hops t.cfg a b * t.cfg.Config.noc_hop_latency in
  t.noc_hop_cycles <- t.noc_hop_cycles + l;
  l

(* Merge store data into the oracle under a byte mask. *)
let merge_word old data mask =
  let result = ref old in
  for byte = 0 to 7 do
    if mask land (1 lsl byte) <> 0 then begin
      let shift = byte * 8 in
      let keep = lnot (0xFF lsl shift) in
      result := (!result land keep) lor (data land (0xFF lsl shift))
    end
  done;
  !result

let oracle_read t addr =
  match Hashtbl.find_opt t.data (word_of addr) with Some v -> v | None -> 0

let oracle_write t addr data mask =
  let w = word_of addr in
  let old = match Hashtbl.find_opt t.data w with Some v -> v | None -> 0 in
  Hashtbl.replace t.data w (merge_word old data mask)

let peek = oracle_read
let poke t addr v = Hashtbl.replace t.data (word_of addr) v

let is_write_kind = function
  | Read -> false
  | Write _ | Atomic _ | Prefetch_exclusive -> true

(* Evicting a block from an L1 must be reflected in the directory. *)
let l1_insert t core block state =
  match Cache.insert t.l1.(core) block state with
  | None -> ()
  | Some evicted ->
    let e = dir_entry t evicted in
    Bitset.clear e.sharers core;
    if e.owner = Some core then e.owner <- None

(* Compute the latency of a transaction and mutate cache/directory
   state.  Returns (latency, denial). *)
let walk t core addr kind =
  let cfg = t.cfg in
  let block = block_of t addr in
  let write = is_write_kind kind in
  let l1 = t.l1.(core) in
  match Cache.lookup l1 block with
  | Some Cache.Modified -> (cfg.Config.l1_latency, None)
  | Some Cache.Exclusive ->
    if write then Cache.set_state l1 block Cache.Modified;
    (cfg.Config.l1_latency, None)
  | Some Cache.Shared when not write -> (cfg.Config.l1_latency, None)
  | l1_state ->
    (* L1 miss, or a write that needs an upgrade from Shared. *)
    let lat = ref cfg.Config.l1_latency in
    let my_tile = tile_of_core t core in
    let bank = Config.bank_of_block cfg block in
    lat := !lat + (2 * hop_latency t my_tile bank) + cfg.Config.l2_latency;
    let e = dir_entry t block in
    (* A remote modified owner must supply / surrender the block. *)
    (match e.owner with
     | Some owner when owner <> core ->
       lat := !lat + (2 * hop_latency t bank (tile_of_core t owner))
              + cfg.Config.l1_latency;
       if write then begin
         Cache.invalidate t.l1.(owner) block;
         Bitset.clear e.sharers owner;
         t.invalidations <- t.invalidations + 1
       end
       else begin
         Cache.set_state t.l1.(owner) block Cache.Shared;
         Bitset.set e.sharers owner
       end;
       e.owner <- None;
       (* the dirty block now lives in L2 *)
       ignore (Cache.insert t.l2.(bank) block Cache.Modified)
     | _ -> ());
    (* A write invalidates all other sharers; latency is the farthest. *)
    if write then begin
      let worst = ref 0 in
      let invalidated = ref [] in
      Bitset.iter
        (fun s ->
          if s <> core then begin
            Cache.invalidate t.l1.(s) block;
            t.invalidations <- t.invalidations + 1;
            worst := max !worst (2 * hop_latency t bank (tile_of_core t s));
            invalidated := s :: !invalidated
          end)
        e.sharers;
      lat := !lat + !worst;
      List.iter (Bitset.clear e.sharers) !invalidated
    end;
    (* L2 lookup; miss goes to memory, where the memory-side
       interceptors (EInject, Midgard, …) stand guard. *)
    let denied = ref false in
    let denial_code = ref Ise_core.Fault.Bus_error in
    (match Cache.lookup t.l2.(bank) block with
     | Some _ -> ()
     | None ->
       t.dram_accesses <- t.dram_accesses + 1;
       let denial =
         List.fold_left
           (fun acc i ->
             match acc with
             | Some _ -> acc
             | None ->
               lat := !lat + i.extra_latency ~addr;
               i.check ~addr ~write)
           None t.interceptors
       in
       (match denial with
        | Some code ->
          (* the component terminates the transaction with a small,
             fixed response latency — the memory row is never
             accessed *)
          lat := !lat + 10;
          denied := true;
          denial_code := code
        | None ->
          lat := !lat
                 + (if write then cfg.Config.dram_store_latency
                    else cfg.Config.dram_load_latency);
          ignore (Cache.insert t.l2.(bank) block Cache.Shared)));
    if not !denied then begin
      (* install in the requester's L1 and update the directory *)
      let new_state =
        if write then Cache.Modified
        else if Bitset.is_empty e.sharers && e.owner = None then Cache.Exclusive
        else Cache.Shared
      in
      (match l1_state with
       | Some _ -> Cache.set_state l1 block new_state
       | None -> l1_insert t core block new_state);
      if write then begin
        e.owner <- Some core;
        Bitset.clear_all e.sharers;
        Bitset.set e.sharers core
      end
      else Bitset.set e.sharers core
    end;
    (!lat, if !denied then Some !denial_code else None)

let rec start t { p_core = core; p_addr = addr; p_kind = kind; p_k = k } =
  let block = block_of t addr in
  let latency, denial = walk t core addr kind in
  (* Chaos plane (when attached): NoC delay, transient denial, message
     duplication.  The decisions are drawn from the plane's own seeded
     streams, so a perturbed run is a pure function of (seed, program). *)
  let latency, denial, duplicate =
    match t.perturb with
    | None -> (latency, denial, false)
    | Some pb ->
      let write = is_write_kind kind in
      let latency = latency + pb.pb_delay ~core ~addr ~write in
      let denial =
        match denial with Some _ -> denial | None -> pb.pb_deny ~core ~addr ~write
      in
      (* only plain stores are duplicated: re-delivering the same masked
         bytes is idempotent, while a duplicated AMO would double-apply *)
      let duplicate =
        denial = None
        && (match kind with Write _ -> pb.pb_duplicate ~core ~addr | _ -> false)
      in
      (latency, denial, duplicate)
  in
  Engine.schedule_in t.engine latency (fun () ->
      let result =
        match denial with
        | Some code -> Denied code
        | None ->
          match kind with
          | Read -> Value (oracle_read t addr)
          | Write { data; mask } ->
            oracle_write t addr data mask;
            (* duplicated NoC delivery: the write effect lands twice at
               the same instant — idempotent, but the second delivery is
               real traffic and is counted by the plane *)
            if duplicate then oracle_write t addr data mask;
            Value 0
          | Prefetch_exclusive -> Value 0
          | Atomic amo ->
            let old = oracle_read t addr in
            let updated =
              match amo with Swap v -> v | Add v -> old + v
            in
            oracle_write t addr updated 0xFF;
            Value old
      in
      k result;
      (* release the block: start the next queued transaction *)
      match Hashtbl.find t.busy block with
      | exception Not_found -> ()
      | q ->
        if Queue.is_empty q then Hashtbl.remove t.busy block
        else start t (Queue.pop q))

let request t ~core ~addr kind k =
  let block = block_of t addr in
  let p = { p_core = core; p_addr = addr; p_kind = kind; p_k = k } in
  match Hashtbl.find t.busy block with
  | exception Not_found ->
    Hashtbl.replace t.busy block t.no_waiters;
    start t p
  | q when q == t.no_waiters ->
    let q = Queue.create () in
    Queue.add p q;
    Hashtbl.replace t.busy block q
  | q -> Queue.add p q

let flush_caches t =
  (* simplest correct flush: drop all directory state and rebuild caches *)
  Hashtbl.reset t.dir;
  Array.iteri
    (fun i _ ->
      t.l1.(i) <-
        Cache.create ~sets:t.cfg.Config.l1_sets ~ways:t.cfg.Config.l1_ways ())
    t.l1;
  Array.iteri
    (fun i _ ->
      t.l2.(i) <-
        Cache.create ~sets:t.cfg.Config.l2_sets ~ways:t.cfg.Config.l2_ways ())
    t.l2

let sum f arr = Array.fold_left (fun acc c -> acc + f c) 0 arr
let l1_hits t = sum Cache.hits t.l1
let l1_misses t = sum Cache.misses t.l1
let l2_hits t = sum Cache.hits t.l2
let l2_misses t = sum Cache.misses t.l2
let dram_accesses t = t.dram_accesses
let denials t = Einject.injections t.einj
let invalidations t = t.invalidations
let noc_hop_cycles t = t.noc_hop_cycles

let rate misses hits =
  let n = misses + hits in
  if n = 0 then 0. else float_of_int misses /. float_of_int n

let l1_miss_rate t = rate (l1_misses t) (l1_hits t)
let l2_miss_rate t = rate (l2_misses t) (l2_hits t)
