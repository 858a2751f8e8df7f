type status =
  | Waiting
  | Inflight
  | Faulted of Ise_core.Fault.code

type entry = {
  seq : int;
  e_addr : int;
  mutable e_data : int;
  mutable e_mask : int;
  mutable status : status;
}

type t = {
  cap : int;
  mode : Ise_model.Axiom.model;
  items : entry array;  (* [0, n) live, oldest first; the rest [vacant] *)
  mutable n : int;
  mutable n_inflight : int;
  mutable n_faulted : int;
  mutable n_completed : int;
  mutable occ_watermark : int;
  mutable infl_watermark : int;
  outstanding : Ise_util.Wordset.t;  (* scratch for [drainable] *)
  picks : int array;  (* scratch for [drainable] *)
}

let vacant = { seq = -1; e_addr = 0; e_data = 0; e_mask = 0; status = Waiting }

let create ~capacity ~mode =
  { cap = capacity; mode; items = Array.make capacity vacant; n = 0;
    n_inflight = 0; n_faulted = 0; n_completed = 0; occ_watermark = 0;
    infl_watermark = 0; outstanding = Ise_util.Wordset.create ~capacity;
    picks = Array.make capacity 0 }

let capacity t = t.cap
let length t = t.n
let is_empty t = t.n = 0
let is_full t = t.n >= t.cap
let inflight t = t.n_inflight
let has_fault t = t.n_faulted > 0

let word addr = addr lsr 3

(* matched, not compared: [=] on [status] is a polymorphic C call *)
let is_waiting e =
  match e.status with Waiting -> true | Inflight | Faulted _ -> false

let is_inflight e =
  match e.status with Inflight -> true | Waiting | Faulted _ -> false

let merge_data old_data old_mask data mask =
  let d = ref old_data and m = old_mask lor mask in
  for byte = 0 to 7 do
    if mask land (1 lsl byte) <> 0 then begin
      let shift = byte * 8 in
      let keep = lnot (0xFF lsl shift) in
      d := (!d land keep) lor (data land (0xFF lsl shift))
    end
  done;
  (!d, m)

(* Oldest waiting entry to [w], or -1. *)
let waiting_same_word t w =
  let i = ref 0 in
  while
    !i < t.n
    && not (word t.items.(!i).e_addr = w && is_waiting t.items.(!i))
  do
    incr i
  done;
  if !i < t.n then !i else -1

let push t ~seq ~addr ~data ~mask =
  let into =
    match t.mode with
    | Ise_model.Axiom.Wc ->
      (* coalesce into a waiting same-word entry; safe under WC since
         no inter-address order is required *)
      waiting_same_word t (word addr)
    | Ise_model.Axiom.Sc | Ise_model.Axiom.Pc -> -1
  in
  if into >= 0 then begin
    let e = t.items.(into) in
    let d, m = merge_data e.e_data e.e_mask data mask in
    e.e_data <- d;
    e.e_mask <- m;
    true
  end
  else if is_full t then false
  else begin
    t.items.(t.n) <-
      { seq; e_addr = addr; e_data = data; e_mask = mask; status = Waiting };
    t.n <- t.n + 1;
    t.occ_watermark <- max t.occ_watermark t.n;
    true
  end

(* Under WC an entry may drain unless an older entry to the same word
   is outstanding (inflight or faulted): one oldest-first pass that
   collects the words of the outstanding entries it has passed. *)
let drainable t ~max_inflight =
  if t.n_inflight >= max_inflight then []
  else
    match t.mode with
    | Ise_model.Axiom.Pc | Ise_model.Axiom.Sc ->
      (* strict FIFO, one at a time *)
      if t.n > 0 && is_waiting t.items.(0) && t.n_inflight = 0 then
        [ t.items.(0) ]
      else []
    | Ise_model.Axiom.Wc ->
      let budget = max_inflight - t.n_inflight in
      let outstanding = t.outstanding in
      Ise_util.Wordset.clear outstanding;
      let npicks = ref 0 and i = ref 0 in
      while !npicks < budget && !i < t.n do
        let e = t.items.(!i) in
        let w = word e.e_addr in
        if not (is_waiting e) then Ise_util.Wordset.add outstanding w
        else if not (Ise_util.Wordset.mem outstanding w) then begin
          t.picks.(!npicks) <- !i;
          incr npicks
        end;
        incr i
      done;
      (* built youngest first, so the list allocation is the only one *)
      let acc = ref [] in
      for k = !npicks - 1 downto 0 do
        acc := t.items.(t.picks.(k)) :: !acc
      done;
      !acc

let mark_inflight t e =
  e.status <- Inflight;
  t.n_inflight <- t.n_inflight + 1;
  t.infl_watermark <- max t.infl_watermark t.n_inflight

(* Position of the buffered entry with [e]'s sequence number, or -1:
   a drain response may still arrive for an entry that {!take_all}
   removed when its core was terminated. *)
let index t e =
  let i = ref 0 in
  while !i < t.n && t.items.(!i).seq <> e.seq do incr i done;
  if !i < t.n then !i else -1

let complete t e =
  if is_inflight e then t.n_inflight <- t.n_inflight - 1;
  t.n_completed <- t.n_completed + 1;
  let i = index t e in
  if i >= 0 then begin
    (match t.items.(i).status with
     | Faulted _ -> t.n_faulted <- t.n_faulted - 1
     | Waiting | Inflight -> ());
    Array.blit t.items (i + 1) t.items i (t.n - i - 1);
    t.n <- t.n - 1;
    t.items.(t.n) <- vacant
  end

let mark_faulted t e code =
  if is_inflight e then t.n_inflight <- t.n_inflight - 1;
  (match e.status with
   | Faulted _ -> ()
   | Waiting | Inflight ->
     if index t e >= 0 then t.n_faulted <- t.n_faulted + 1);
  e.status <- Faulted code

let forward t ~addr =
  let w = word addr in
  let i = ref (t.n - 1) in
  while !i >= 0 && word t.items.(!i).e_addr <> w do decr i done;
  if !i >= 0 then Some t.items.(!i).e_data else None

let take_all t =
  let all = ref [] in
  for i = t.n - 1 downto 0 do
    all := t.items.(i) :: !all;
    t.items.(i) <- vacant
  done;
  t.n <- 0;
  t.n_inflight <- 0;
  t.n_faulted <- 0;
  !all

let completed t = t.n_completed
let occupancy_watermark t = t.occ_watermark
let inflight_watermark t = t.infl_watermark
