type t = {
  keys : int array;
  stamps : int array;  (* slot holds a key of this set iff stamp = gen *)
  mask : int;
  shift : int;
  capacity : int;
  mutable gen : int;
  mutable count : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Wordset.create";
  (* at most half full, so probe chains stay short *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do incr bits done;
  let size = 1 lsl !bits in
  { keys = Array.make size 0; stamps = Array.make size 0; mask = size - 1;
    shift = Sys.int_size - !bits; capacity; gen = 1; count = 0 }

let clear t =
  t.gen <- t.gen + 1;
  t.count <- 0

(* Fibonacci hashing: the top bits of the product mix every key bit. *)
let home t k = (k * 0x1E3779B97F4A7C15) lsr t.shift

let rec find t k i =
  if t.stamps.(i) <> t.gen || t.keys.(i) = k then i
  else find t k ((i + 1) land t.mask)

let mem t k =
  let i = find t k (home t k) in
  t.stamps.(i) = t.gen

let add t k =
  let i = find t k (home t k) in
  if t.stamps.(i) <> t.gen then begin
    if t.count >= t.capacity then invalid_arg "Wordset.add: over capacity";
    t.keys.(i) <- k;
    t.stamps.(i) <- t.gen;
    t.count <- t.count + 1
  end
