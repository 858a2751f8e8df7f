type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let dummy = t.heap.(0) in
    let nheap = Array.make ncap dummy in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let push t prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.heap = 0 then t.heap <- Array.make 16 e;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while !i > 0 && less t.heap.(!i) t.heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = t.heap.(p) in
    t.heap.(p) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := p
  done

let min_prio t =
  if t.size = 0 then invalid_arg "Pqueue.min_prio: empty";
  t.heap.(0).prio

let pop_value t =
  if t.size = 0 then invalid_arg "Pqueue.pop_value: empty";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
      if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top.value

let pop t =
  if t.size = 0 then None
  else
    let prio = t.heap.(0).prio in
    Some (prio, pop_value t)

let clear t =
  t.size <- 0;
  t.next_seq <- 0
