open Ise_model
open Ise_litmus

let instr_complexity = function
  | Instr.Load _ | Instr.Fence | Instr.Ctrl _ -> 1
  | Instr.Store _ -> 1
  | Instr.Load_dep _ | Instr.Amo _ | Instr.Amo_add _ -> 2
  | Instr.Store_reg _ | Instr.Store_dep _ -> 3

let instr_value = function
  | Instr.Store (_, v) | Instr.Store_dep (_, v, _)
  | Instr.Amo (_, _, v) | Instr.Amo_add (_, _, v) -> abs v
  | _ -> 0

let distinct_locs threads =
  let locs = Hashtbl.create 4 in
  Array.iter
    (List.iter (fun i ->
         match Instr.loc_of i with
         | Some l -> Hashtbl.replace locs l ()
         | None -> ()))
    threads;
  Hashtbl.length locs

let size (t : Lit_test.t) =
  let threads = t.Lit_test.threads in
  let ninstrs = Array.fold_left (fun a is -> a + List.length is) 0 threads in
  let complexity =
    Array.fold_left
      (List.fold_left (fun a i -> a + instr_complexity i + instr_value i))
      0 threads
  in
  (1000 * ninstrs) + (100 * distinct_locs threads)
  + (10 * Array.length threads) + complexity

let with_threads (t : Lit_test.t) threads = { t with Lit_test.threads }

(* drop thread [k] (only while ≥ 2 threads remain) *)
let drop_threads (t : Lit_test.t) =
  let n = Array.length t.Lit_test.threads in
  if n <= 1 then Seq.empty
  else
    Seq.init n (fun k ->
        with_threads t
          (Array.of_list
             (List.filteri (fun i _ -> i <> k)
                (Array.to_list t.Lit_test.threads))))

(* drop instruction [j] of thread [i] *)
let drop_instrs (t : Lit_test.t) =
  Seq.concat_map
    (fun i ->
      let instrs = t.Lit_test.threads.(i) in
      Seq.init (List.length instrs) (fun j ->
          let threads = Array.copy t.Lit_test.threads in
          threads.(i) <- List.filteri (fun k _ -> k <> j) instrs;
          with_threads t threads))
    (Seq.init (Array.length t.Lit_test.threads) (fun i -> i))

(* replace one instruction with a strictly simpler equivalent *)
let simplify_instr = function
  | Instr.Load_dep (r, x, _) -> Some (Instr.Load (r, x))
  | Instr.Store_reg (x, _) -> Some (Instr.Store (x, 1))
  | Instr.Store_dep (x, v, _) -> Some (Instr.Store (x, v))
  | Instr.Amo (_, x, v) -> Some (Instr.Store (x, v))
  | Instr.Amo_add (_, x, v) -> Some (Instr.Store (x, v))
  | Instr.Store (x, v) when abs v > 1 -> Some (Instr.Store (x, 1))
  | _ -> None

let simplify_instrs (t : Lit_test.t) =
  Seq.concat_map
    (fun i ->
      let instrs = t.Lit_test.threads.(i) in
      Seq.filter_map
        (fun j ->
          match simplify_instr (List.nth instrs j) with
          | None -> None
          | Some simpler ->
            let threads = Array.copy t.Lit_test.threads in
            threads.(i) <- List.mapi (fun k x -> if k = j then simpler else x) instrs;
            Some (with_threads t threads))
        (Seq.init (List.length instrs) (fun j -> j)))
    (Seq.init (Array.length t.Lit_test.threads) (fun i -> i))

let rename_loc instr ~from ~into =
  let swap l = if l = from then into else l in
  match instr with
  | Instr.Load (r, x) -> Instr.Load (r, swap x)
  | Instr.Load_dep (r, x, d) -> Instr.Load_dep (r, swap x, d)
  | Instr.Store (x, v) -> Instr.Store (swap x, v)
  | Instr.Store_reg (x, r) -> Instr.Store_reg (swap x, r)
  | Instr.Store_dep (x, v, d) -> Instr.Store_dep (swap x, v, d)
  | Instr.Amo (r, x, v) -> Instr.Amo (r, swap x, v)
  | Instr.Amo_add (r, x, v) -> Instr.Amo_add (r, swap x, v)
  | (Instr.Fence | Instr.Ctrl _) as i -> i

(* merge a higher location into a lower one; conditions name locations,
   so only tests with an empty condition are eligible *)
let merge_locs (t : Lit_test.t) =
  if t.Lit_test.cond <> [] then Seq.empty
  else begin
    let locs = Hashtbl.create 4 in
    Array.iter
      (List.iter (fun i ->
           match Instr.loc_of i with
           | Some l -> Hashtbl.replace locs l ()
           | None -> ()))
      t.Lit_test.threads;
    let sorted = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) locs []) in
    match sorted with
    | [] | [ _ ] -> Seq.empty
    | lowest :: rest ->
      Seq.map
        (fun from ->
          with_threads t
            (Array.map
               (List.map (rename_loc ~from ~into:lowest))
               t.Lit_test.threads))
        (List.to_seq rest)
  end

let candidates t =
  Seq.concat
    (List.to_seq
       [ drop_threads t; drop_instrs t; simplify_instrs t; merge_locs t ])

(* Greedy: take the first candidate that keeps failing, repeat from
   it.  [max_evals] bounds the calls to [keeps_failing]; once it is
   spent no further candidate is even built. *)
let minimize ?(max_evals = 10_000) ~keeps_failing t =
  let evals = ref 0 in
  let rec first seq =
    if !evals >= max_evals then None
    else
      match seq () with
      | Seq.Nil -> None
      | Seq.Cons (c, rest) ->
        incr evals;
        if keeps_failing c then Some c else first rest
  in
  let rec go t steps =
    if !evals >= max_evals then (t, steps)
    else
      match first (candidates t) with
      | Some c -> go c (steps + 1)
      | None -> (t, steps)
  in
  go t 0
