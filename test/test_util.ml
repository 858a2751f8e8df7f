open Ise_util

let check = Alcotest.check
(* fixed seed: every run checks the same cases, and a failure replays *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2023 |]) t

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let root = Rng.create 7 in
  let a = Rng.split root in
  let b = Rng.split root in
  check Alcotest.bool "split streams differ" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.0 in
    check Alcotest.bool "in range" true (v >= 0. && v < 3.0)
  done

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_geometric_nonneg () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    check Alcotest.bool "non-negative" true (Rng.geometric rng 0.3 >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Ring_buffer                                                         *)

let test_ring_fifo () =
  let rb = Ring_buffer.create ~capacity:8 in
  for i = 1 to 5 do
    Ring_buffer.push rb i
  done;
  let out = List.init 5 (fun _ -> Ring_buffer.pop rb) in
  check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3; 4; 5 ] out

let test_ring_full_raises () =
  let rb = Ring_buffer.create ~capacity:2 in
  Ring_buffer.push rb 1;
  Ring_buffer.push rb 2;
  check Alcotest.bool "full" true (Ring_buffer.is_full rb);
  Alcotest.check_raises "push full" (Failure "Ring_buffer.push: full") (fun () ->
      Ring_buffer.push rb 3)

let test_ring_empty_raises () =
  let rb : int Ring_buffer.t = Ring_buffer.create ~capacity:2 in
  Alcotest.check_raises "pop empty" (Failure "Ring_buffer.pop: empty") (fun () ->
      ignore (Ring_buffer.pop rb))

let test_ring_capacity_power_of_two () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Ring_buffer.create: capacity must be a positive power of two")
    (fun () -> ignore (Ring_buffer.create ~capacity:3 : int Ring_buffer.t))

let test_ring_positions_monotonic () =
  let rb = Ring_buffer.create ~capacity:4 in
  for round = 0 to 9 do
    Ring_buffer.push rb round;
    check Alcotest.int "tail grows" (round + 1) (Ring_buffer.tail rb);
    ignore (Ring_buffer.pop rb);
    check Alcotest.int "head follows" (round + 1) (Ring_buffer.head rb)
  done

let test_ring_peek_at () =
  let rb = Ring_buffer.create ~capacity:4 in
  Ring_buffer.push rb 10;
  Ring_buffer.push rb 20;
  ignore (Ring_buffer.pop rb);
  check (Alcotest.option Alcotest.int) "gone" None (Ring_buffer.peek_at rb 0);
  check (Alcotest.option Alcotest.int) "present" (Some 20) (Ring_buffer.peek_at rb 1)

let test_ring_find_last () =
  let rb = Ring_buffer.create ~capacity:8 in
  List.iter (Ring_buffer.push rb) [ (1, 'a'); (2, 'b'); (1, 'c') ];
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.char))
    "newest match"
    (Some (1, 'c'))
    (Ring_buffer.find_last (fun (k, _) -> k = 1) rb)

let test_ring_update_last () =
  let rb = Ring_buffer.create ~capacity:4 in
  Ring_buffer.push rb 1;
  Ring_buffer.push rb 2;
  let updated = Ring_buffer.update_last (fun v -> Some (v * 10)) rb in
  check Alcotest.bool "updated" true updated;
  check (Alcotest.list Alcotest.int) "coalesced" [ 1; 20 ] (Ring_buffer.to_list rb)

(* Wrap-around audit: drive a ring far past its capacity in positions
   (so the mask wraps many times) against a plain list model, across
   every capacity including 1, and check the read-side API agrees with
   the model at every step — including the raise-on-full /
   raise-on-empty and [clear] contract. *)
type rop = RPush | RPop | RFind | RUpdate | RClear

let pp_rop = function
  | RPush -> "push"
  | RPop -> "pop"
  | RFind -> "find_last"
  | RUpdate -> "update_last"
  | RClear -> "clear"

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring pbt wrap-around model" ~count:200
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity %d: %s" capacity
           (String.concat "; " (List.map pp_rop ops)))
       ~shrink:(fun (capacity, ops) ->
         QCheck.Iter.map (fun ops -> (capacity, ops)) (QCheck.Shrink.list ops))
       QCheck.Gen.(
         pair (oneofl [ 1; 2; 4; 8; 16 ])
           (list_size (int_range 0 200)
              (frequencyl
                 [ (6, RPush); (5, RPop); (4, RFind); (4, RUpdate);
                   (1, RClear) ]))))
    (fun (capacity, ops) ->
      let rb = Ring_buffer.create ~capacity in
      let model = ref [] in
      let counter = ref 0 in
      let agrees () =
        Ring_buffer.to_list rb = !model
        && Ring_buffer.length rb = List.length !model
        && Ring_buffer.is_empty rb = (!model = [])
        && Ring_buffer.is_full rb = (List.length !model = capacity)
        && Ring_buffer.peek rb
           = (match !model with [] -> None | x :: _ -> Some x)
        && Ring_buffer.tail rb - Ring_buffer.head rb = List.length !model
        &&
        let seen = ref [] in
        Ring_buffer.iter (fun v -> seen := v :: !seen) rb;
        List.rev !seen = !model
      in
      List.for_all
        (fun op ->
          (match op with
           | RPush ->
             incr counter;
             if List.length !model < capacity then begin
               Ring_buffer.push rb !counter;
               model := !model @ [ !counter ]
             end
             else begin
               match Ring_buffer.push rb !counter with
               | () -> failwith "push on a full ring did not raise"
               | exception Failure _ -> ()
             end
           | RPop -> (
             match (Ring_buffer.pop rb, !model) with
             | v, x :: rest when x = v -> model := rest
             | _ -> failwith "pop disagrees with model"
             | exception Failure _ ->
               if !model <> [] then failwith "pop raised on a non-empty ring")
           | RFind ->
             if
               Ring_buffer.find_last (fun v -> v land 1 = 0) rb
               <> List.find_opt (fun v -> v land 1 = 0) (List.rev !model)
             then failwith "find_last disagrees with model"
           | RUpdate ->
             ignore
               (Ring_buffer.update_last
                  (fun v -> if v land 1 = 0 then Some (v + 1000) else None)
                  rb);
             (model :=
                match List.rev !model with
                | x :: rest when x land 1 = 0 ->
                  List.rev ((x + 1000) :: rest)
                | _ -> !model)
           | RClear ->
             Ring_buffer.clear rb;
             model := []);
          agrees ())
        ops)

let prop_ring_peek_at_window =
  QCheck.Test.make ~name:"ring pbt peek_at window" ~count:200
    QCheck.(pair (int_range 0 40) (int_range 0 50))
    (fun (pops, probe) ->
      let rb = Ring_buffer.create ~capacity:8 in
      (* interleave pushes and pops so head advances [pops] times while
         the ring stays legal *)
      let pushed = ref 0 in
      let popped = ref 0 in
      while !popped < pops do
        if Ring_buffer.is_empty rb || (!pushed - !popped < 5 && !pushed < pops + 5)
        then begin
          Ring_buffer.push rb !pushed;
          incr pushed
        end
        else begin
          ignore (Ring_buffer.pop rb);
          incr popped
        end
      done;
      let inside =
        probe >= Ring_buffer.head rb && probe < Ring_buffer.tail rb
      in
      match Ring_buffer.peek_at rb probe with
      | Some v -> inside && v = probe
      | None -> not inside)

let test_ring_create_edges () =
  (* capacity 1 is a legal (degenerate) ring *)
  let rb = Ring_buffer.create ~capacity:1 in
  Ring_buffer.push rb 42;
  check Alcotest.bool "cap-1 full" true (Ring_buffer.is_full rb);
  check Alcotest.int "cap-1 pop" 42 (Ring_buffer.pop rb);
  Ring_buffer.push rb 43;
  check Alcotest.int "cap-1 wraps" 43 (Ring_buffer.pop rb);
  List.iter
    (fun capacity ->
      Alcotest.check_raises
        (Printf.sprintf "capacity %d rejected" capacity)
        (Invalid_argument
           "Ring_buffer.create: capacity must be a positive power of two")
        (fun () -> ignore (Ring_buffer.create ~capacity : int Ring_buffer.t)))
    [ 0; -1; 3; 6; 12 ]

let prop_ring_model =
  QCheck.Test.make ~name:"ring buffer behaves like a FIFO queue" ~count:300
    QCheck.(list (int_range 0 2))
    (fun ops ->
      (* op 0 = push fresh value, 1 = pop, 2 = peek *)
      let rb = Ring_buffer.create ~capacity:16 in
      let model = Queue.create () in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            if Ring_buffer.is_full rb then true
            else begin
              incr counter;
              Ring_buffer.push rb !counter;
              Queue.add !counter model;
              true
            end
          | 1 ->
            if Ring_buffer.is_empty rb then Queue.is_empty model
            else Ring_buffer.pop rb = Queue.pop model
          | _ ->
            (match (Ring_buffer.peek rb, Queue.peek_opt model) with
             | Some a, Some b -> a = b
             | None, None -> true
             | _ -> false))
        ops)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Bitset.set b 0;
  Bitset.set b 99;
  Bitset.set b 37;
  check Alcotest.bool "mem 37" true (Bitset.mem b 37);
  check Alcotest.bool "not mem 38" false (Bitset.mem b 38);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal b);
  Bitset.clear b 37;
  check Alcotest.bool "cleared" false (Bitset.mem b 37);
  check (Alcotest.list Alcotest.int) "to_list" [ 0; 99 ] (Bitset.to_list b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 8)

let test_bitset_copy_independent () =
  let a = Bitset.create 16 in
  Bitset.set a 3;
  let b = Bitset.copy a in
  Bitset.set b 4;
  check Alcotest.bool "a unchanged" false (Bitset.mem a 4);
  check Alcotest.bool "b has both" true (Bitset.mem b 3 && Bitset.mem b 4)

let prop_bitset_set_clear =
  QCheck.Test.make ~name:"bitset set/clear roundtrip" ~count:200
    QCheck.(small_list (int_range 0 63))
    (fun idxs ->
      let b = Bitset.create 64 in
      List.iter (Bitset.set b) idxs;
      List.for_all (Bitset.mem b) idxs
      && begin
        List.iter (Bitset.clear b) idxs;
        Bitset.is_empty b
      end)

(* Wordset: a list model across clears, with keys spread so that
   probe chains wrap around the table *)
let prop_wordset_model =
  QCheck.Test.make ~name:"wordset agrees with a list across clears" ~count:200
    QCheck.(small_list (option (int_range 0 5000)))
    (fun ops ->
      let s = Wordset.create ~capacity:12 in
      let model = ref [] in
      List.for_all
        (function
          | None ->
            Wordset.clear s;
            model := [];
            true
          | Some k ->
            if List.length !model < 12 || List.mem k !model then begin
              Wordset.add s k;
              if not (List.mem k !model) then model := k :: !model
            end;
            List.for_all (Wordset.mem s) !model
            && List.for_all
                 (fun j -> Wordset.mem s j = List.mem j !model)
                 [ k; k + 1; k * 3; 0 ])
        ops)

let test_wordset_capacity () =
  let s = Wordset.create ~capacity:2 in
  Wordset.add s 7;
  Wordset.add s 9;
  Wordset.add s 7;
  Alcotest.check_raises "third distinct key"
    (Invalid_argument "Wordset.add: over capacity") (fun () -> Wordset.add s 11);
  Wordset.clear s;
  Wordset.add s 11;
  check Alcotest.bool "cleared" false (Wordset.mem s 7)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q p v) [ (5, "e"); (1, "a"); (3, "c") ];
  let pops = List.init 3 (fun _ -> Option.get (Pqueue.pop q)) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "min order"
    [ (1, "a"); (3, "c"); (5, "e") ]
    pops

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 7 v) [ "first"; "second"; "third" ];
  let pops = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (Alcotest.list Alcotest.string) "insertion order among ties"
    [ "first"; "second"; "third" ] pops

let test_pqueue_empty () =
  let q : unit Pqueue.t = Pqueue.create () in
  check Alcotest.bool "empty pop" true (Pqueue.pop q = None)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority" ~count:200
    QCheck.(list small_nat)
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) prios;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain min_int)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_mean () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4. ];
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "min" 1. (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 4. (Stats.max_value s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  (* interpolated: rank p/100 * (n-1) over samples 1..100 *)
  check (Alcotest.float 1e-9) "p50" 50.5 (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p99" 99.01 (Stats.percentile s 99.);
  check (Alcotest.float 1e-9) "p100" 100. (Stats.percentile s 100.);
  check (Alcotest.float 1e-9) "p0" 1. (Stats.percentile s 0.);
  (* queries interleaved with adds: the sorted cache must invalidate *)
  Stats.add_int s 1000;
  check (Alcotest.float 1e-9) "p100 after add" 1000. (Stats.percentile s 100.)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add a 1.;
  Stats.add b 3.;
  let m = Stats.merge a b in
  check (Alcotest.float 1e-9) "merged mean" 2. (Stats.mean m)

let test_stats_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check (Alcotest.float 1e-6) "sample variance" 4.571428571 (Stats.variance s)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (int_range (-100) 100))
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (samples, (q1, q2)) ->
      let s = Stats.create () in
      List.iter (Stats.add_int s) samples;
      let lo = float_of_int (min q1 q2) and hi = float_of_int (max q1 q2) in
      let p_lo = Stats.percentile s lo and p_hi = Stats.percentile s hi in
      p_lo <= p_hi
      && Stats.min_value s <= Stats.percentile s 0.
      && Stats.percentile s 100. <= Stats.max_value s)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "contains header" true
    (String.length s > 0
    && String.sub s 0 4 = "name");
  (* all lines of a rendered table are aligned on the first column *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.bool "rows present" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha") lines)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng copy", `Quick, test_rng_copy);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("rng geometric non-negative", `Quick, test_rng_geometric_nonneg);
    ("ring fifo", `Quick, test_ring_fifo);
    ("ring full raises", `Quick, test_ring_full_raises);
    ("ring empty raises", `Quick, test_ring_empty_raises);
    ("ring capacity validation", `Quick, test_ring_capacity_power_of_two);
    ("ring positions monotonic", `Quick, test_ring_positions_monotonic);
    ("ring peek_at", `Quick, test_ring_peek_at);
    ("ring find_last", `Quick, test_ring_find_last);
    ("ring update_last", `Quick, test_ring_update_last);
    qtest prop_ring_wraparound;
    qtest prop_ring_peek_at_window;
    ("ring create edge cases", `Quick, test_ring_create_edges);
    qtest prop_ring_model;
    qtest prop_wordset_model;
    ("wordset capacity", `Quick, test_wordset_capacity);
    ("bitset basic", `Quick, test_bitset_basic);
    ("bitset bounds", `Quick, test_bitset_bounds);
    ("bitset copy independent", `Quick, test_bitset_copy_independent);
    qtest prop_bitset_set_clear;
    ("pqueue ordering", `Quick, test_pqueue_ordering);
    ("pqueue fifo ties", `Quick, test_pqueue_fifo_ties);
    ("pqueue empty", `Quick, test_pqueue_empty);
    qtest prop_pqueue_sorted;
    ("stats mean", `Quick, test_stats_mean);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats merge", `Quick, test_stats_merge);
    ("stats variance", `Quick, test_stats_variance);
    qtest prop_stats_percentile_monotone;
    ("table render", `Quick, test_table_render);
  ]
