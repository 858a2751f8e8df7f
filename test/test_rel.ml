(* Differential suite for the bitset Rel against the seed dense-matrix
   Rel_ref: every operation, on random relations at sizes that straddle
   the word boundary (0, 1, 64, 65 — [Sys.int_size] is 63 on 64-bit
   OCaml, so 64/65 exercise multi-word rows).  The two modules share a
   signature; properties build the same relation in both and demand
   identical observable behaviour.  cycle_witness is the one
   deliberately looser contract: any valid cycle is acceptable, so it
   is checked for validity against the relation, plus Some/None
   agreement.  Each size runs its QCheck property from its own fixed
   seed. *)

module Rel = Ise_model.Rel
module Rel_ref = Ise_model.Rel_ref

let checkb = Alcotest.(check bool)

let edges_gen n =
  if n = 0 then QCheck.Gen.return []
  else
    QCheck.Gen.(
      list_size
        (int_range 0 (min 80 (2 * n * n)))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))

let print_edges (n, es) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) es))

(* shrinking drops and shrinks edges; the size [n] stays fixed *)
let arb n =
  QCheck.make ~print:print_edges
    ~shrink:(fun (n, es) ->
      QCheck.Iter.map (fun es -> (n, es)) (QCheck.Shrink.list es))
    (QCheck.Gen.map (fun es -> (n, es)) (edges_gen n))

(* both builds of the same edge list *)
let build (n, es) = (Rel.of_list n es, Rel_ref.of_list n es)

let same_list what a b =
  if Rel.to_list a <> Rel_ref.to_list b then
    failwith (what ^ ": edge lists differ")

let valid_cycle n mem = function
  | None -> true
  | Some [] | Some [ _ ] -> false
  | Some (first :: _ as cyc) ->
    let rec ok = function
      | [ last ] -> last = first
      | a :: (b :: _ as rest) ->
        a >= 0 && a < n && mem a b && ok rest
      | [] -> false
    in
    ok cyc

let prop_agree (n, es) =
  let a, b = build (n, es) in
  same_list "of_list" a b;
  (* point queries over the full square *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Rel.mem a i j <> Rel_ref.mem b i j then failwith "mem"
    done
  done;
  if Rel.cardinal a <> Rel_ref.cardinal b then failwith "cardinal";
  if Rel.size a <> Rel_ref.size b then failwith "size";
  (* unary operations *)
  same_list "inverse" (Rel.inverse a) (Rel_ref.inverse b);
  same_list "closure" (Rel.transitive_closure a) (Rel_ref.transitive_closure b);
  same_list "filter"
    (Rel.filter (fun i j -> (i + j) mod 2 = 0) a)
    (Rel_ref.filter (fun i j -> (i + j) mod 2 = 0) b);
  same_list "copy" (Rel.copy a) (Rel_ref.copy b);
  (* iteration order is part of the contract (enumerator determinism) *)
  let trace rel_iter r =
    let acc = ref [] in
    rel_iter (fun i j -> acc := (i, j) :: !acc) r;
    List.rev !acc
  in
  if trace Rel.iter a <> trace Rel_ref.iter b then failwith "iter order";
  (* verdicts *)
  if Rel.is_acyclic a <> Rel_ref.is_acyclic b then failwith "is_acyclic";
  if Rel.topological_order a <> Rel_ref.topological_order b then
    failwith "topological_order";
  (* witnesses: agreement on existence, validity of each *)
  let wa = Rel.cycle_witness a and wb = Rel_ref.cycle_witness b in
  if (wa = None) <> (wb = None) then failwith "cycle_witness existence";
  if (wa = None) <> Rel.is_acyclic a then failwith "witness iff cyclic";
  if not (valid_cycle n (Rel.mem a) wa) then failwith "fast witness invalid";
  if not (valid_cycle n (Rel_ref.mem b) wb) then
    failwith "reference witness invalid";
  true

let prop_binary (n, (es1, es2)) =
  let a1 = Rel.of_list n es1 and b1 = Rel_ref.of_list n es1 in
  let a2 = Rel.of_list n es2 and b2 = Rel_ref.of_list n es2 in
  same_list "union" (Rel.union a1 a2) (Rel_ref.union b1 b2);
  same_list "inter" (Rel.inter a1 a2) (Rel_ref.inter b1 b2);
  same_list "diff" (Rel.diff a1 a2) (Rel_ref.diff b1 b2);
  same_list "compose" (Rel.compose a1 a2) (Rel_ref.compose b1 b2);
  if Rel.equal a1 a2 <> Rel_ref.equal b1 b2 then failwith "equal";
  (* add mutates only the receiver: a fresh copy diverges, the
     original is untouched (no row aliasing between copies) *)
  if n > 0 then begin
    let c = Rel.copy a1 in
    let i = n / 2 and j = n - 1 in
    if not (Rel.mem c i j) then begin
      Rel.add c i j;
      if Rel.mem a1 i j then failwith "copy aliases rows";
      if not (Rel.mem c i j) then failwith "add lost"
    end
  end;
  true

let arb2 n =
  QCheck.make
    ~print:(fun (n, (e1, e2)) ->
      print_edges (n, e1) ^ " / " ^ print_edges (n, e2))
    ~shrink:(fun (n, p) ->
      QCheck.Iter.map
        (fun p -> (n, p))
        (QCheck.Shrink.pair QCheck.Shrink.list QCheck.Shrink.list p))
    (QCheck.Gen.map
       (fun p -> (n, p))
       (QCheck.Gen.pair (edges_gen n) (edges_gen n)))

(* sizes straddling the packing boundary; counts kept small at the big
   sizes — the reference closure is O(n^3) per case *)
let sizes = [ (0, 50); (1, 100); (5, 200); (64, 40); (65, 40) ]

let check_sizes ~seed ~name arb prop =
  List.iter
    (fun (n, count) ->
      QCheck.Test.check_exn
        ~rand:(Random.State.make [| seed + n |])
        (QCheck.Test.make ~count ~name:(Printf.sprintf "%s n=%d" name n)
           (arb n) prop))
    sizes

let test_unary () = check_sizes ~seed:0xABC ~name:"rel unary" arb prop_agree

let test_binary () =
  check_sizes ~seed:0xDEF ~name:"rel binary" arb2 prop_binary

let test_mismatch_guard () =
  (* binary operations refuse mismatched sizes, as the seed did *)
  let a = Rel.create 3 and b = Rel.create 4 in
  checkb "union size mismatch" true
    (match Rel.union a b with
     | _ -> false
     | exception Invalid_argument _ -> true);
  checkb "out of range add" true
    (match Rel.add a 3 0 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  checkb "out of range mem" true
    (match Rel.mem a 0 (-1) with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_known_answers () =
  (* tiny pinned cases so a simultaneous bug in both engines cannot
     hide behind the differential check *)
  let r = Rel.of_list 3 [ (0, 1); (1, 2) ] in
  checkb "acyclic chain" true (Rel.is_acyclic r);
  checkb "closure adds (0,2)" true
    (Rel.to_list (Rel.transitive_closure r) = [ (0, 1); (0, 2); (1, 2) ]);
  checkb "topo 0<1<2" true (Rel.topological_order r = Some [ 0; 1; 2 ]);
  let c = Rel.of_list 2 [ (0, 1); (1, 0) ] in
  checkb "2-cycle detected" false (Rel.is_acyclic c);
  checkb "2-cycle witness" true
    (match Rel.cycle_witness c with
     | Some w -> List.length w >= 3
     | None -> false);
  let self = Rel.of_list 1 [ (0, 0) ] in
  checkb "self loop cyclic" false (Rel.is_acyclic self);
  checkb "empty acyclic" true (Rel.is_acyclic (Rel.create 0));
  checkb "empty topo" true (Rel.topological_order (Rel.create 0) = Some [])

let suite =
  [
    Alcotest.test_case "known answers (pinned)" `Quick test_known_answers;
    Alcotest.test_case "differential: unary ops" `Quick test_unary;
    Alcotest.test_case "differential: binary ops" `Quick test_binary;
    Alcotest.test_case "size/range guards" `Quick test_mismatch_guard;
  ]
