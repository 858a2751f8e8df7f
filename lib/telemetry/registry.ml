type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Ise_util.Stats.t

type t = { metrics : (string, metric) Hashtbl.t }

let create () = { metrics = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let collision name existing wanted =
  invalid_arg
    (Printf.sprintf "Registry: %S already registered as a %s, wanted a %s" name
       (kind_name existing) wanted)

let counter t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Counter c) -> c
  | Some m -> collision name m "counter"
  | None ->
    let c = { c_value = 0 } in
    Hashtbl.replace t.metrics name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Gauge g) -> g
  | Some m -> collision name m "gauge"
  | None ->
    let g = { g_value = 0. } in
    Hashtbl.replace t.metrics name (Gauge g);
    g

let histogram t name =
  match Hashtbl.find_opt t.metrics name with
  | Some (Histogram h) -> h
  | Some m -> collision name m "histogram"
  | None ->
    let h = Ise_util.Stats.create () in
    Hashtbl.replace t.metrics name (Histogram h);
    h

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let set_counter c v = c.c_value <- v
let value c = c.c_value
let set g v = g.g_value <- v
let get g = g.g_value

type summary = {
  s_count : int;
  s_mean : float;
  s_min : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

type snap =
  | Snap_counter of int
  | Snap_gauge of float
  | Snap_histogram of summary

let summarise h =
  let open Ise_util.Stats in
  { s_count = count h; s_mean = mean h; s_min = min_value h;
    s_p50 = percentile h 50.; s_p90 = percentile h 90.;
    s_p99 = percentile h 99.; s_max = max_value h }

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let s =
        match m with
        | Counter c -> Snap_counter c.c_value
        | Gauge g -> Snap_gauge g.g_value
        | Histogram h -> Snap_histogram (summarise h)
      in
      (name, s) :: acc)
    t.metrics []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.
      | Histogram h -> Ise_util.Stats.clear h)
    t.metrics

(* ------------------------------------------------------------------ *)
(* Emitters                                                            *)

let pp_text ppf t =
  let snaps = snapshot t in
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 snaps
  in
  List.iter
    (fun (name, s) ->
      match s with
      | Snap_counter v -> Format.fprintf ppf "%-*s %d@." width name v
      | Snap_gauge v -> Format.fprintf ppf "%-*s %g@." width name v
      | Snap_histogram h ->
        Format.fprintf ppf
          "%-*s n=%d mean=%.2f min=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f@."
          width name h.s_count h.s_mean h.s_min h.s_p50 h.s_p90 h.s_p99 h.s_max)
    snaps

let to_csv t =
  let b = Buffer.create 256 in
  Buffer.add_string b "name,kind,value,count,mean,min,p50,p90,p99,max\n";
  List.iter
    (fun (name, s) ->
      match s with
      | Snap_counter v ->
        Buffer.add_string b (Printf.sprintf "%s,counter,%d,,,,,,,\n" name v)
      | Snap_gauge v ->
        Buffer.add_string b (Printf.sprintf "%s,gauge,%g,,,,,,,\n" name v)
      | Snap_histogram h ->
        Buffer.add_string b
          (Printf.sprintf "%s,histogram,,%d,%g,%g,%g,%g,%g,%g\n" name h.s_count
             h.s_mean h.s_min h.s_p50 h.s_p90 h.s_p99 h.s_max))
    (snapshot t);
  Buffer.contents b

let to_json t =
  let field (name, s) =
    let v =
      match s with
      | Snap_counter v -> Json.Int v
      | Snap_gauge v -> Json.Float v
      | Snap_histogram h ->
        Json.Obj
          [ ("count", Json.Int h.s_count); ("mean", Json.Float h.s_mean);
            ("min", Json.Float h.s_min); ("p50", Json.Float h.s_p50);
            ("p90", Json.Float h.s_p90); ("p99", Json.Float h.s_p99);
            ("max", Json.Float h.s_max) ]
    in
    (name, v)
  in
  Json.Obj (List.map field (snapshot t))
