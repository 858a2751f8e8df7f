(* Discrete-event scheduler shared by all simulator components.  See
   engine.mli. *)

open Ise_util

type t = {
  mutable now : int;
  queue : (unit -> unit) Pqueue.t;
}

let create () = { now = 0; queue = Pqueue.create () }
let now t = t.now

let schedule_at t cycle f =
  if cycle < t.now then invalid_arg "Engine.schedule_at: in the past";
  Pqueue.push t.queue cycle f

let schedule_in t delay f = schedule_at t (t.now + delay) f

let due t = (not (Pqueue.is_empty t.queue)) && Pqueue.min_prio t.queue <= t.now

let run_due t =
  let ran = due t in
  while due t do
    Pqueue.pop_value t.queue ()
  done;
  ran

let advance t = t.now <- t.now + 1

let skip_to_next_event t =
  if Pqueue.is_empty t.queue || Pqueue.min_prio t.queue <= t.now then false
  else begin
    t.now <- Pqueue.min_prio t.queue;
    true
  end

let pending t = Pqueue.length t.queue
