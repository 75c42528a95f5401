type 'a t = { make : unit -> 'a; free : 'a list Atomic.t }

let create make = { make; free = Atomic.make [] }

(* Lock-free stack. Every push conses a fresh cell, so a successful
   compare-and-set on the head cell cannot mistake a changed stack for
   the one it read. *)
let rec take t =
  match Atomic.get t.free with
  | [] -> t.make ()
  | b :: rest as l -> if Atomic.compare_and_set t.free l rest then b else take t

let rec give t b =
  let l = Atomic.get t.free in
  if not (Atomic.compare_and_set t.free l (b :: l)) then give t b
