(* Benchmark-side spans: one per call the benchmark makes into a layer,
   kept in memory and written as JSON when a traced run ends. Outside a
   traced run nothing is recorded. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  req : int;  (** request id, -1 outside a request *)
  start_ns : int;
  end_ns : int;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let now () = Int64.to_int (Monotonic_clock.now ())

let fresh () =
  incr next_id;
  (!next_id, match !stack with p :: _ -> p | [] -> 0)

(* A span already timed by the caller, under the innermost open span. *)
let record ?(req = -1) name ~start_ns ~end_ns =
  if !enabled then begin
    let id, parent = fresh () in
    recorded := { id; parent; name; req; start_ns; end_ns } :: !recorded
  end

let run name f =
  if not !enabled then f ()
  else begin
    let id, parent = fresh () in
    stack := id :: !stack;
    let start_ns = now () in
    let finish () =
      stack := List.tl !stack;
      recorded := { id; parent; name; req = -1; start_ns; end_ns = now () } :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let to_json () =
  Json.Arr
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("parent", Json.Num (float_of_int s.parent));
             ("name", Json.Str s.name);
             ("req", Json.Num (float_of_int s.req));
             ("start_ns", Json.Num (float_of_int s.start_ns));
             ("end_ns", Json.Num (float_of_int s.end_ns));
           ])
       !recorded)
