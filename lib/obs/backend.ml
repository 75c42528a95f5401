module type S = sig
  val name : string
  val space_words : int
  val query : int -> int -> int
  val query_detailed : int -> int -> int * Trace.t
end

type t = (module S)

let name (module B : S) = B.name
let space_words (module B : S) = B.space_words
(* The accessors take every argument, so [query b u v] is one direct
   call rather than a projection followed by an allocating apply. *)
let query (module B : S) u v = B.query u v
let query_detailed (module B : S) u v = B.query_detailed u v

let make ~name ~space_words ?detailed q =
  let module B = struct
    let name = name
    let space_words = space_words
    let query = q

    let query_detailed =
      match detailed with
      | Some f -> f
      | None ->
          fun u v ->
            let d = q u v in
            (d, Trace.make ~source:name ~u ~v ~dist:d ())
  end in
  (module B : S)

exception Over_budget

module type S_ops = sig
  include S

  val op : Ops.request -> Ops.response
  val op_valid : Ops.valid -> Ops.response
end

type ops = (module S_ops)

let ops_name (module B : S_ops) = B.name
let ops_space_words (module B : S_ops) = B.space_words
let op (module B : S_ops) req = B.op req
let op_valid (module B : S_ops) req = B.op_valid req
let base (module B : S_ops) = (module B : S)

let with_ops ~n (module Base : S) op_valid =
  let module B = struct
    include Base

    let op_valid = op_valid

    let op req =
      match Ops.check ~n req with
      | Ok v -> op_valid v
      | Error msg -> invalid_arg (Base.name ^ ".op: " ^ msg)
  end in
  (module B : S_ops)

let make_ops ~name ~space_words ?detailed ~n ~op q =
  with_ops ~n (make ~name ~space_words ?detailed q) op

let lift ~n backend =
  let query = query backend in
  with_ops ~n backend (fun v -> Ops.brute ~n ~query (v :> Ops.request))
