open Repro_graph
open Repro_hub
module Backend = Repro_obs.Backend

(* Every oracle is a backend: the label oracles are their store's, the
   matrix and on-demand oracles a plain one over their query. *)
type t = Backend.t

let full g =
  let apsp = Apsp.of_graph g and n = Graph.n g in
  Backend.make ~name:"full-matrix" ~space_words:(n * n) (Apsp.dist apsp)

let hub _ labels = (Hub_label.pack labels).backend
let flat _ store = (Flat_hub.pack store).backend

let on_demand g =
  Backend.make ~name:"bfs-on-demand"
    ~space_words:((2 * Graph.m g) + Graph.n g)
    (fun u v -> (Traversal.bfs g u).(v))

let of_backend b = b
let query = Backend.query
let name = Backend.name
let space_words = Backend.space_words
let backend t = t
