(* The sharded-tier test that forks: the router's allocation per query
   on a forked 1-shard fleet. OCaml 5 refuses Unix.fork once any domain
   has been spawned, which any suite of test_main may do, so this test
   has a process of its own. *)

open Repro_hub
open Repro_shard

let test_router_alloc_per_query () =
  let rng = Random.State.make [| 5 |] in
  let g = Repro_graph.Generators.random_connected rng ~n:60 ~m:120 in
  let labels = Pll.build g in
  let n = Repro_graph.Graph.n g in
  let r =
    Router.create
      { (Router.default_config g) with Router.labels = Some labels; shards = 1 }
  in
  Fun.protect ~finally:(fun () -> Router.shutdown r) @@ fun () ->
  let queries = 2000 in
  let pairs = Array.init queries (fun i -> (i mod n, (i * 7 + 3) mod n)) in
  let answers = Array.make queries { Router.dist = 0; source = 0; degraded = true } in
  for i = 0 to 99 do
    let u, v = pairs.(i) in
    ignore (Router.query r u v)
  done;
  let b0 = Gc.allocated_bytes () in
  for i = 0 to queries - 1 do
    let u, v = pairs.(i) in
    answers.(i) <- Router.query r u v
  done;
  let per_query = (Gc.allocated_bytes () -. b0) /. float_of_int queries in
  Test_util.check_bool "every answer exact and primary" true
    (Array.for_all2
       (fun (u, v) (a : Router.answer) ->
         a.dist = Hub_label.query labels u v && not a.degraded)
       pairs answers);
  Test_util.check_bool
    (Printf.sprintf "%.0f bytes allocated per query < 8 KiB" per_query)
    true (per_query < 8192.)

let () =
  Alcotest.run "hubhard-shard"
    [
      ( "shard",
        [
          Alcotest.test_case "router allocation per query" `Quick
            test_router_alloc_per_query;
        ] );
    ]
