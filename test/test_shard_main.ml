(* The sharded-tier tests that fork: the router's allocation per query
   on a forked 1-shard fleet, its refusal of out-of-range pairs, and
   its aggregates under worker faults. OCaml 5 refuses Unix.fork once
   any domain has been spawned, which any suite of test_main may do, so
   these tests have a process of their own. *)

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

let counter reg name =
  Option.value ~default:0
    (Repro_obs.Metrics.find_counter (Repro_obs.Metrics.snapshot reg) name)

(* A caller's bad pair is the caller's fault: the router refuses it
   before any frame goes out, so no worker is charged a failure. *)
let test_router_rejects_out_of_range () =
  let rng = Random.State.make [| 5 |] in
  let g = Repro_graph.Generators.random_connected rng ~n:60 ~m:120 in
  let n = Repro_graph.Graph.n g in
  let r =
    Router.create
      { (Router.default_config g) with Router.labels = Some (Pll.build g) }
  in
  Fun.protect ~finally:(fun () -> Router.shutdown r) @@ fun () ->
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  for _ = 1 to 6 do
    Test_util.check_bool "query 0 n raises" true
      (raises (fun () -> Router.query r 0 n))
  done;
  Test_util.check_bool "query n 0 raises" true
    (raises (fun () -> Router.query r n 0));
  Test_util.check_bool "query -1 0 raises" true
    (raises (fun () -> Router.query r (-1) 0));
  Test_util.check_bool "a batch with one bad pair raises" true
    (raises (fun () -> Router.query_batch r [| (0, 1); (2, n + 5) |]));
  let reg = Router.metrics r in
  Alcotest.(check int) "router.bad_frames" 0 (counter reg "router.bad_frames");
  Alcotest.(check int) "router.degraded" 0 (counter reg "router.degraded");
  Alcotest.(check int) "nothing was sent" 0 (counter reg "router.queries");
  for s = 0 to 1 do
    Test_util.check_bool
      (Printf.sprintf "shard %d healthy" s)
      true
      (Supervisor.state (Router.supervisor r) s = Supervisor.Healthy)
  done;
  let a = Router.query r 0 (n - 1) in
  Test_util.check_bool "the fleet still serves" false a.Router.degraded

(* Every aggregate, with one fault on shard 1 at each of its first four
   response frames: the answer always equals the in-process search-only
   oracle's, and the router's local recompute of a failed shard's share
   is exercised for every op that has one. *)
let test_router_aggregates_under_faults () =
  let module Ops = Repro_obs.Ops in
  let module FI = Repro_serve.Fault_injector in
  let rng = Random.State.make [| 11 |] in
  let g = Repro_graph.Generators.random_connected rng ~n:40 ~m:70 in
  let labels = Pll.build g in
  let oracle = Repro_serve.Resilient_oracle.create g in
  let expect req =
    Ops.response_to_string (fst (Repro_serve.Resilient_oracle.op oracle req))
  in
  let reqs =
    [
      Ops.One_to_many { source = 3; targets = Array.init 40 (fun i -> 39 - i) };
      Ops.Many_to_many { sources = [| 1; 5; 9 |]; targets = [| 0; 7; 21; 33 |] };
      Ops.Top_k_nearest { source = 7; k = 5 };
      Ops.Eccentricity 11;
      Ops.Farthest 13;
      Ops.Diameter_radius;
    ]
  in
  let supervisor =
    {
      Supervisor.default_config with
      Supervisor.deadline_ns = 30_000_000L;
      base_backoff_ns = 1_000_000L;
      jitter_frac = 0.0;
    }
  in
  let recomputes = Hashtbl.create 8 in
  List.iter
    (fun req ->
      let opname = Ops.name req in
      List.iter
        (fun fault ->
          for after_frames = 1 to 4 do
            let r =
              Router.create
                {
                  (Router.default_config g) with
                  Router.labels = Some labels;
                  shards = 3;
                  partition = Partition.Hash;
                  supervisor;
                  clock_step = Some 1000L;
                  chaos = [ (1, FI.chaos ~after_frames fault) ];
                }
            in
            Fun.protect ~finally:(fun () -> Router.shutdown r) @@ fun () ->
            for _ = 1 to 3 do
              let got = Router.op r req in
              Alcotest.(check string)
                (Printf.sprintf "%s, %s" opname
                   (FI.chaos_to_string (FI.chaos ~after_frames fault)))
                (expect req)
                (Ops.response_to_string got.Router.response)
            done;
            let c =
              counter (Router.metrics r)
                ("router.ops." ^ opname ^ ".degraded_local.count")
            in
            Hashtbl.replace recomputes opname
              (c + Option.value ~default:0 (Hashtbl.find_opt recomputes opname))
          done)
        [ FI.Kill; FI.Corrupt_frame; FI.Truncate_frame; FI.Hang ])
    reqs;
  List.iter
    (fun opname ->
      Test_util.check_bool
        (Printf.sprintf "%s recomputed a shard's share locally" opname)
        true
        (Option.value ~default:0 (Hashtbl.find_opt recomputes opname) > 0))
    [ "one_to_many"; "top_k_nearest"; "eccentricity"; "diameter_radius" ]

let () =
  Alcotest.run "hubhard-shard"
    [
      ( "shard",
        [
          Alcotest.test_case "router allocation per query" `Quick
            test_router_alloc_per_query;
          Alcotest.test_case "router rejects out-of-range pairs" `Quick
            test_router_rejects_out_of_range;
          Alcotest.test_case "router aggregates under faults" `Quick
            test_router_aggregates_under_faults;
        ] );
    ]
