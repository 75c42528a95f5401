(* Tests for the hub-labeling framework: label type, queries, covers,
   PLL, random hitting sets, greedy landmarks, monotone closures. *)

open Repro_graph
open Repro_hub

let test_label_make_and_query () =
  let labels =
    Hub_label.make ~n:3
      [| [ (0, 0); (1, 1) ]; [ (1, 0); (0, 1) ]; [ (2, 0); (1, 1) ] |]
  in
  Test_util.check_int "query direct" 1 (Hub_label.query labels 0 1);
  Test_util.check_int "query via hub 1" 2 (Hub_label.query labels 0 2);
  Test_util.check_int "query self" 0 (Hub_label.query labels 1 1);
  (match Hub_label.query_meet labels 0 2 with
  | Some (h, d) ->
      Test_util.check_int "meet hub" 1 h;
      Test_util.check_int "meet dist" 2 d
  | None -> Alcotest.fail "expected a meeting hub");
  Test_util.check_bool "mem" true (Hub_label.mem labels 0 ~hub:1);
  Alcotest.(check (option int)) "dist_to_hub" (Some 1)
    (Hub_label.dist_to_hub labels 0 ~hub:1)

let test_label_disjoint () =
  let labels = Hub_label.make ~n:2 [| [ (0, 0) ]; [ (1, 0) ] |] in
  Test_util.check_bool "inf on disjoint" false
    (Dist.is_finite (Hub_label.query labels 0 1))

let test_label_merge_duplicates () =
  let labels = Hub_label.make ~n:1 [| [ (0, 0); (0, 0) ] |] in
  Test_util.check_int "merged" 1 (Hub_label.size labels 0);
  Alcotest.check_raises "conflicting distances"
    (Invalid_argument "Hub_label.make: conflicting distances for a hub")
    (fun () -> ignore (Hub_label.make ~n:1 [| [ (0, 0); (0, 1) ] |]))

let test_of_arrays_checks () =
  (* sorted input passes the linear check; anything else is normalised
     or rejected exactly as by make *)
  let sorted = [| (0, 1); (2, 0) |] in
  let l = Hub_label.of_arrays ~n:3 [| sorted; [| (2, 1); (0, 0); (2, 1) |]; [||] |] in
  Alcotest.(check (array (pair int int))) "kept" sorted (Hub_label.hubs l 0);
  Alcotest.(check (array (pair int int))) "normalised" [| (0, 0); (2, 1) |]
    (Hub_label.hubs l 1);
  let raises msg pairs =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Hub_label.of_arrays ~n:2 [| pairs; [||] |]))
  in
  raises "Hub_label.make: hub out of range" [| (0, 0); (2, 1) |];
  raises "Hub_label.make: hub out of range" [| (-1, 0) |];
  raises "Hub_label.make: negative distance" [| (0, -1) |];
  raises "Hub_label.make: conflicting distances for a hub" [| (1, 0); (1, 1) |]

let test_label_stats () =
  let labels = Hub_label.make ~n:2 [| [ (0, 0) ]; [ (0, 1); (1, 0) ] |] in
  Test_util.check_int "total" 3 (Hub_label.total_size labels);
  Test_util.check_int "max" 2 (Hub_label.max_size labels);
  Test_util.check_bool "avg" true (abs_float (Hub_label.avg_size labels -. 1.5) < 1e-9)

let test_label_union_restrict () =
  let a = Hub_label.make ~n:2 [| [ (0, 0) ]; [ (1, 0) ] |] in
  let b = Hub_label.make ~n:2 [| [ (1, 1) ]; [ (0, 1) ] |] in
  let u = Hub_label.map_union a b in
  Test_util.check_int "union total" 4 (Hub_label.total_size u);
  Test_util.check_int "union query" 1 (Hub_label.query u 0 1);
  let r = Hub_label.restrict u ~keep:(fun _ h -> h = 0) in
  Test_util.check_int "restricted" 2 (Hub_label.total_size r);
  let s = Hub_label.add_self (Hub_label.make ~n:2 [| []; [] |]) in
  Test_util.check_int "self added" 2 (Hub_label.total_size s)

let test_cover_violations () =
  let g = Generators.path 3 in
  (* labels that wrongly claim dist(0,2) via no common hub *)
  let bad = Hub_label.make ~n:3 [| [ (0, 0) ]; [ (1, 0) ]; [ (2, 0) ] |] in
  let v = Cover.violations g bad in
  Test_util.check_bool "violations found" true (List.length v > 0);
  Test_util.check_bool "verify false" false (Cover.verify g bad);
  (* a correct labeling: everyone stores vertex 1 *)
  let good =
    Hub_label.make ~n:3
      [| [ (0, 0); (1, 1) ]; [ (1, 0) ]; [ (2, 0); (1, 1) ] |]
  in
  Test_util.check_bool "verify true" true (Cover.verify g good);
  Test_util.check_bool "stored exact" true (Cover.stored_distances_exact g good)

let pll_exact_on_connected =
  Test_util.qcheck "PLL is an exact cover on random connected graphs"
    Gen.small_connected_gen (fun params ->
      let g = Gen.build_connected params in
      Cover.verify g (Pll.build g))

let pll_exact_on_disconnected =
  Test_util.qcheck "PLL handles disconnected graphs" Gen.small_graph_gen
    (fun params ->
      let g = Gen.build_graph params in
      Cover.verify g (Pll.build g))

let pll_exact_any_order =
  Test_util.qcheck "PLL exact under random orders"
    QCheck2.Gen.(pair Gen.small_connected_gen (int_range 0 1000))
    (fun (params, seed) ->
      let g = Gen.build_connected params in
      let order = Order.random (Random.State.make [| seed |]) (Graph.n g) in
      Cover.verify g (Pll.build ~order g))

let pll_stored_distances_exact =
  Test_util.qcheck "PLL stores true distances" Gen.small_connected_gen
    (fun params ->
      let g = Gen.build_connected params in
      Cover.stored_distances_exact g (Pll.build g))

let pll_weighted_exact =
  Test_util.qcheck "weighted PLL exact (unit weights = BFS)" ~count:40
    Gen.small_connected_gen (fun params ->
      let g = Gen.build_connected params in
      let w = Wgraph.of_unweighted g in
      Cover.verify_w w (Pll.build_w w))

let pll_weighted_random_weights =
  Test_util.qcheck "weighted PLL exact on random weights" ~count:40
    Gen.small_weighted_gen
    (fun params ->
      let w = Gen.build_weighted params in
      Cover.verify_w w (Pll.build_w w))

(* The canonical labeling for [order], read off all-pairs distance rows
   and never from the PLL kernel: [(r, d(u,r))] is in [S(u)] exactly
   when no vertex earlier than [r] lies on a shortest u-r path, i.e.
   no [w] ranked before [r] has [d(u,w) + d(w,r) = d(u,r)]. Vertex [u]
   itself is such a [w] when it precedes [r], and a root always keeps
   [(r, 0)], even behind zero-weight edges. *)
let canonical_oracle ~order rows =
  let n = Array.length order in
  let rank = Order.rank_of order in
  Array.init n (fun u ->
      let hubs = ref [] in
      for r = n - 1 downto 0 do
        let d = rows.(u).(r) in
        let on_path w =
          rank.(w) < rank.(r) && Dist.add rows.(u).(w) rows.(w).(r) = d
        in
        if
          u = r
          || Dist.is_finite d
             && not (List.exists on_path (List.init n Fun.id))
        then hubs := (r, d) :: !hubs
      done;
      Array.of_list !hubs)

(* Build under a profile; the labeling must equal the oracle's, and the
   per-sweep [labels_added] counter must sum to its total size. *)
let matches_oracle ~order rows build =
  let module Span = Repro_obs.Span in
  let labels, root = Span.profile ~name:"oracle" build in
  let added =
    match Span.find root "pruned-sweep" with
    | Some node ->
        Option.value ~default:0 (List.assoc_opt "labels_added" node.counters)
    | None -> -1
  in
  let expected = canonical_oracle ~order rows in
  added = Hub_label.total_size labels
  && Array.for_all Fun.id
       (Array.mapi (fun u hubs -> Hub_label.hubs labels u = hubs) expected)

let random_order seed n = Order.random (Random.State.make [| seed |]) n

let pll_canonical_connected =
  Test_util.qcheck "PLL = canonical oracle (connected, random orders)"
    ~count:60
    QCheck2.Gen.(pair Gen.small_connected_gen (int_range 0 1_000_000))
    (fun (params, oseed) ->
      let g = Gen.build_connected params in
      let order = random_order oseed (Graph.n g) in
      matches_oracle ~order (Traversal.bfs_rows g) (fun () ->
          Pll.build ~order g))

let pll_canonical_disconnected =
  Test_util.qcheck "PLL = canonical oracle (disconnected, random orders)"
    ~count:60
    QCheck2.Gen.(pair Gen.small_graph_gen (int_range 0 1_000_000))
    (fun (params, oseed) ->
      let g = Gen.build_graph params in
      let order = random_order oseed (Graph.n g) in
      matches_oracle ~order (Traversal.bfs_rows g) (fun () ->
          Pll.build ~order g))

let pll_canonical_zero_weights =
  Test_util.qcheck "weighted PLL = canonical oracle (zero-weight edges)"
    ~count:60
    QCheck2.Gen.(pair Gen.small_weighted_gen (int_range 0 1_000_000))
    (fun (params, oseed) ->
      (* weights in {0, 1, 2}: about a third of the edges are free *)
      let w = Gen.build_weighted ~max_w:3 params in
      let order = random_order oseed (Wgraph.n w) in
      matches_oracle ~order (Dijkstra.distance_rows w) (fun () ->
          Pll.build_w ~order w))

let test_pll_rejects_non_permutation () =
  (* a repeated vertex leaves another without a sweep: on the edge 0-1,
     [|0; 0|] would never label 1 with itself, and query 1 1 would be 2 *)
  let bad = [| 0; 0 |] in
  Alcotest.check_raises "build"
    (Invalid_argument "Pll.build: order is not a permutation") (fun () ->
      ignore (Pll.build ~order:bad (Graph.of_edges ~n:2 [ (0, 1) ])));
  Alcotest.check_raises "build_w"
    (Invalid_argument "Pll.build_w: order is not a permutation") (fun () ->
      ignore (Pll.build_w ~order:bad (Wgraph.of_edges ~n:2 [ (0, 1, 1) ])));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pll.build: order is not a permutation") (fun () ->
      ignore (Pll.build ~order:[| 0; 2 |] (Graph.of_edges ~n:2 [ (0, 1) ])))

let test_pll_w_distance_limit () =
  (* 4096 vertices leave 62 - 12 = 50 bits for a packed distance *)
  let w = Wgraph.of_edges ~n:4096 [ (0, 1, 1 lsl 51) ] in
  Alcotest.check_raises "too large"
    (Invalid_argument "Pll.build_w: distance too large for a packed label")
    (fun () -> ignore (Pll.build_w w));
  let w = Wgraph.of_edges ~n:4096 [ (0, 1, (1 lsl 50) - 1) ] in
  Test_util.check_int "largest that fits" ((1 lsl 50) - 1)
    (Hub_label.query (Pll.build_w w) 0 1)

let test_pll_path_small_labels () =
  (* PLL with a centrality-first order on a path keeps labels roughly
     logarithmic (the default degree order is useless on a path) *)
  let n = 64 in
  let g = Generators.path n in
  (* recursive bisection order: midpoints first *)
  let order = Array.make n 0 in
  let pos = ref 0 in
  let q = Queue.create () in
  Queue.add (0, n - 1) q;
  while not (Queue.is_empty q) do
    let lo, hi = Queue.pop q in
    if lo <= hi then begin
      let mid = (lo + hi) / 2 in
      order.(!pos) <- mid;
      incr pos;
      Queue.add (lo, mid - 1) q;
      Queue.add (mid + 1, hi) q
    end
  done;
  let labels = Pll.build ~order g in
  Test_util.check_bool "exact" true (Cover.verify g labels);
  Test_util.check_bool "max size O(log n)" true
    (Hub_label.max_size labels <= 8);
  Test_util.check_bool "avg size far below n/2" true
    (Hub_label.avg_size labels < float_of_int n /. 4.0)

let test_pll_star () =
  let g = Generators.star 20 in
  let labels = Pll.build g in
  (* the centre dominates: every vertex stores the centre + itself *)
  Test_util.check_bool "tiny labels" true (Hub_label.avg_size labels <= 2.01);
  Test_util.check_bool "exact" true (Cover.verify g labels)

let random_hitting_exact =
  Test_util.qcheck "random-hitting scheme is exact after patching" ~count:40
    QCheck2.Gen.(pair Gen.small_connected_gen (int_range 1 6))
    (fun (params, d) ->
      let g = Gen.build_connected params in
      let labels, _ = Random_hitting.build ~rng:(Test_util.rng ()) ~d g in
      Cover.verify g labels)

let test_random_hitting_stats () =
  let rng = Test_util.rng () in
  let g = Generators.random_connected rng ~n:100 ~m:160 in
  let labels, stats = Random_hitting.build ~rng ~d:4 g in
  Test_util.check_bool "global hubs > 0" true (stats.Random_hitting.global_hubs > 0);
  Test_util.check_bool "ball total > 0" true (stats.Random_hitting.ball_total > 0);
  Test_util.check_bool "exact" true (Cover.verify g labels)

let greedy_landmark_exact =
  Test_util.qcheck "greedy landmark labeling is exact" ~count:25
    (Gen.connected_gen ~max_n:25 ~max_deg:2 ())
    (fun params ->
      let g = Gen.build_connected params in
      Cover.verify g (Greedy_landmark.build g))

let monotone_closure_props =
  Test_util.qcheck "monotone closure: superset, monotone, still exact"
    ~count:30 Gen.small_connected_gen (fun params ->
      let g = Gen.build_connected params in
      let labels = Pll.build g in
      let closed = Monotone.closure g labels in
      let superset =
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          Array.iter
            (fun (h, d) ->
              if Hub_label.dist_to_hub closed v ~hub:h <> Some d then ok := false)
            (Hub_label.hubs labels v)
        done;
        !ok
      in
      superset && Monotone.is_monotone g closed && Cover.verify g closed)

let test_is_monotone_negative () =
  let g = Generators.path 3 in
  (* hub 2 at distance 2 from 0 without the intermediate vertex 1 *)
  let labels = Hub_label.make ~n:3 [| [ (0, 0); (2, 2) ]; []; [] |] in
  Test_util.check_bool "detects gap" false (Monotone.is_monotone g labels)

let test_orders () =
  let g = Generators.star 5 in
  let o = Order.by_degree g in
  Test_util.check_int "centre first" 0 o.(0);
  Test_util.check_bool "permutation" true (Order.is_permutation o);
  let rk = Order.rank_of o in
  Test_util.check_int "rank of centre" 0 rk.(0);
  Test_util.check_bool "random order is a permutation" true
    (Order.is_permutation (Order.random (Test_util.rng ()) 17));
  Test_util.check_bool "closeness order is a permutation" true
    (Order.is_permutation
       (Order.by_closeness_sample g ~rng:(Test_util.rng ()) ~samples:3));
  Test_util.check_bool "not permutation" false (Order.is_permutation [| 0; 0 |])

let test_hub_stats () =
  let labels = Hub_label.make ~n:3 [| [ (0, 0) ]; [ (0, 1); (1, 0) ]; [] |] in
  Alcotest.(check (list (pair int int)))
    "histogram" [ (0, 1); (1, 1); (2, 1) ] (Hub_stats.histogram labels);
  Test_util.check_int "median" 1 (Hub_stats.quantile labels 0.5);
  Test_util.check_bool "bits positive" true (Hub_stats.bits_naive labels > 0);
  Test_util.check_bool "report mentions vertices" true
    (String.length (Hub_stats.report labels) > 0)

let pll_query_agrees_with_bfs =
  Test_util.qcheck "PLL query equals BFS distance pointwise" ~count:50
    Gen.small_connected_gen (fun params ->
      let g = Gen.build_connected params in
      let labels = Pll.build g in
      let n = Graph.n g in
      let u = 0 in
      let dist = Traversal.bfs g u in
      let ok = ref true in
      for v = 0 to n - 1 do
        if Hub_label.query labels u v <> dist.(v) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "make and query" `Quick test_label_make_and_query;
    Alcotest.test_case "disjoint hubsets" `Quick test_label_disjoint;
    Alcotest.test_case "duplicate handling" `Quick test_label_merge_duplicates;
    Alcotest.test_case "of_arrays checks" `Quick test_of_arrays_checks;
    Alcotest.test_case "stats" `Quick test_label_stats;
    Alcotest.test_case "union and restrict" `Quick test_label_union_restrict;
    Alcotest.test_case "cover violations" `Quick test_cover_violations;
    pll_exact_on_connected;
    pll_exact_on_disconnected;
    pll_exact_any_order;
    pll_stored_distances_exact;
    pll_weighted_exact;
    pll_weighted_random_weights;
    Alcotest.test_case "PLL on a path" `Quick test_pll_path_small_labels;
    Alcotest.test_case "PLL on a star" `Quick test_pll_star;
    pll_canonical_connected;
    pll_canonical_disconnected;
    pll_canonical_zero_weights;
    Alcotest.test_case "PLL rejects a non-permutation order" `Quick
      test_pll_rejects_non_permutation;
    Alcotest.test_case "weighted PLL distance limit" `Quick
      test_pll_w_distance_limit;
    random_hitting_exact;
    Alcotest.test_case "random hitting stats" `Quick test_random_hitting_stats;
    greedy_landmark_exact;
    monotone_closure_props;
    Alcotest.test_case "is_monotone negative" `Quick test_is_monotone_negative;
    Alcotest.test_case "orders" `Quick test_orders;
    Alcotest.test_case "hub stats" `Quick test_hub_stats;
    pll_query_agrees_with_bfs;
  ]
