(* Tests for the resilient serving layer: budgeted search, deterministic
   fault injection, the degradation chain, quarantine, and Hub_verify.

   The acceptance scenario of docs/ROBUSTNESS.md lives in
   [test_acceptance_corrupted_backend]: with 20% of queries corrupted
   at the hub-label backend, the resilient oracle still returns the
   exact BFS distance for every sampled pair, quarantines the backend,
   and logs nonzero fallback and quarantine counts. *)

open Repro_graph
open Repro_hub
open Repro_serve

let rng () = Random.State.make [| 0xFA17 |]
let sample_graph () = Generators.random_connected (rng ()) ~n:60 ~m:120

(* ----- Budget_search ------------------------------------------------- *)

let test_budget_search_exact () =
  let g = Generators.random_connected (rng ()) ~n:30 ~m:45 in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    let dist = Traversal.bfs g u in
    for v = 0 to n - 1 do
      match Budget_search.bidirectional g ~budget:max_int u v with
      | Some d -> Test_util.check_int "bidirectional = bfs" dist.(v) d
      | None -> Alcotest.fail "unlimited budget must not exhaust"
    done
  done

let test_budget_search_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  (match Budget_search.bidirectional g ~budget:max_int 0 3 with
  | Some d -> Test_util.check_bool "inf" false (Dist.is_finite d)
  | None -> Alcotest.fail "must certify disconnection");
  match Budget_search.bidirectional g ~budget:max_int 0 1 with
  | Some d -> Test_util.check_int "adjacent" 1 d
  | None -> Alcotest.fail "must answer"

let test_budget_search_exhaustion () =
  let g = Generators.path 200 in
  (match Budget_search.bidirectional g ~budget:4 0 199 with
  | None -> ()
  | Some _ -> Alcotest.fail "budget 4 cannot certify a distance-199 pair");
  match Budget_search.bidirectional g ~budget:4 0 1 with
  | Some d -> Test_util.check_int "cheap pair within budget" 1 d
  | None -> Alcotest.fail "adjacent pair fits in budget"

(* ----- Fault_injector ------------------------------------------------ *)

let test_injector_deterministic () =
  let run () =
    let inj = Fault_injector.create ~seed:11 ~fraction:0.5 Fault_injector.Corrupt in
    let f = Fault_injector.wrap inj (fun u v -> (10 * u) + v) in
    let outs = List.init 50 (fun i -> f i (i + 1)) in
    (outs, Fault_injector.injected inj)
  in
  let a, ia = run () and b, ib = run () in
  Test_util.check_bool "same outputs" true (a = b);
  Test_util.check_int "same injected count" ia ib;
  Test_util.check_bool "some injected" true (ia > 0);
  Test_util.check_bool "not all injected" true (ia < 50)

let test_injector_fractions () =
  let count fraction mode =
    let inj = Fault_injector.create ~seed:3 ~fraction mode in
    let f = Fault_injector.wrap inj (fun _ _ -> 7) in
    for i = 0 to 99 do
      ignore (try f i i with Fault_injector.Injected_failure -> -1)
    done;
    Fault_injector.injected inj
  in
  Test_util.check_int "fraction 0" 0 (count 0.0 Fault_injector.Corrupt);
  Test_util.check_int "fraction 1" 100 (count 1.0 Fault_injector.Fail)

let test_injector_corrupts_value () =
  let inj = Fault_injector.create ~seed:5 ~fraction:1.0 Fault_injector.Corrupt in
  let f = Fault_injector.wrap inj (fun _ _ -> 10) in
  for i = 0 to 20 do
    let d = f i i in
    Test_util.check_bool "corrupted differs" true (d <> 10 && d >= 0)
  done

let test_corrupt_labels () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let bad = Fault_injector.corrupt_labels ~seed:1 ~fraction:0.3 labels in
  Test_util.check_int "same n" (Hub_label.n labels) (Hub_label.n bad);
  Test_util.check_int "same total" (Hub_label.total_size labels)
    (Hub_label.total_size bad);
  Test_util.check_bool "clean verifies" true (Cover.verify g labels);
  Test_util.check_bool "corrupted fails cover" false (Cover.verify g bad)

(* ----- Resilient_oracle ---------------------------------------------- *)

let truth_table g =
  Array.init (Graph.n g) (fun u -> Traversal.bfs g u)

let random_pairs r n k = List.init k (fun _ -> (Random.State.int r n, Random.State.int r n))

let test_resilient_clean_primary () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1
      ~primary:(Resilient_oracle.store_primary (Hub_label.pack labels))
      g
  in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact" truth.(u).(v) (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 200);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_int "no disagreements" 0 s.Resilient_oracle.disagreements;
  Test_util.check_int "no fallbacks" 0 s.Resilient_oracle.fallback_answers;
  Test_util.check_int "no quarantine" 0 s.Resilient_oracle.quarantines;
  Test_util.check_int "all primary" 200 s.Resilient_oracle.primary_answers;
  Test_util.check_bool "not quarantined" false (Resilient_oracle.quarantined oracle)

(* The ISSUE acceptance criterion. *)
let test_acceptance_corrupted_backend () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let inj = Fault_injector.create ~seed:7 ~fraction:0.2 Fault_injector.Corrupt in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~quarantine_after:3
      ~primary:
        (Repro_obs.Backend.make ~name:"faulty-hub" ~space_words:0
           (Fault_injector.wrap inj (Hub_label.query labels)))
      g
  in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact under 20% corruption" truth.(u).(v)
        (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 300);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "faults were injected" true (Fault_injector.injected inj > 0);
  Test_util.check_bool "nonzero disagreements" true
    (s.Resilient_oracle.disagreements > 0);
  Test_util.check_bool "nonzero fallbacks" true
    (s.Resilient_oracle.fallback_answers > 0);
  Test_util.check_int "quarantined once" 1 s.Resilient_oracle.quarantines;
  Test_util.check_bool "backend quarantined" true
    (Resilient_oracle.quarantined oracle);
  Test_util.check_int "accounting adds up" s.Resilient_oracle.queries
    (s.Resilient_oracle.primary_answers + s.Resilient_oracle.fallback_answers)

let test_resilient_failing_backend () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let inj = Fault_injector.create ~seed:9 ~fraction:0.3 Fault_injector.Fail in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~quarantine_after:5
      ~primary:
        (Repro_obs.Backend.make ~name:"crashy-hub" ~space_words:0
           (Fault_injector.wrap inj (Hub_label.query labels)))
      g
  in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact under failures" truth.(u).(v)
        (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 100);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "faults contained" true (s.Resilient_oracle.faults > 0);
  Test_util.check_bool "quarantined" true (Resilient_oracle.quarantined oracle)

let test_resilient_budget_degrades_to_bfs () =
  let g = Generators.path 300 in
  let oracle = Resilient_oracle.create ~step_budget:8 g in
  Test_util.check_int "far pair exact via BFS" 299
    (Resilient_oracle.query oracle 0 299);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "budget was exhausted" true
    (s.Resilient_oracle.budget_exhausted > 0);
  Test_util.check_int "served by fallback" 1 s.Resilient_oracle.fallback_answers

let test_resilient_label_budget () =
  let g = sample_graph () in
  let labels = Pll.build g in
  (* A scan budget of 1 can never fit |S(u)| + |S(v)|: the primary is
     skipped on budget grounds (no strike), answers stay exact. *)
  let oracle =
    Resilient_oracle.create ~step_budget:1
      ~primary:
        (Resilient_oracle.store_primary ~step_budget:1 (Hub_label.pack labels))
      g
  in
  let truth = truth_table g in
  ignore (Resilient_oracle.query oracle 0 5);
  Test_util.check_int "exact" truth.(0).(5) (Resilient_oracle.query oracle 0 5);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "budget exhaustion logged" true
    (s.Resilient_oracle.budget_exhausted > 0);
  Test_util.check_int "no strikes for budget skips" 0
    s.Resilient_oracle.disagreements;
  Test_util.check_bool "not quarantined" false (Resilient_oracle.quarantined oracle)

let test_resilient_validation () =
  let g = sample_graph () in
  let oracle = Resilient_oracle.create g in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Resilient_oracle.query: vertex out of range") (fun () ->
      ignore (Resilient_oracle.query oracle 0 (Graph.n g)));
  let s = Resilient_oracle.stats oracle in
  Test_util.check_int "validation failure logged" 1
    s.Resilient_oracle.validation_failures;
  Test_util.check_int "not counted as a query" 0 s.Resilient_oracle.queries

(* The point path boxes nothing but its (distance, source) result: a
   warmed query over a cache-free flat or assoc primary, spot checks
   off, costs at most the 3 words of that tuple. The bound allows 16 words for the
   measurement itself (the boxed float [Gc.minor_words] returns). *)
let test_resilient_point_alloc () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let n = Graph.n g and queries = 20_000 in
  let pairs = Array.init queries (fun i -> (i mod n, i * 7 mod n)) in
  List.iter
    (fun (name, store) ->
      let oracle =
        Resilient_oracle.create ~spot_check_every:0
          ~primary:(Resilient_oracle.store_primary store) g
      in
      let acc = ref 0 in
      Array.iter
        (fun (u, v) -> acc := !acc + Resilient_oracle.query oracle u v)
        pairs;
      let before = Gc.minor_words () in
      for i = 0 to queries - 1 do
        let u, v = pairs.(i) in
        acc := !acc + Resilient_oracle.query oracle u v
      done;
      let words = Gc.minor_words () -. before in
      ignore (Sys.opaque_identity !acc);
      Test_util.check_bool
        (Printf.sprintf "%s: %.2f minor words per query <= 3" name
           (words /. float_of_int queries))
        true
        (words <= float_of_int ((3 * queries) + 16)))
    [
      ("flat", Flat_hub.pack (Flat_hub.of_labels labels));
      ("assoc", Hub_label.pack labels);
    ]

(* ----- Hub_verify ---------------------------------------------------- *)

let test_hub_verify_clean () =
  let g = sample_graph () in
  let labels = Pll.build g in
  (match Hub_verify.structural g labels with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let report = Hub_verify.verify ~samples:6 ~rng:(rng ()) g labels in
  Test_util.check_bool "clean labeling verifies" true (Hub_verify.ok report);
  Test_util.check_int "entries" (Hub_label.total_size labels)
    report.Hub_verify.entries

let test_hub_verify_corrupted () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let bad = Fault_injector.corrupt_labels ~seed:2 ~fraction:0.25 labels in
  let report = Hub_verify.verify ~samples:10 ~rng:(rng ()) g bad in
  Test_util.check_bool "corruption detected" false (Hub_verify.ok report);
  Test_util.check_bool "stored mismatches seen" true
    (report.Hub_verify.stored_mismatches > 0
    || report.Hub_verify.cover_violations > 0)

let test_hub_verify_structural () =
  let g = sample_graph () in
  let mismatched = Hub_label.make ~n:3 [| [ (0, 0) ]; [ (1, 0) ]; [ (2, 0) ] |] in
  (match Hub_verify.structural g mismatched with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "n mismatch must fail structural check");
  let impossible =
    Hub_label.make ~n:(Graph.n g)
      (Array.init (Graph.n g) (fun v -> [ (v, if v = 0 then 10_000 else 0) ]))
  in
  match Hub_verify.structural g impossible with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "impossible stored distance must fail"

let suite =
  [
    Alcotest.test_case "budgeted bidirectional matches BFS" `Quick
      test_budget_search_exact;
    Alcotest.test_case "budgeted search certifies disconnection" `Quick
      test_budget_search_disconnected;
    Alcotest.test_case "budget exhaustion returns None" `Quick
      test_budget_search_exhaustion;
    Alcotest.test_case "fault injector is deterministic" `Quick
      test_injector_deterministic;
    Alcotest.test_case "fault injector fraction endpoints" `Quick
      test_injector_fractions;
    Alcotest.test_case "corrupt mode returns wrong values" `Quick
      test_injector_corrupts_value;
    Alcotest.test_case "corrupt_labels breaks exactness only" `Quick
      test_corrupt_labels;
    Alcotest.test_case "clean primary serves everything" `Quick
      test_resilient_clean_primary;
    Alcotest.test_case "ACCEPTANCE: exact under 20% corruption" `Quick
      test_acceptance_corrupted_backend;
    Alcotest.test_case "failing backend is contained" `Quick
      test_resilient_failing_backend;
    Alcotest.test_case "step budget degrades to BFS" `Quick
      test_resilient_budget_degrades_to_bfs;
    Alcotest.test_case "label-scan budget skips primary" `Quick
      test_resilient_label_budget;
    Alcotest.test_case "query validation is logged" `Quick
      test_resilient_validation;
    Alcotest.test_case "warmed point query allocates <= 3 words" `Quick
      test_resilient_point_alloc;
    Alcotest.test_case "Hub_verify accepts clean labelings" `Quick
      test_hub_verify_clean;
    Alcotest.test_case "Hub_verify flags corrupted labelings" `Quick
      test_hub_verify_corrupted;
    Alcotest.test_case "Hub_verify structural checks" `Quick
      test_hub_verify_structural;
  ]
