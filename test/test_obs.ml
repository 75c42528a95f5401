(* Observability subsystem: deterministic histograms, manual clocks,
   trace records, the uniform Backend.S surface, and the differential
   check that the instrumented counters agree with the resilient
   oracle's own stats under fault injection. *)

open Repro_graph
open Repro_hub
open Repro_core
open Repro_serve
open Repro_obs

(* ----- Metrics: counters and gauges --------------------------------- *)

let test_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Test_util.check_int "counter" 5 (Metrics.counter_value c);
  Test_util.check_int "same name, same counter" 5
    (Metrics.counter_value (Metrics.counter r "c"));
  let g = Metrics.gauge r "g" in
  Metrics.set_gauge g 42;
  Metrics.set_gauge g 7;
  Test_util.check_int "gauge keeps last" 7 (Metrics.gauge_value g);
  Alcotest.check_raises "negative incr"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c);
  (* re-registering a name as another kind is a bug, not a metric *)
  Test_util.check_bool "kind mismatch raises" true
    (try
       ignore (Metrics.gauge r "c");
       false
     with Invalid_argument _ -> true)

(* ----- Metrics: histogram edge cases -------------------------------- *)

let test_histogram_empty () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  Test_util.check_int "empty count" 0 (Metrics.hist_count h);
  Test_util.check_int "empty p50" 0 (Metrics.percentile h 0.5);
  Test_util.check_int "empty p99" 0 (Metrics.percentile h 0.99);
  Test_util.check_int "empty max" 0 (Metrics.hist_max h)

let test_histogram_single_sample () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  Metrics.observe h 137;
  (* 137 lands in the (100, 250] bucket, but a single sample must
     report itself exactly: the bound is capped at max_seen *)
  Test_util.check_int "p50 = sample" 137 (Metrics.percentile h 0.5);
  Test_util.check_int "p99 = sample" 137 (Metrics.percentile h 0.99);
  Test_util.check_int "max = sample" 137 (Metrics.hist_max h);
  Test_util.check_int "sum = sample" 137 (Metrics.hist_sum h)

let test_histogram_zero_and_negative () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  Metrics.observe h 0;
  Metrics.observe h (-25);
  (* clamped to 0 *)
  Test_util.check_int "count" 2 (Metrics.hist_count h);
  Test_util.check_int "p99 of zeros" 0 (Metrics.percentile h 0.99);
  Test_util.check_int "sum of zeros" 0 (Metrics.hist_sum h)

let test_histogram_boundary () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10; 20; 30 |] r "h" in
  (* a value equal to a bucket's upper bound belongs to that bucket *)
  Metrics.observe h 10;
  Test_util.check_int "on-boundary p50" 10 (Metrics.percentile h 0.5);
  Metrics.observe h 11;
  (* rank ceil(0.99 * 2) = 2 -> second bucket (10, 20], capped at 11 *)
  Test_util.check_int "p99 capped at max" 11 (Metrics.percentile h 0.99)

let test_histogram_overflow () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10; 20 |] r "h" in
  Metrics.observe h 1_000_000;
  (* overflow bucket has no upper bound: percentiles report the true max *)
  Test_util.check_int "overflow p50" 1_000_000 (Metrics.percentile h 0.5);
  Metrics.observe h 5;
  (* p50 rank now falls in the first bucket; its upper bound is 10 *)
  Test_util.check_int "p50 back in range" 10 (Metrics.percentile h 0.5);
  Test_util.check_int "p99 still overflow max" 1_000_000
    (Metrics.percentile h 0.99)

let test_histogram_percentile_ranks () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1; 2; 3; 4; 5 |] r "h" in
  for v = 1 to 5 do
    Metrics.observe h v
  done;
  (* 5 samples, one per bucket: rank ceil(q*5) picks bucket q*5 *)
  Test_util.check_int "p20" 1 (Metrics.percentile h 0.2);
  Test_util.check_int "p50" 3 (Metrics.percentile h 0.5);
  Test_util.check_int "p90" 5 (Metrics.percentile h 0.9);
  Alcotest.check_raises "q = 0 rejected"
    (Invalid_argument "Metrics.percentile: q must lie in (0, 1]") (fun () ->
      ignore (Metrics.percentile h 0.0));
  Test_util.check_bool "bad buckets raise" true
    (try
       ignore (Metrics.histogram ~buckets:[| 5; 5 |] r "h2");
       false
     with Invalid_argument _ -> true)

(* ----- Manual clock -------------------------------------------------- *)

let test_manual_clock () =
  let m = Clock.manual ~start:100L () in
  let c = Clock.read m in
  Test_util.check_bool "reads start" true (c () = 100L);
  Clock.advance m 50L;
  Test_util.check_bool "advanced" true (c () = 150L);
  let auto = Clock.manual ~auto_step:7L () in
  let ca = Clock.read auto in
  Test_util.check_bool "auto first" true (ca () = 0L);
  Test_util.check_bool "auto second" true (ca () = 7L);
  Test_util.check_bool "now does not step" true (Clock.now auto = 14L)

(* ----- Instrumented snapshots are deterministic ---------------------- *)

let run_instrumented () =
  let g = Generators.grid ~rows:5 ~cols:5 in
  let labels = Pll.build g in
  let registry = Metrics.create () in
  let clock = Clock.read (Clock.manual ~auto_step:50L ()) in
  let b = Obs.instrument ~clock registry (Hub_label.pack labels).backend in
  let rng = Test_util.rng () in
  for _ = 1 to 40 do
    ignore
      (Backend.query b (Random.State.int rng 25) (Random.State.int rng 25))
  done;
  Metrics.snapshot registry

let test_snapshot_deterministic () =
  let s1 = run_instrumented () in
  let s2 = run_instrumented () in
  Test_util.check_bool "snapshots bit-identical" true (s1 = s2);
  (* under auto_step 50 every query takes exactly 50 simulated ns *)
  match Metrics.find_histogram s1 "hub-labeling.latency_ns" with
  | None -> Alcotest.fail "latency histogram missing"
  | Some h ->
      Test_util.check_int "count" 40 h.Metrics.count;
      Test_util.check_int "sum = 50 per query" 2000 h.Metrics.sum;
      Test_util.check_int "p50 = 50" 50 h.Metrics.p50;
      Test_util.check_int "p99 = 50" 50 h.Metrics.p99;
      Test_util.check_int "max = 50" 50 h.Metrics.max

let test_instrument_counts_errors () =
  let registry = Metrics.create () in
  let boom =
    Backend.make ~name:"boom" ~space_words:0 (fun _ _ -> failwith "boom")
  in
  let b = Obs.instrument registry boom in
  Test_util.check_bool "exception re-raised" true
    (try
       ignore (Backend.query b 0 0);
       false
     with Failure _ -> true);
  let s = Metrics.snapshot registry in
  Test_util.check_bool "error counted" true
    (Metrics.find_counter s "boom.errors" = Some 1);
  Test_util.check_bool "query counted" true
    (Metrics.find_counter s "boom.queries" = Some 1)

(* ----- Differential: registry counters == Resilient_oracle.stats ----- *)

let check_stats_mirrored oracle registry =
  let s = Resilient_oracle.stats oracle in
  let snap = Metrics.snapshot registry in
  let check name field =
    Test_util.check_int ("resilient." ^ name)
      field
      (Option.value ~default:(-1)
         (Metrics.find_counter snap ("resilient." ^ name)))
  in
  check "queries" s.Resilient_oracle.queries;
  check "primary_answers" s.Resilient_oracle.primary_answers;
  check "fallback_answers" s.Resilient_oracle.fallback_answers;
  check "spot_checks" s.Resilient_oracle.spot_checks;
  check "disagreements" s.Resilient_oracle.disagreements;
  check "faults" s.Resilient_oracle.faults;
  check "budget_exhausted" s.Resilient_oracle.budget_exhausted;
  check "validation_failures" s.Resilient_oracle.validation_failures;
  check "quarantines" s.Resilient_oracle.quarantines

let aggregate_requests rng n =
  let vertex () = Random.State.int rng n in
  [
    Ops.One_to_many
      { source = vertex (); targets = Array.init 6 (fun _ -> vertex ()) };
    Ops.Eccentricity (vertex ());
    Ops.Top_k_nearest { source = vertex (); k = 5 };
  ]

let test_differential_stats_vs_metrics () =
  let rng = Test_util.rng () in
  let g = Generators.random_connected rng ~n:80 ~m:160 in
  let labels = Pll.build g in
  let inj = Fault_injector.create ~seed:13 ~fraction:0.3 Fault_injector.Corrupt in
  let registry = Metrics.create () in
  let primary =
    Backend.make ~name:"faulty-hub" ~space_words:0
      (Fault_injector.wrap inj (Hub_label.query labels))
  in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~quarantine_after:5
      ~metrics:registry ~primary g
  in
  let ops oracle =
    List.iter
      (fun req -> ignore (Resilient_oracle.op oracle req))
      (aggregate_requests rng 80)
  in
  ops oracle;
  for _ = 1 to 150 do
    ignore (Resilient_oracle.query oracle (Random.State.int rng 80)
              (Random.State.int rng 80))
  done;
  ops oracle;
  (try ignore (Resilient_oracle.query oracle (-1) 0) with Invalid_argument _ -> ());
  Test_util.check_bool "faults actually injected" true
    (Fault_injector.injected inj > 0);
  check_stats_mirrored oracle registry;
  (* the pooled replay and the aggregate arm, under a pure primary that
     lies (corrupted labels) and skips on budget, plus an ops evaluator
     that raises on one request kind *)
  let registry = Metrics.create () in
  let lying = Fault_injector.corrupt_labels ~seed:3 ~fraction:0.2 labels in
  let budget = Hub_label.max_size lying + Hub_label.max_size lying / 2 in
  let flat = Flat_hub.of_labels labels in
  let primary_ops =
    Backend.make_ops ~name:"raising-ops" ~space_words:0
      ~n:80
      ~op:(fun req ->
        match (req :> Ops.request) with
        | Ops.Eccentricity _ -> failwith "raising ops"
        | req -> Ops.brute ~n:80 ~query:(Hub_label.query lying) req)
      (Flat_hub.query flat)
  in
  let oracle =
    Resilient_oracle.create ~step_budget:budget ~spot_check_every:2
      ~quarantine_after:10 ~metrics:registry ~primary_ops
      ~primary:
        (Resilient_oracle.store_primary ~step_budget:budget
           (Hub_label.pack lying))
      g
  in
  let pairs =
    Array.init 200 (fun _ -> (Random.State.int rng 80, Random.State.int rng 80))
  in
  ops oracle;
  Repro_par.Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Resilient_oracle.query_many ~pool oracle (Array.sub pairs 0 100));
      ops oracle;
      ignore
        (Resilient_oracle.query_many ~pool oracle (Array.sub pairs 100 100)));
  ops oracle;
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "budget skips, faults, strikes and a quarantine" true
    (s.Resilient_oracle.budget_exhausted > 0
    && s.Resilient_oracle.faults > 0
    && s.Resilient_oracle.disagreements > 0
    && s.Resilient_oracle.quarantines = 1);
  check_stats_mirrored oracle registry

(* ----- Backend uniformity: every exact backend agrees with BFS ------- *)

let test_backend_uniformity () =
  let rng = Test_util.rng () in
  let g = Generators.random_connected rng ~n:40 ~m:70 in
  let labels = Pll.build g in
  let flat = Flat_hub.of_labels ~cache_slots:64 labels in
  let backends =
    [
      (Hub_label.pack labels).backend;
      Flat_hub.backend flat;
      Resilient_oracle.backend
        (Resilient_oracle.create
           ~primary:(Resilient_oracle.store_primary (Hub_label.pack labels))
           g);
      Oracle.backend (Oracle.flat g flat);
      Oracle.backend (Oracle.of_backend (Hub_label.pack labels).backend);
    ]
  in
  List.iter
    (fun b ->
      Test_util.check_bool (Backend.name b ^ " has a name") true
        (String.length (Backend.name b) > 0);
      let truth = Traversal.bfs g 3 in
      for v = 0 to 39 do
        let d, tr = Backend.query_detailed b 3 v in
        if d <> truth.(v) then
          Alcotest.failf "%s: (3, %d) = %d, bfs %d" (Backend.name b) v d
            truth.(v);
        if tr.Trace.u <> 3 || tr.Trace.v <> v || tr.Trace.dist <> d then
          Alcotest.failf "%s: trace disagrees with answer" (Backend.name b)
      done)
    backends

(* ----- Trace records and the ring recorder --------------------------- *)

let test_trace_recorder () =
  let r = Trace.recorder ~capacity:3 in
  for i = 1 to 5 do
    Trace.record r (Trace.make ~source:"s" ~u:i ~v:i ~dist:i ())
  done;
  Test_util.check_int "seen all" 5 (Trace.seen r);
  let kept = List.map (fun t -> t.Trace.dist) (Trace.records r) in
  Test_util.check_bool "last 3, oldest first" true (kept = [ 3; 4; 5 ]);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Trace.recorder: capacity must be positive") (fun () ->
      ignore (Trace.recorder ~capacity:0))

let test_flat_cache_traces () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let flat = Flat_hub.of_labels ~cache_slots:32 (Pll.build g) in
  let b = Flat_hub.backend flat in
  let _, t1 = Backend.query_detailed b 0 15 in
  let _, t2 = Backend.query_detailed b 0 15 in
  Test_util.check_bool "first query misses" true (t1.Trace.cache = Trace.Miss);
  Test_util.check_bool "repeat hits" true (t2.Trace.cache = Trace.Hit);
  Test_util.check_int "hit scans nothing" 0 t2.Trace.entries_scanned;
  Test_util.check_bool "miss scans entries" true (t1.Trace.entries_scanned > 0)

(* ----- JSON export ---------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_export () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "a.queries");
  Metrics.observe (Metrics.histogram r "a.latency_ns") 137;
  let j = Metrics.to_json (Metrics.snapshot r) in
  List.iter
    (fun key ->
      Test_util.check_bool ("json has " ^ key) true (contains j ("\"" ^ key ^ "\"")))
    [ "counters"; "gauges"; "histograms"; "a.queries"; "p50_ns"; "p99_ns" ];
  let tr = Trace.make ~source:"bfs" ~u:1 ~v:2 ~dist:Dist.inf () in
  Test_util.check_bool "inf encoded as -1" true
    (contains (Trace.to_json tr) "\"dist\": -1")

(* ----- Oracle surface over the new backends --------------------------- *)

let test_oracle_flat_and_ext () =
  let g = Generators.grid ~rows:4 ~cols:4 in
  let labels = Pll.build g in
  let o = Oracle.flat g (Flat_hub.of_labels labels) in
  Test_util.check_bool "flat oracle named" true
    (Oracle.name o = "flat-hub-labeling");
  Test_util.check_bool "flat space positive" true (Oracle.space_words o > 0);
  let truth = Traversal.bfs g 0 in
  for v = 0 to 15 do
    Test_util.check_int "flat oracle exact" truth.(v) (Oracle.query o 0 v)
  done;
  let ext = Oracle.of_backend (Hub_label.pack labels).backend in
  Test_util.check_bool "ext keeps backend name" true
    (Oracle.name ext = "hub-labeling");
  Test_util.check_int "ext exact" truth.(15) (Oracle.query ext 0 15)

(* ----- Span: hierarchical timed phases -------------------------------- *)

let test_span_tree_deterministic () =
  let build () =
    let clock = Clock.read (Clock.manual ~auto_step:10L ()) in
    Span.profile ~clock ~name:"root" (fun () ->
        Span.run ~name:"child" (fun () ->
            Span.count "k" 2;
            Span.count "k" 3);
        Span.run ~name:"second" (fun () -> ()))
  in
  let (), t1 = build () in
  let (), t2 = build () in
  Test_util.check_bool "trees bit-identical" true (t1 = t2);
  (match t1.Span.children with
  | [ c1; c2 ] ->
      Alcotest.(check string) "first child" "child" c1.Span.name;
      Alcotest.(check string) "second child" "second" c2.Span.name;
      Test_util.check_bool "counter adds up" true
        (c1.Span.counters = [ ("k", 5) ]);
      Test_util.check_bool "child start offset" true (c1.Span.start_ns = 10L);
      Test_util.check_bool "child elapsed one step" true
        (c1.Span.elapsed_ns = 10L)
  | _ -> Alcotest.fail "expected exactly two children");
  (* reads: root start, 2x(child start/end), root end = 5 steps of 10 *)
  Test_util.check_bool "root elapsed covers children" true
    (Span.total_ns t1 = 50L)

let test_span_noop_outside_profile () =
  Test_util.check_bool "disabled outside profile" true (not (Span.enabled ()));
  let r =
    Span.run ~name:"free" (fun () ->
        Span.count "x" 1;
        41 + 1)
  in
  Test_util.check_int "run passes the value through" 42 r

let test_span_exception_safety () =
  let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
  let result =
    try
      let _ =
        Span.profile ~clock ~name:"root" (fun () ->
            Span.run ~name:"boom" (fun () -> failwith "boom"))
      in
      "no-raise"
    with Failure m -> m
  in
  Alcotest.(check string) "exception re-raised" "boom" result;
  Test_util.check_bool "context restored after raise" true
    (not (Span.enabled ()))

let test_span_records_raising_child () =
  let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
  let (), tree =
    Span.profile ~clock ~name:"root" (fun () ->
        try Span.run ~name:"fails" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  Test_util.check_bool "raising child still recorded" true
    (Span.find tree "fails" <> None)

let test_span_find_and_flame () =
  let clock = Clock.read (Clock.manual ~auto_step:10L ()) in
  let (), tree =
    Span.profile ~clock ~name:"a" (fun () ->
        Span.run ~name:"b" (fun () ->
            Span.run ~name:"c" (fun () -> Span.count "n" 7)))
  in
  Test_util.check_bool "find reaches depth 2" true
    (match Span.find tree "c" with
    | Some c -> c.Span.counters = [ ("n", 7) ]
    | None -> false);
  Test_util.check_bool "find misses absent name" true
    (Span.find tree "zzz" = None);
  let flame = Format.asprintf "%a" Span.pp_flame tree in
  List.iter
    (fun s ->
      Test_util.check_bool ("flame mentions " ^ String.trim s) true
        (contains flame s))
    [ "a"; "  b"; "    c"; "n=7"; "100.0%" ]

(* The instrumented pipelines expose exactly the documented phase names
   (docs/OBSERVABILITY.md); the @ci span smoke pins the same set from
   the outside. *)
let test_span_pipeline_phases () =
  let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
  let g = Generators.grid ~rows:4 ~cols:4 in
  let _, pll_tree = Span.profile ~clock ~name:"p" (fun () -> Pll.build g) in
  (match Span.find pll_tree "pll.build" with
  | None -> Alcotest.fail "pll.build span missing"
  | Some n ->
      Alcotest.(check (list string))
        "pll phases" [ "order"; "pruned-sweep" ]
        (List.map (fun c -> c.Span.name) n.Span.children));
  let rng = Test_util.rng () in
  let path = Generators.path 24 in
  let _, rs_tree =
    Span.profile ~clock ~name:"p" (fun () ->
        ignore (Rs_hub.build ~rng ~d:2 path))
  in
  match Span.find rs_tree "rs-hub.build" with
  | None -> Alcotest.fail "rs-hub.build span missing"
  | Some n ->
      Alcotest.(check (list string))
        "theorem 4.1 stages"
        [
          "distance-rows";
          "hitting-set";
          "d3-colouring";
          "conflict-sets";
          "koenig-covers";
          "hubsets";
        ]
        (List.map (fun c -> c.Span.name) n.Span.children)

(* ----- Events: structured log ----------------------------------------- *)

let test_events_ring_wraparound () =
  let clock = Clock.read (Clock.manual ~auto_step:5L ()) in
  let log = Events.create ~clock (Events.ring ~capacity:3) in
  for i = 1 to 5 do
    Events.emit log "e" [ ("i", Events.Int i) ]
  done;
  Test_util.check_int "emitted counts evicted too" 5 (Events.emitted log);
  let kept = List.map (fun e -> e.Events.fields) (Events.recent log) in
  Test_util.check_bool "last 3 oldest first" true
    (kept
    = [
        [ ("i", Events.Int 3) ]; [ ("i", Events.Int 4) ]; [ ("i", Events.Int 5) ];
      ]);
  let ts = List.map (fun e -> e.Events.ts_ns) (Events.recent log) in
  Test_util.check_bool "timestamps follow the clock" true
    (ts = [ 10L; 15L; 20L ]);
  Test_util.check_bool "capacity 0 rejected" true
    (try
       ignore (Events.ring ~capacity:0);
       false
     with Invalid_argument _ -> true)

let test_events_level_filter () =
  let clock = Clock.read (Clock.manual ~auto_step:5L ()) in
  let log =
    Events.create ~clock ~min_level:Events.Warn (Events.ring ~capacity:4)
  in
  Events.emit log ~level:Events.Debug "dropped" [];
  Events.emit log "dropped too" [];
  Events.emit log ~level:Events.Error "kept" [];
  Test_util.check_int "only the error passed the filter" 1 (Events.emitted log);
  match Events.recent log with
  | [ e ] ->
      Alcotest.(check string) "kept name" "kept" e.Events.name;
      (* dropped events never read the clock, so the survivor is at t=0 *)
      Test_util.check_bool "dropped events consume no clock" true
        (e.Events.ts_ns = 0L)
  | _ -> Alcotest.fail "expected exactly one retained event"

let test_events_ambient () =
  Events.emit_ambient "ignored" [];
  let log =
    Events.create
      ~clock:(Clock.read (Clock.manual ()))
      (Events.ring ~capacity:4)
  in
  Events.install log;
  Events.emit_ambient ~level:Events.Warn "seen" [ ("ok", Events.Bool true) ];
  Events.uninstall ();
  Events.emit_ambient "after uninstall" [];
  Test_util.check_int "exactly the installed-window emit" 1
    (Events.emitted log);
  Test_util.check_bool "uninstall clears" true (Events.installed () = None)

let test_events_from_hub_io () =
  let log = Events.create (Events.ring ~capacity:4) in
  Events.install log;
  (match Hub_io.of_string_res "2 0\n0 0\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  Events.uninstall ();
  let names = List.map (fun e -> e.Events.name) (Events.recent log) in
  Test_util.check_bool "hub_io parse failure flows to the ambient log" true
    (List.mem "hub_io.parse_failure" names)

(* ----- Trace recorder at/past capacity, reset ------------------------- *)

let test_trace_recorder_capacity_reset () =
  let r = Trace.recorder ~capacity:3 in
  for i = 1 to 3 do
    Trace.record r (Trace.make ~source:"s" ~u:i ~v:i ~dist:i ())
  done;
  Test_util.check_int "seen = capacity" 3 (Trace.seen r);
  Test_util.check_bool "exactly at capacity, in order" true
    (List.map (fun t -> t.Trace.dist) (Trace.records r) = [ 1; 2; 3 ]);
  Trace.record r (Trace.make ~source:"s" ~u:4 ~v:4 ~dist:4 ());
  Test_util.check_bool "one past capacity evicts the oldest" true
    (List.map (fun t -> t.Trace.dist) (Trace.records r) = [ 2; 3; 4 ]);
  Trace.reset r;
  Test_util.check_int "reset zeroes seen" 0 (Trace.seen r);
  Test_util.check_bool "reset drops records" true (Trace.records r = []);
  Trace.record r (Trace.make ~source:"s" ~u:9 ~v:9 ~dist:9 ());
  Test_util.check_bool "recorder usable after reset" true
    (List.map (fun t -> t.Trace.dist) (Trace.records r) = [ 9 ])

(* ----- Golden JSON: the export schema is pinned byte for byte --------- *)

let test_golden_metrics_json () =
  let r = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter r "q.queries");
  Metrics.set_gauge (Metrics.gauge r "g.depth") 2;
  let h = Metrics.histogram ~buckets:[| 100; 200; 400 |] r "q.latency_ns" in
  Metrics.observe h 100;
  Metrics.observe h 200;
  let expected =
    "{\n"
    ^ "  \"counters\": {\"q.queries\": 3},\n"
    ^ "  \"gauges\": {\"g.depth\": 2},\n"
    ^ "  \"histograms\": {\"q.latency_ns\": {\"count\": 2, \"sum_ns\": 300, \
       \"p50_ns\": 100, \"p90_ns\": 200, \"p99_ns\": 200, \"max_ns\": 200}}\n"
    ^ "}\n"
  in
  Alcotest.(check string)
    "metrics json" expected
    (Metrics.to_json (Metrics.snapshot r))

let test_golden_trace_json () =
  let tr =
    Trace.make ~entries_scanned:7 ~cache:Trace.Hit ~fallback_hops:1
      ~source:"flat" ~u:1 ~v:2 ~dist:5 ()
  in
  Alcotest.(check string)
    "trace json"
    "{\"u\": 1, \"v\": 2, \"dist\": 5, \"source\": \"flat\", \
     \"entries_scanned\": 7, \"cache\": \"hit\", \"fallback_hops\": 1}"
    (Trace.to_json tr)

let test_golden_span_json () =
  let clock = Clock.read (Clock.manual ~auto_step:10L ()) in
  let (), tree =
    Span.profile ~clock ~name:"root" (fun () ->
        Span.run ~name:"child" (fun () -> Span.count "k" 2))
  in
  Alcotest.(check string)
    "span json"
    "{\"name\": \"root\", \"start_ns\": 0, \"elapsed_ns\": 30, \"counters\": \
     {}, \"children\": [{\"name\": \"child\", \"start_ns\": 10, \
     \"elapsed_ns\": 10, \"counters\": {\"k\": 2}, \"children\": []}]}"
    (Span.to_json tree)

let test_golden_events_json () =
  let clock = Clock.read (Clock.manual ~auto_step:5L ()) in
  let log = Events.create ~clock (Events.ring ~capacity:2) in
  Events.emit log ~level:Events.Warn "ev"
    [
      ("a", Events.Int 1);
      ("b", Events.Str "x\"y");
      ("c", Events.Bool true);
      ("d", Events.Float 1.5);
    ];
  match Events.recent log with
  | [ e ] ->
      Alcotest.(check string)
        "event json"
        "{\"ts_ns\": 0, \"level\": \"warn\", \"event\": \"ev\", \"fields\": \
         {\"a\": 1, \"b\": \"x\\\"y\", \"c\": true, \"d\": 1.5}}"
        (Events.to_json e)
  | _ -> Alcotest.fail "expected one event"

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: single sample" `Quick
      test_histogram_single_sample;
    Alcotest.test_case "histogram: zero/negative" `Quick
      test_histogram_zero_and_negative;
    Alcotest.test_case "histogram: bucket boundary" `Quick
      test_histogram_boundary;
    Alcotest.test_case "histogram: overflow bucket" `Quick
      test_histogram_overflow;
    Alcotest.test_case "histogram: percentile ranks" `Quick
      test_histogram_percentile_ranks;
    Alcotest.test_case "manual clock" `Quick test_manual_clock;
    Alcotest.test_case "snapshot deterministic under fake clock" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "instrument counts errors" `Quick
      test_instrument_counts_errors;
    Alcotest.test_case "differential: metrics == stats" `Quick
      test_differential_stats_vs_metrics;
    Alcotest.test_case "backend uniformity vs BFS" `Quick
      test_backend_uniformity;
    Alcotest.test_case "trace ring recorder" `Quick test_trace_recorder;
    Alcotest.test_case "flat cache hit/miss traces" `Quick
      test_flat_cache_traces;
    Alcotest.test_case "json export" `Quick test_json_export;
    Alcotest.test_case "oracle over flat/ext backends" `Quick
      test_oracle_flat_and_ext;
    Alcotest.test_case "span: deterministic tree" `Quick
      test_span_tree_deterministic;
    Alcotest.test_case "span: no-op outside profile" `Quick
      test_span_noop_outside_profile;
    Alcotest.test_case "span: exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "span: raising child recorded" `Quick
      test_span_records_raising_child;
    Alcotest.test_case "span: find + flame report" `Quick
      test_span_find_and_flame;
    Alcotest.test_case "span: pipeline phase names" `Quick
      test_span_pipeline_phases;
    Alcotest.test_case "events: ring wraparound" `Quick
      test_events_ring_wraparound;
    Alcotest.test_case "events: level filter" `Quick test_events_level_filter;
    Alcotest.test_case "events: ambient install" `Quick test_events_ambient;
    Alcotest.test_case "events: hub_io parse failure" `Quick
      test_events_from_hub_io;
    Alcotest.test_case "trace recorder: capacity + reset" `Quick
      test_trace_recorder_capacity_reset;
    Alcotest.test_case "golden: metrics json" `Quick test_golden_metrics_json;
    Alcotest.test_case "golden: trace json" `Quick test_golden_trace_json;
    Alcotest.test_case "golden: span json" `Quick test_golden_span_json;
    Alcotest.test_case "golden: events json" `Quick test_golden_events_json;
  ]
