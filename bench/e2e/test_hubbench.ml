(* Unit tests of the hubbench statistics, result files and verdicts. *)

open Hubbench_core

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.abs b)
let check_float msg expected got = Alcotest.(check bool) (Printf.sprintf "%s: %g ~ %g" msg expected got) true (feq expected got)

let percentile_rule () =
  Alcotest.(check bool) "1000 samples support p99" true (Stats.supports ~n:1000 0.99);
  Alcotest.(check bool) "999 samples do not" false (Stats.supports ~n:999 0.99);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check bool) "10k samples support p99.9" true (Stats.supports ~n:10_000 0.999);
  Alcotest.(check bool) "9999 samples do not" false (Stats.supports ~n:9_999 0.999);
  Alcotest.(check bool) "100 samples support p90" true (Stats.supports ~n:100 0.9);
  Alcotest.(check bool) "20 samples support p50" true (Stats.supports ~n:20 0.5);
  Alcotest.(check bool) "19 samples do not" false (Stats.supports ~n:19 0.5);
  let s = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "nearest-rank p99" 99 (Stats.percentile s 0.99);
  Alcotest.(check int) "nearest-rank p50" 50 (Stats.percentile s 0.5);
  check_float "interpolated within a run of ties" 2.0 (Stats.interpolated [| 1; 2; 2; 3 |] 0.5);
  check_float "constant sample, p50" 5.0 (Stats.interpolated [| 5; 5; 5; 5 |] 0.5);
  check_float "constant sample, p99" 7.49 (Stats.interpolated (Array.make 100 7) 0.99);
  check_float "distinct values: top of the rank's bucket" 50.5 (Stats.interpolated s 0.5)

let quartiles () =
  (* reference values from Python's statistics.quantiles(n=4) *)
  let q a = Stats.quartiles a in
  let eq msg (a, b, c) (x, y, z) =
    check_float (msg ^ " q1") a x; check_float (msg ^ " q2") b y; check_float (msg ^ " q3") c z
  in
  eq "1..10" (2.75, 5.5, 8.25) (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  eq "5,1,3" (1., 3., 5.) (q [| 5.; 1.; 3. |]);
  eq "2,4" (1.5, 3., 4.5) (q [| 2.; 4. |]);
  check_float "median even" 3.5 (Stats.median [| 4.; 1.; 3.; 6. |]);
  check_float "constant spread" 0. (Stats.rel_spread [| 7.; 7.; 7. |])

let least_squares () =
  let a, b, r2 = Stats.fit_line (Array.init 10 (fun i -> (float_of_int i, 3. +. (2. *. float_of_int i), 1.))) in
  check_float "intercept" 3. a;
  check_float "slope" 2. b;
  check_float "r2" 1. r2;
  (* per-query samples ns = 100 + 5 * entries, a few preempted outliers:
     the binned medians recover the line *)
  let entries = Array.init 3200 (fun i -> 10 + (i mod 320)) in
  let ns = Array.mapi (fun i e -> 100 + (5 * e) + if i mod 97 = 0 then 50_000 else 0) entries in
  let a, b, r2 = Stats.cost_fit ~entries ~ns () in
  Alcotest.(check bool) (Printf.sprintf "fixed ~100 (%g)" a) true (Float.abs (a -. 100.) < 5.);
  Alcotest.(check bool) (Printf.sprintf "ns/entry ~5 (%g)" b) true (Float.abs (b -. 5.) < 0.05);
  Alcotest.(check bool) (Printf.sprintf "r2 ~1 (%g)" r2) true (r2 > 0.999)

let zipf () =
  let z = Stats.Zipf.create ~s:0.99 ~n:2048 in
  let draw seed = let rng = Random.State.make [| seed |] in Array.init 5000 (fun _ -> Stats.Zipf.sample z rng) in
  Alcotest.(check (array int)) "same seed, same ranks" (draw 7) (draw 7);
  Alcotest.(check bool) "another seed differs" true (draw 7 <> draw 8);
  let d = draw 7 in
  Alcotest.(check bool) "ranks in range" true (Array.for_all (fun r -> r >= 0 && r < 2048) d);
  let count r = Array.fold_left (fun a x -> if x = r then a + 1 else a) 0 d in
  Alcotest.(check bool) "rank 0 beats rank 100" true (count 0 > 10 * count 100)

let spec name = Option.get (Spec.find name)

let verdicts () =
  let v name a b = Report.verdict_name (Report.verdict (spec name) (Array.of_list a) (Array.of_list b)) in
  let base = [ 10.0; 10.1; 9.9; 10.05; 9.95 ] in
  let bound = Option.get (spec "p50_us").bound in
  let scaled f = List.map (( *. ) f) base in
  Alcotest.(check string) "same numbers" "ok" (v "p50_us" base base);
  Alcotest.(check string) "slower by half the bound" "ok" (v "p50_us" base (scaled (1. +. (bound /. 2.))));
  Alcotest.(check string) "slower by 1.5 bounds" "regressed"
    (v "p50_us" base (scaled (1. +. (1.5 *. bound))));
  Alcotest.(check string) "spread wider than bound" "unresolved"
    (v "p50_us" base [ 6.; 10.; 14.; 18.; 8. ]);
  Alcotest.(check string) "wide but every run better" "ok"
    (v "p50_us" base [ 3.; 6.; 9.; 4.5; 7.5 ]);
  Alcotest.(check string) "throughput drop is a regression" "regressed"
    (v "qps" base (scaled (1. -. (1.5 *. bound))));
  Alcotest.(check string) "throughput rise is fine" "ok" (v "qps" base (List.map (( *. ) 1.3) base));
  Alcotest.(check string) "any failure increase" "regressed" (v "failed_frac" [ 0.; 0. ] [ 0.; 0.001 ]);
  Alcotest.(check string) "no failures" "ok" (v "failed_frac" [ 0.; 0. ] [ 0.; 0. ]);
  Alcotest.(check string) "per-layer has no bound" "-" (v "wire.codec_ns" base (List.map (( *. ) 2.) base))

let sample_run =
  {
    Report.workload = "routed-point";
    seed = 42;
    traced = false;
    correct = true;
    attempted = 123_456;
    failed = 0;
    answers_sha256 = "ab\"c\\d";
    params = [ ("n", 2000.); ("rounds", 5.) ];
    metrics =
      [
        Report.metric ~name:"p50_us" ~unit_:"us" [ 11.234567891234; 0.1; 1e-7; 123456.789 ];
        Report.metric ~name:"setup_s" ~unit_:"s" [ 0.8127 ];
      ];
  }

let round_trip () =
  let s = Json.to_string (Report.file_to_json [ sample_run; { sample_run with seed = 43; traced = true } ]) in
  match Report.file_of_string s with
  | Error e -> Alcotest.fail e
  | Ok runs ->
      Alcotest.(check int) "two runs" 2 (List.length runs);
      Alcotest.(check bool) "first run equal" true (List.hd runs = sample_run);
      Alcotest.(check bool) "second run traced" true (List.nth runs 1).traced;
      Alcotest.(check bool) "malformed input is an error" true
        (Result.is_error (Report.file_of_string "{\"runs\": [1,"))

let summary_line () =
  match Json.of_string (Report.summary_line ~set:Spec.end_to_end [ sample_run ]) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let m = Json.member "metrics" j in
      Alcotest.(check int) "every end-to-end metric" (List.length Spec.end_to_end)
        (match m with Json.Obj l -> List.length l | _ -> 0);
      check_float "p50 median" (Report.metric ~name:"" ~unit_:"" [ 11.234567891234; 0.1; 1e-7; 123456.789 ]).value
        (Json.to_float (Json.member "value" (Json.member "p50_us" m)));
      Alcotest.(check int) "attempted" 123_456 (Json.to_int (Json.member "attempted" j))

(* BENCHMARK.json at the repository root names the same workloads and
   metrics, with the same units, directions and bounds. *)
let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let names key = List.map (fun x -> Json.to_str (Json.member "name" x)) (Json.to_list (Json.member key j)) in
      Alcotest.(check (list string)) "workloads" Spec.workload_names (names "workloads");
      List.iter2
        (fun x (w : Spec.workload) -> Alcotest.(check string) "why" w.why (Json.to_str (Json.member "why" x)))
        (Json.to_list (Json.member "workloads" j)) Spec.workloads;
      let same key (set : Spec.metric list) =
        Alcotest.(check (list string)) key (List.map (fun (m : Spec.metric) -> m.name) set) (names key);
        List.iter2
          (fun x (m : Spec.metric) ->
            Alcotest.(check string) (m.name ^ " unit") m.unit_ (Json.to_str (Json.member "unit" x));
            Alcotest.(check string) (m.name ^ " better") (Spec.better_name m.better)
              (Json.to_str (Json.member "better" x));
            Option.iter
              (fun b -> check_float (m.name ^ " bound") b (Json.to_float (Json.member "bound" x)))
              m.bound)
          (Json.to_list (Json.member key j)) set
      in
      same "end_to_end" Spec.end_to_end;
      same "per_layer" Spec.per_layer

let () =
  Alcotest.run "hubbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "quartiles match Python" `Quick quartiles;
          Alcotest.test_case "least-squares cost fit" `Quick least_squares;
          Alcotest.test_case "zipf sampler is seeded" `Quick zipf;
        ] );
      ( "report",
        [
          Alcotest.test_case "compare verdicts" `Quick verdicts;
          Alcotest.test_case "result json round trip" `Quick round_trip;
          Alcotest.test_case "summary line" `Quick summary_line;
          Alcotest.test_case "BENCHMARK.json matches the spec" `Quick benchmark_json;
        ] );
    ]
