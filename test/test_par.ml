(* Determinism suite for the multicore layer (lib/par + every call
   site that took a [?pool]). The contract under test: for a fixed
   seed, labels, stats, span JSON and batch answers are byte-identical
   whatever the job count — parallelism must never show through in any
   output, only in wall-clock time. Plus unit tests for the pool
   combinators themselves and the SHA-256 used to pin the artifacts. *)

open Repro_graph
open Repro_hub
open Repro_core
open Repro_serve
module Pool = Repro_par.Pool
module Checksum = Repro_par.Checksum
module Span = Repro_obs.Span
module Clock = Repro_obs.Clock

let rng seed = Random.State.make [| seed |]

(* --- pool combinators --------------------------------------------- *)

let test_parallel_for_covers () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let n = 237 in
          let hits = Array.make n 0 in
          Pool.parallel_for pool ~n (fun ~slot:_ lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          Array.iteri
            (fun i h ->
              if h <> 1 then
                Alcotest.failf "jobs=%d: index %d visited %d times" jobs i h)
            hits))
    [ 1; 2; 4; 7 ]

let test_map_chunks_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let ranges = Pool.map_chunks pool ~n:100 (fun ~slot:_ lo hi -> (lo, hi)) in
          let last = ref 0 in
          Array.iter
            (fun (lo, hi) ->
              Test_util.check_int "contiguous" !last lo;
              Test_util.check_bool "nonempty" true (hi > lo);
              last := hi)
            ranges;
          Test_util.check_int "covers 0..n" 100 !last))
    [ 1; 3; 4 ]

let test_init_matches_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let f i = (i * 37) mod 101 in
      Alcotest.(check (array int))
        "Pool.init = Array.init" (Array.init 1000 f)
        (Pool.init pool 1000 f))

let test_reduce_chunks_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* string concatenation is order-sensitive: the fold must see the
         chunks in index order *)
      let s =
        Pool.reduce_chunks pool ~n:50 ~init:""
          ~fold:(fun acc part -> acc ^ part)
          (fun ~slot:_ lo hi ->
            String.concat ""
              (List.map string_of_int (List.init (hi - lo) (fun k -> lo + k))))
      in
      Alcotest.(check string)
        "ordered fold"
        (String.concat "" (List.init 50 string_of_int))
        s)

exception Boom of int

let test_exception_lowest_chunk () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.parallel_for pool ~chunks:16 ~n:160 (fun ~slot:_ lo _ ->
            if lo >= 40 then raise (Boom lo))
      with
      | () -> Alcotest.fail "expected an exception"
      | exception Boom lo ->
          (* chunk boundaries for n=160, chunks=16 are multiples of 10;
             the first failing chunk starts at 40 *)
          Test_util.check_int "lowest failing chunk wins" 40 lo)

let test_nested_submission_inline () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let n = 24 in
      let out = Array.make n 0 in
      Pool.parallel_for pool ~n (fun ~slot:_ lo hi ->
          for i = lo to hi - 1 do
            (* a submission from inside a worker task must run inline
               rather than deadlock on the busy pool *)
            Pool.parallel_for pool ~n:1 (fun ~slot:_ _ _ -> out.(i) <- i + 1)
          done);
      Array.iteri (fun i v -> Test_util.check_int "nested ran" (i + 1) v) out)

let test_run_list_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let thunks = List.init 9 (fun i () -> i * i) in
      Alcotest.(check (list int))
        "input order" (List.init 9 (fun i -> i * i))
        (Pool.run_list pool thunks))

let test_jobs_clamped () =
  Pool.with_pool ~jobs:1 (fun pool -> Test_util.check_int "one" 1 (Pool.jobs pool));
  Pool.with_pool ~jobs:5 (fun pool -> Test_util.check_int "five" 5 (Pool.jobs pool));
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs must be positive") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_shutdown_idempotent_then_inline () =
  let pool = Pool.create ~jobs:3 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let acc = ref 0 in
  Pool.parallel_for pool ~n:10 (fun ~slot:_ lo hi ->
      for _ = lo to hi - 1 do
        incr acc
      done);
  Test_util.check_int "inline after shutdown" 10 !acc

(* --- SHA-256 (FIPS 180-4 vectors) --------------------------------- *)

let test_sha256_vectors () =
  let check input expect =
    Alcotest.(check string) ("sha256 " ^ String.escaped input) expect
      (Checksum.sha256_hex input)
  in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check (String.make 1000 'a')
    "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"

(* --- byte-identity across job counts ------------------------------ *)

(* One full RS-hub construction under a manual clock, digested. *)
let rs_hub_digest ~seed jobs =
  Pool.with_pool ~jobs (fun pool ->
      let g = Generators.random_bounded_degree (rng seed) ~n:24 ~d:3 in
      let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
      let (labels, stats), span =
        Span.profile ~clock ~name:"par-test" (fun () ->
            Rs_hub.build ~rng:(rng (seed + 1)) ~d:3 ~pool g)
      in
      let stats_repr =
        Printf.sprintf "%d %d %d %d %d %d %d %d %d" stats.Rs_hub.d
          stats.Rs_hub.n stats.Rs_hub.global_size stats.Rs_hub.q_total
          stats.Rs_hub.r_total stats.Rs_hub.f_total stats.Rs_hub.bucket_count
          stats.Rs_hub.matching_edge_total stats.Rs_hub.total_hubs
      in
      ( Checksum.sha256_hex (Hub_io.to_string labels),
        Checksum.sha256_hex stats_repr,
        Checksum.sha256_hex (Span.to_json span) ))

let test_rs_hub_identical_across_jobs () =
  let reference = rs_hub_digest ~seed:42 1 in
  List.iter
    (fun jobs ->
      let d = rs_hub_digest ~seed:42 jobs in
      if d <> reference then
        Alcotest.failf "rs_hub output differs between jobs=1 and jobs=%d" jobs)
    [ 2; 4 ];
  (* and two same-seed runs at the same job count *)
  Test_util.check_bool "same seed, same run" true
    (rs_hub_digest ~seed:42 2 = rs_hub_digest ~seed:42 2);
  Test_util.check_bool "different seed differs" true
    (rs_hub_digest ~seed:43 1 <> reference)

let test_distance_rows_match_sequential () =
  let g = Generators.random_connected (rng 7) ~n:40 ~m:80 in
  let seq = Array.init (Graph.n g) (fun s -> Traversal.bfs g s) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let rows = Traversal.bfs_rows ~pool g in
          Array.iteri
            (fun s row -> Alcotest.(check (array int)) "bfs row" seq.(s) row)
            rows))
    [ 1; 3 ];
  let w =
    let r = rng 8 in
    let base = Generators.random_connected r ~n:30 ~m:60 in
    let edges = ref [] in
    Graph.iter_edges base (fun u v ->
        edges := (u, v, 1 + Random.State.int r 9) :: !edges);
    Wgraph.of_edges ~n:30 !edges
  in
  let seqw = Array.init (Wgraph.n w) (fun s -> Dijkstra.distances w s) in
  Pool.with_pool ~jobs:3 (fun pool ->
      let rows = Dijkstra.distance_rows ~pool w in
      Array.iteri
        (fun s row -> Alcotest.(check (array int)) "dijkstra row" seqw.(s) row)
        rows)

let test_hub_verify_pool_invariant () =
  let g = Generators.random_connected (rng 11) ~n:30 ~m:60 in
  let labels = Pll.build g in
  let report jobs =
    Pool.with_pool ~jobs (fun pool ->
        Hub_verify.verify ~samples:8 ~pool ~rng:(rng 5) g labels)
  in
  let r1 = report 1 and r4 = report 4 in
  Test_util.check_bool "same report any job count" true (r1 = r4);
  Test_util.check_int "no mismatches" 0 r1.Hub_verify.stored_mismatches;
  Test_util.check_int "no violations" 0 r1.Hub_verify.cover_violations

(* --- batch query fan-out ------------------------------------------ *)

let query_fixture =
  lazy
    (let g = Generators.random_connected (rng 3) ~n:64 ~m:150 in
     let flat = Flat_hub.of_labels (Pll.build g) in
     (g, flat))

let qcheck_query_many_parallel =
  Test_util.qcheck "query_many with pool = point queries" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let _, flat = Lazy.force query_fixture in
      let r = rng seed in
      let pairs =
        Array.init 50 (fun _ -> (Random.State.int r 64, Random.State.int r 64))
      in
      let expect = Array.map (fun (u, v) -> Flat_hub.query flat u v) pairs in
      Pool.with_pool ~jobs:3 (fun pool ->
          Flat_hub.query_many ~pool flat pairs = expect)
      && Flat_hub.query_many flat pairs = expect)

let test_cached_query_many_stats () =
  let _, flat = Lazy.force query_fixture in
  let cached = Flat_hub.with_cache ~cache_slots:16 flat in
  let pairs = Array.init 40 (fun i -> (i mod 8, (i * 3) mod 8)) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let a = Flat_hub.query_many ~pool cached pairs in
      let b = Array.map (fun (u, v) -> Flat_hub.query flat u v) pairs in
      Alcotest.(check (array int)) "cached batch answers" b a);
  match Flat_hub.cache_stats cached with
  | None -> Alcotest.fail "cache_stats missing on a cached store"
  | Some (hits, misses) ->
      (* per-batch local counters merged once at the join: every query
         is accounted for exactly once, no torn increments *)
      Test_util.check_int "hits + misses = queries" (Array.length pairs)
        (hits + misses);
      Test_util.check_bool "repeated pairs hit" true (hits > 0)

(* The pooled replay against the sequential loop, under three pure
   (domain-safe) primaries: an honest budgeted store, labels with
   corrupted distances, and one that raises on a fixed residue of
   [u + v]. The last two strike out, so the quarantine flips in the
   middle of the batch. *)
let test_resilient_query_many_differential () =
  let g, flat = Lazy.force query_fixture in
  let pairs =
    let r = rng 99 in
    Array.init 120 (fun _ -> (Random.State.int r 64, Random.State.int r 64))
  in
  let lying =
    Resilient_oracle.store_primary
      (Hub_label.pack
         (Fault_injector.corrupt_labels ~seed:5 ~fraction:0.3 (Pll.build g)))
  in
  let raising =
    Repro_obs.Backend.make ~name:"raising" ~space_words:0 (fun u v ->
        if (u + v) mod 7 = 3 then failwith "raising primary"
        else Flat_hub.query flat u v)
  in
  let cases =
    [
      ("budgeted", 3, Resilient_oracle.flat_primary ~step_budget:24 flat);
      ("lying", 2, lying);
      ("raising", 1, raising);
    ]
  in
  List.iter
    (fun (name, spot_check_every, primary) ->
      let make () =
        Resilient_oracle.create ~spot_check_every ~quarantine_after:3 ~primary g
      in
      let seq_oracle = make () in
      let seq =
        Array.map
          (fun (u, v) -> Resilient_oracle.query_detailed seq_oracle u v)
          pairs
      in
      let s = Resilient_oracle.stats seq_oracle in
      if name <> "budgeted" then begin
        Test_util.check_int (name ^ ": quarantined") 1
          s.Resilient_oracle.quarantines;
        Test_util.check_bool (name ^ ": mid-batch") true
          (s.Resilient_oracle.primary_answers > 0
          && s.Resilient_oracle.fallback_answers > 0)
      end;
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let o = make () in
              let got = Resilient_oracle.query_many_detailed ~pool o pairs in
              Array.iteri
                (fun k (d, src) ->
                  let d', src' = got.(k) in
                  Test_util.check_int (name ^ ": answer") d d';
                  Test_util.check_bool (name ^ ": source") true (src = src'))
                seq;
              Test_util.check_bool
                (name ^ ": stats replayed identically")
                true
                (Resilient_oracle.stats o = s)))
        [ 1; 4 ])
    cases

let test_default_jobs_env_override () =
  (* the @par-smoke alias runs the suite with HUBHARD_JOBS=2; just pin
     that the resolved default respects an explicit override *)
  Pool.set_default_jobs 3;
  Test_util.check_int "set_default_jobs wins" 3 (Pool.default_jobs ());
  Test_util.check_int "default pool resized" 3 (Pool.jobs (Pool.default ()));
  (match Sys.getenv_opt "HUBHARD_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 ->
          (* fall back to the env var once the override is reset *)
          Pool.set_default_jobs j;
          Test_util.check_int "env honoured" j (Pool.default_jobs ())
      | _ -> ())
  | None -> ());
  Pool.set_default_jobs 1

let suite =
  [
    Alcotest.test_case "parallel_for covers each index once" `Quick
      test_parallel_for_covers;
    Alcotest.test_case "map_chunks: contiguous ordered chunks" `Quick
      test_map_chunks_order;
    Alcotest.test_case "init matches Array.init" `Quick
      test_init_matches_sequential;
    Alcotest.test_case "reduce_chunks folds in chunk order" `Quick
      test_reduce_chunks_order;
    Alcotest.test_case "lowest-chunk exception wins" `Quick
      test_exception_lowest_chunk;
    Alcotest.test_case "nested submission runs inline" `Quick
      test_nested_submission_inline;
    Alcotest.test_case "run_list preserves order" `Quick test_run_list_order;
    Alcotest.test_case "jobs validation" `Quick test_jobs_clamped;
    Alcotest.test_case "shutdown idempotent, then inline" `Quick
      test_shutdown_idempotent_then_inline;
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "rs_hub byte-identical across jobs 1/2/4" `Quick
      test_rs_hub_identical_across_jobs;
    Alcotest.test_case "distance rows match sequential BFS/Dijkstra" `Quick
      test_distance_rows_match_sequential;
    Alcotest.test_case "hub_verify report invariant under pool" `Quick
      test_hub_verify_pool_invariant;
    qcheck_query_many_parallel;
    Alcotest.test_case "cached batch: stats merged once" `Quick
      test_cached_query_many_stats;
    Alcotest.test_case "resilient batch = sequential loop" `Quick
      test_resilient_query_many_differential;
    Alcotest.test_case "default jobs resolution" `Quick
      test_default_jobs_env_override;
  ]
