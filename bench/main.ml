(* Benchmark harness for what hubbench (bench/e2e) does not measure:

     main.exe [--smoke] [--seed N] [PART...]

   runs the named parts, or all of them, in the order of the registry
   at the bottom of this file: trace, experiments, bechamel,
   build_profile, parallel and stores. Each part's comment says what it
   measures; each JSON part writes BENCH_<part>.json under one common
   header. `--smoke` (the @bench-smoke alias) runs each part at tiny
   sizes with few iterations, so the code cannot bit-rot unbuilt; the
   experiments, which have no tiny size, are skipped. Digests that must
   agree and do not fail the run (exit 1, digests on stderr); a bad
   argument exits 124. *)

open Bechamel
open Repro_graph
open Repro_hub
open Repro_core
module J = Hubbench_core.Json
module Stats = Hubbench_core.Stats
module Checksum = Repro_par.Checksum
module Backend = Repro_obs.Backend
module Ops = Repro_obs.Ops
module Span = Repro_obs.Span

(* One seed feeds every fixture RNG; `--seed N` overrides it so reruns
   can vary the workload while staying reproducible (the seed is
   recorded in every JSON artifact). *)
let seed = ref 20190721
let rng () = Random.State.make [| !seed |]

(* ------------------------------------------------------------------ *)
(* Fixture sizes: one record, two profiles.                            *)

type sizes = {
  grid_side : int;
  sparse_n : int;
  sparse_m : int;
  path_n : int;
  pairs : int;
  bip_side : int;
  bip_m : int;
  tree_depth : int;
  behrend_n : int;
  rs_c : int;
  rs_d : int;
  grid_b : int;
  grid_l : int;
}

let full_sizes =
  {
    grid_side = 16;
    sparse_n = 2000;
    sparse_m = 4000;
    path_n = 128;
    pairs = 1024;
    bip_side = 200;
    bip_m = 600;
    tree_depth = 11;
    behrend_n = 10_000;
    rs_c = 4;
    rs_d = 4;
    grid_b = 2;
    grid_l = 2;
  }

let smoke_sizes =
  {
    grid_side = 4;
    sparse_n = 60;
    sparse_m = 120;
    path_n = 32;
    pairs = 64;
    bip_side = 20;
    bip_m = 40;
    tree_depth = 4;
    behrend_n = 200;
    rs_c = 2;
    rs_d = 2;
    grid_b = 2;
    grid_l = 1;
  }

(* What every part shares, built once per run: the sparse graph, its
   PLL labeling, the packed flat store and one query stream. *)
type fixture = {
  smoke : bool;
  z : sizes;
  g : Graph.t;
  labels : Hub_label.t;
  flat : Flat_hub.t;
  pairs : (int * int) array;
}

let fixture ~smoke =
  let z = if smoke then smoke_sizes else full_sizes in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build g in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  { smoke; z; g; labels; flat = Flat_hub.of_labels labels; pairs }

(* ------------------------------------------------------------------ *)
(* Timing, digests and the JSON writer.                                *)

(* The one clock: Bechamel's monotonic clock, in nanoseconds. *)
let time_ns f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0), r)

(* ns per item over [iters] calls of [f], each covering [per_call]
   items; the caller warms [f] up (caches, lazy set-up) first. *)
let ns_per ~iters ~per_call f =
  let ns, () = time_ns (fun () -> for _ = 1 to iters do f () done) in
  ns /. float_of_int (iters * per_call)

(* Best of [n] cold calls, in ms; the warm-up call puts a file in the
   page cache for every contender, so opens compare parsing against
   mapping, not disk against disk. *)
let best_ms ~n f =
  ignore (f ());
  List.fold_left Float.min infinity (List.init n (fun _ -> fst (time_ns f)))
  /. 1e6

let sha_ints a =
  Checksum.sha256_hex
    (String.concat "," (Array.to_list (Array.map string_of_int a)))

(* Digests that must agree: on a disagreement print them and fail the
   run once every chosen part is done. *)
let failed = ref false

let identical ~what digests =
  let same = List.for_all (fun (_, d) -> d = snd (List.hd digests)) digests in
  if not same then begin
    failed := true;
    Printf.eprintf "bench: %s: digests differ\n" what;
    List.iter (fun (k, d) -> Printf.eprintf "  %-12s %s\n" k d) digests
  end;
  J.Bool same

let int n = J.Num (float_of_int n)

(* Rounded to [d] decimals: the figure, not the clock's noise digits. *)
let num ?(d = 1) x =
  let p = 10. ** float_of_int d in
  J.Num (Float.round (x *. p) /. p)

let obj f l = J.Obj (List.map (fun (k, x) -> (k, f x)) l)

(* One value per line down to the first level that fits in a line. *)
let rec pretty ind j =
  let line = J.to_string j in
  let block o c items =
    let ind' = ind ^ "  " in
    Printf.sprintf "%s\n%s%s\n%s%s" o ind'
      (String.concat (",\n" ^ ind') (items ind'))
      ind c
  in
  if String.length ind + String.length line <= 80 then line
  else
    match j with
    | J.Obj l ->
        block "{" "}" (fun i ->
            List.map (fun (k, v) -> J.to_string (J.Str k) ^ ": " ^ pretty i v)
              l)
    | J.Arr l -> block "[" "]" (fun i -> List.map (pretty i) l)
    | _ -> line

(* A JSON part: BENCH_<bench>.json, the common header and then the
   part's fields; the file is echoed to stdout. *)
let json ~store bench run (fx : fixture) =
  let fields = run fx in
  let text =
    pretty ""
      (J.Obj
         ([
            ("bench", J.Str bench);
            ("mode", J.Str (if fx.smoke then "smoke" else "full"));
            ("seed", int !seed);
            ("jobs", int (Repro_par.Pool.default_jobs ()));
            ("recommended_domain_count", int (Repro_par.Pool.recommended ()));
            ("store", J.Str store);
            ("graph", obj int [ ("n", fx.z.sparse_n); ("m", fx.z.sparse_m) ]);
          ]
         @ fields))
  in
  let file = "BENCH_" ^ bench ^ ".json" in
  Out_channel.with_open_text file (fun oc -> output_string oc (text ^ "\n"));
  Printf.printf "%s\n-> %s\n%!" text file

(* ------------------------------------------------------------------ *)
(* trace: distributed-tracing overhead.

   ns/query through a 2-shard forked router with tracing off, with
   tracing at sample_every=1 (every query minted, sampled and recorded
   end to end, a context block on every wire frame) and at
   sample_every=16 (context still on every frame, 1-in-16 recorded).
   Answers must stay identical in all three: the context block is
   invisible to the query path. *)

let run_trace (fx : fixture) =
  let module Router = Repro_shard.Router in
  let iters = if fx.smoke then 2 else 30 in
  let off_ns = ref nan in
  let one_run (name, trace) =
    let router =
      Router.create
        {
          (Router.default_config fx.g) with
          Router.labels = Some fx.labels;
          shards = 2;
          partition = Repro_hub.Partition.Hash;
          spot_check_every = 0;
          seed = !seed;
          trace;
        }
    in
    let answers = ref [||] in
    let ns =
      ns_per ~iters ~per_call:fx.z.pairs (fun () ->
          answers := Router.query_batch router fx.pairs)
    in
    let traces = List.length (Router.trace_trees router) in
    Router.shutdown router;
    if name = "off" then off_ns := ns;
    let sha =
      sha_ints (Array.map (fun (a : Router.answer) -> a.Router.dist) !answers)
    in
    ( J.Obj
        [
          ("sampling", J.Str name);
          ("ns_per_query", num ns);
          ("overhead_ns_per_query", num (ns -. !off_ns));
          ("traces_recorded", int traces);
          ("answers_sha256", J.Str sha);
        ],
      (name, sha) )
  in
  let sampled k =
    Some { Router.default_trace_config with Router.sample_every = k }
  in
  let runs =
    List.map one_run
      [ ("off", None); ("every-query", sampled 1); ("1-in-16", sampled 16) ]
  in
  [
    ("queries", int fx.z.pairs);
    ("iters", int iters);
    ("shards", int 2);
    ("runs", J.Arr (List.map fst runs));
    ( "answers_identical_everywhere",
      identical ~what:"trace answers" (List.map snd runs) );
  ]

(* ------------------------------------------------------------------ *)
(* experiments: every paper artifact, the experiment reports E-FIG1 ..
   E-BASE of DESIGN.md (this theory paper has no numbered tables, so
   experiments are indexed by theorem/figure).

   bechamel: micro-benchmarks over the core operations, one Test.make
   per operation, grouped in a single executable as the project layout
   requires. *)

let run_experiments (fx : fixture) =
  if fx.smoke then print_endline "experiments: skipped under --smoke"
  else Repro_experiments.Experiments.run_all ()

(* Micro-benchmark entries: (name, body), fixtures built once outside
   the timed region. *)
let make_entries (fx : fixture) =
  let z = fx.z in
  let grid = Generators.grid ~rows:z.grid_side ~cols:z.grid_side in
  let wsparse = Wgraph.of_unweighted fx.g in
  let path = Generators.path z.path_n in
  let labels_grid = Pll.build grid in
  let bipartite_instance =
    let r = rng () in
    Repro_matching.Bipartite.create ~left:z.bip_side ~right:z.bip_side
      (Generators.random_bipartite r ~left:z.bip_side ~right:z.bip_side
         ~m:z.bip_m)
  in
  let tree = Generators.balanced_binary_tree ~depth:z.tree_depth in
  (* Serving-layer fixtures: the direct hub path ("pll-query" below) vs.
     the resilient wrapper in its regimes — trusting primary (assoc and
     flat), spot-checked primary, and the pure fallback chain (no
     labels, so every query runs the budgeted bidirectional search). *)
  let module R = Repro_serve.Resilient_oracle in
  let assoc = Hub_label.pack fx.labels in
  let serve_primary =
    R.create ~spot_check_every:0 ~primary:(R.store_primary assoc) fx.g
  in
  let serve_flat =
    R.create ~spot_check_every:0 ~primary:(R.flat_primary fx.flat) fx.g
  in
  let serve_checked =
    R.create ~spot_check_every:8 ~primary:(R.store_primary assoc) fx.g
  in
  let serve_fallback = R.create fx.g in
  let sweep name q =
    (name, fun () -> Array.iter (fun (u, v) -> ignore (q u v : int)) fx.pairs)
  in
  [
    ("bfs sparse", fun () -> ignore (Traversal.bfs fx.g 0));
    ("dijkstra sparse", fun () -> ignore (Dijkstra.distances wsparse 0));
    ("pll-build grid", fun () -> ignore (Pll.build grid));
    sweep "pll-query sparse" (Hub_label.query fx.labels);
    ("flat-pack sparse", fun () -> ignore (Flat_hub.of_labels fx.labels));
    ( "encode labels grid",
      fun () -> ignore (Repro_labeling.Encoder.encode labels_grid) );
    ( "hopcroft-karp",
      fun () -> ignore (Repro_matching.Hopcroft_karp.solve bipartite_instance)
    );
    ("behrend", fun () -> ignore (Repro_rs.Behrend.construct z.behrend_n));
    ( "rs-graph",
      fun () -> ignore (Repro_rs.Rs_graph.build ~c:z.rs_c ~d:z.rs_d) );
    ( "grid-graph",
      fun () -> ignore (Grid_graph.create ~b:z.grid_b ~l:z.grid_l ()) );
    ( "gadget",
      fun () ->
        ignore (Degree_gadget.build (Grid_graph.create ~b:2 ~l:1 ())) );
    ("rs-hub path", fun () -> ignore (Rs_hub.build ~rng:(rng ()) ~d:4 path));
    ("tree-label", fun () -> ignore (Repro_labeling.Tree_label.build tree));
    ( "random-hitting grid",
      fun () -> ignore (Random_hitting.build ~rng:(rng ()) ~d:6 grid) );
    sweep "serve-query primary" (R.query serve_primary);
    sweep "serve-query flat" (R.query serve_flat);
    sweep "serve-query checked-1/8" (R.query serve_checked);
    sweep "serve-query fallback" (R.query serve_fallback);
  ]

let run_bechamel (fx : fixture) =
  let entries = make_entries fx in
  if fx.smoke then
    List.iter
      (fun (name, body) ->
        body ();
        Printf.printf "smoke ok: %s\n%!" name)
      entries
  else begin
    let tests =
      Test.make_grouped ~name:"hubhard" ~fmt:"%s %s"
        (List.map
           (fun (name, body) -> Test.make ~name (Staged.stage body))
           entries)
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    let results =
      Analyze.merge ols instances
        (List.map (fun i -> Analyze.all ols i raw) instances)
    in
    Bechamel_notty.Unit.add Toolkit.Instance.monotonic_clock "ns";
    let window =
      match Notty_unix.winsize Unix.stdout with
      | Some (w, h) -> { Bechamel_notty.w; h }
      | None -> { Bechamel_notty.w = 100; h = 1 }
    in
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
    |> Notty_unix.eol |> Notty_unix.output_image
  end

(* ------------------------------------------------------------------ *)
(* build_profile: per-phase construction profiles.

   Each construction pipeline is pre-instrumented with Repro_obs.Span
   phases named after the proof structure (docs/OBSERVABILITY.md lists
   the full set); wrapping a build in Span.profile yields the timed
   tree. The JSON stores one tree per pipeline, so a regression in any
   single stage (e.g. the Theorem 4.1 König-cover step) is visible
   without re-deriving anything. *)

let run_build_profile (fx : fixture) =
  let profiled name f =
    let r, root = Span.profile ~name:("profile:" ^ name) f in
    let tree =
      match root.Span.children with
      | [ tree ] -> tree
      | _ -> root (* defensive: keep whatever was recorded *)
    in
    (r, (name, Result.get_ok (J.of_string (Span.to_json tree))))
  in
  let labels, pll = profiled "pll" (fun () -> Pll.build fx.g) in
  let _, rs_hub =
    profiled "rs_hub" (fun () ->
        Rs_hub.build ~rng:(rng ()) ~d:fx.z.rs_d (Generators.path fx.z.path_n))
  in
  let _, pack = profiled "flat_pack" (fun () -> Flat_hub.of_labels labels) in
  let grid, grid_tree =
    profiled "grid" (fun () ->
        Grid_graph.create ~b:fx.z.grid_b ~l:fx.z.grid_l ())
  in
  let _, gadget = profiled "gadget" (fun () -> Degree_gadget.build grid) in
  [ ("profiles", J.Obj [ pll; rs_hub; pack; grid_tree; gadget ]) ]

(* ------------------------------------------------------------------ *)
(* parallel: multicore scaling and determinism.

   For jobs in {1, 2, 4}: time the parallel distance rows, the Theorem
   4.1 construction and the batched query fan-out on one shared pool,
   and hash every observable output (labels, stats, the span tree under
   a manual clock). The hashes must agree across job counts — that is
   the determinism contract of Repro_par.Pool — while the timings show
   whatever speedup the machine has cores for; recommended_domain_count
   records how many that is, so a flat ratio on a 1-core box explains
   itself. *)

let run_parallel (fx : fixture) =
  let iters = if fx.smoke then 2 else 50 in
  let rs_n = max 8 (fx.z.sparse_n / 4) in
  let base = ref [] in
  let deg3 = Generators.random_bounded_degree (rng ()) ~n:rs_n ~d:3 in
  let rows_digest rows =
    let buf = Buffer.create (1 lsl 16) in
    Array.iter
      (Array.iter (fun d ->
           Buffer.add_string buf (string_of_int d);
           Buffer.add_char buf ' '))
      rows;
    Checksum.sha256_hex (Buffer.contents buf)
  in
  let one_run jobs =
    Repro_par.Pool.with_pool ~jobs (fun pool ->
        let rows_ns, rows = time_ns (fun () -> Traversal.bfs_rows ~pool fx.g) in
        (* same seed every run: the construction's random draws all
           happen on the submitting domain, so the labeling, stats and
           span tree must be byte-identical whatever [jobs] is *)
        let clock = Repro_obs.Clock.(read (manual ~auto_step:1L ())) in
        let build_ns, ((labels, stats), span) =
          time_ns (fun () ->
              Span.profile ~clock ~name:"bench-parallel" (fun () ->
                  Rs_hub.build ~rng:(rng ()) ~d:fx.z.rs_d ~pool deg3))
        in
        let answers = ref [||] in
        let query_ns =
          ns_per ~iters ~per_call:fx.z.pairs (fun () ->
              answers := Flat_hub.query_many ~pool fx.flat fx.pairs)
        in
        let stats_line =
          Rs_hub.(
            Printf.sprintf
              "d=%d n=%d s=%d q=%d r=%d f=%d buckets=%d mm=%d hubs=%d" stats.d
              stats.n stats.global_size stats.q_total stats.r_total
              stats.f_total stats.bucket_count stats.matching_edge_total
              stats.total_hubs)
        in
        let times = [ rows_ns /. 1e6; build_ns /. 1e6; query_ns ] in
        if jobs = 1 then base := times;
        let speedup = List.map2 (fun b t -> num ~d:3 (b /. t)) !base times in
        let shas =
          [
            ("distance_rows", rows_digest rows);
            ("labels", Checksum.sha256_hex (Hub_io.to_string labels));
            ("stats", Checksum.sha256_hex stats_line);
            ("span_json", Checksum.sha256_hex (Span.to_json span));
            ("batch_answers", sha_ints !answers);
          ]
        in
        ( J.Obj
            [
              ("jobs", int jobs);
              ("bfs_rows_ms", num ~d:2 (rows_ns /. 1e6));
              ("rs_hub_build_ms", num ~d:2 (build_ns /. 1e6));
              ("query_many_ns_per_query", num query_ns);
              ( "speedup_vs_jobs1",
                J.Obj
                  (List.combine [ "bfs_rows"; "rs_hub_build"; "query_many" ]
                     speedup) );
              ("sha256", obj (fun s -> J.Str s) shas);
            ],
          (Printf.sprintf "jobs=%d" jobs, String.concat " " (List.map snd shas))
        ))
  in
  let runs = List.map one_run [ 1; 2; 4 ] in
  [
    ("rs_hub_graph", obj int [ ("n", rs_n); ("max_degree", 3) ]);
    ("queries", int fx.z.pairs);
    ("query_iters", int iters);
    ( "deterministic_across_jobs",
      identical ~what:"parallel outputs across jobs" (List.map snd runs) );
    ("runs", J.Arr (List.map fst runs));
  ]

(* ------------------------------------------------------------------ *)
(* stores: every label store on one labeling and one query stream.

   The assoc labeling, the heap flat store parsed from its HUBFLAT1
   file, the flat store with a 4 * pairs slot cache, the zero-copy mmap
   view of that file and the mapped compressed HUBFLAT2 file. For each
   store one loop measures the best-of-N cold open and the live-heap
   growth of one open (stores with a file; mapped words live outside
   the OCaml heap), point and query_many ns/query, ns/op for each of
   the eight Ops requests, and one sha256 over the point answers and
   the canonical ops responses, which must agree across every store: no
   layout may trade correctness for speed or size.

   The timings run in [rounds] rounds, each visiting every store once in
   an order rotated by one per round, so drift on a shared host lands on
   every store alike; each (store, timing) reports the median and the
   quartiles of its per-round figures. *)

module type STORE = sig
  type t
  val query : t -> int -> int -> int
  val query_many :
    ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
  val ops :
    ?pool:Repro_par.Pool.t -> ?owned:int array -> ?budget:int -> t ->
    Backend.ops
end

(* name, opened from a file (time and weigh the open), store, open *)
type store =
  | Store :
      string * bool * (module STORE with type t = 's) * (unit -> 's) -> store

(* One timing of one store: a run returns ns per item, and
   [samples.(r)] is the run of round [r]. *)
type timing = { label : string; run : unit -> float; samples : float array }

let run_stores (fx : fixture) =
  let rounds = 5 in
  let iters = if fx.smoke then 1 else 40 in
  let open_iters = if fx.smoke then 3 else 40 in
  let ops_iters = if fx.smoke then 1 else 8 in
  let n = Graph.n fx.g in
  let write_tmp suffix bytes =
    let path = Filename.temp_file "hubhard_bench_stores" suffix in
    Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
    path
  in
  let flat1 = write_tmp ".bin" (Hub_io.flat_to_bytes fx.flat) in
  let flat2 = write_tmp ".cbin" (Hub_io.compact_to_bytes fx.flat) in
  let ok to_string = function Ok s -> s | Error e -> failwith (to_string e) in
  let heap_parse () =
    let s = In_channel.with_open_bin flat1 In_channel.input_all in
    ok (fun e -> e.Hub_io.msg) (Hub_io.flat_of_bytes_res s)
  in
  let cached () = Flat_hub.with_cache ~cache_slots:(4 * fx.z.pairs) fx.flat in
  let stores =
    [
      Store
        ( "assoc", false, (module Hub_label.Store),
          fun () -> Hub_label.Store.make ~cache_slots:0 fx.labels );
      Store ("flat", true, (module Flat_hub), heap_parse);
      Store ("flat-cached", false, (module Flat_hub), cached);
      Store
        ( "mmap", true, (module Mmap_hub),
          fun () -> ok Mmap_hub.error_to_string (Mmap_hub.load_res flat1) );
      Store
        ( "compact", true, (module Compact_hub),
          fun () -> ok Compact_hub.error_to_string (Compact_hub.load_res flat2)
        );
    ]
  in
  let reqs =
    let r = rng () in
    let v () = Random.State.int r n in
    let vs k = Array.init k (fun _ -> v ()) in
    Ops.
      [
        Dist { u = v (); v = v () };
        Batch (Array.init 64 (fun _ -> (v (), v ())));
        One_to_many { source = v (); targets = vs 64 };
        Many_to_many { sources = vs 8; targets = vs 16 };
        Top_k_nearest { source = v (); k = 32 };
        Eccentricity (v ());
        Farthest (v ());
        Diameter_radius;
      ]
  in
  let named = List.map (fun r -> (Ops.name r, r)) reqs in
  let live () = Gc.compact (); (Gc.stat ()).Gc.live_words in
  (* the baseline of the open ratio: flat is opened before mmap and
     compact *)
  let parse_ms = ref nan in
  let prepare (Store (name, file, (module S), load)) =
    let opened =
      if not file then []
      else begin
        let w0 = live () in
        let opened = load () in
        let words = live () - w0 in
        ignore (Sys.opaque_identity opened);
        let ms = best_ms ~n:open_iters load in
        if name = "flat" then parse_ms := ms;
        [
          ("cold_open_ms", num ~d:3 ms);
          ("open_speedup_vs_heap_parse", num (!parse_ms /. ms));
          ("live_heap_words_cold_open", int words);
        ]
      end
    in
    let st = load () in
    let ops = S.ops st in
    let sha =
      Checksum.sha256_hex
        (String.concat "\n"
           (sha_ints (Array.map (fun (u, v) -> S.query st u v) fx.pairs)
           :: List.map
                (fun r -> Ops.response_to_string (Backend.op ops r))
                reqs))
    in
    (* the digest warmed the point and ops paths; warm the batch path *)
    ignore (S.query_many st fx.pairs);
    let timing label run = { label; run; samples = Array.make rounds 0. } in
    let per_query label f =
      timing label (fun () -> ns_per ~iters ~per_call:fx.z.pairs f)
    in
    (* Diameter_radius builds all n rows: one call per round *)
    let op_ns (label, req) =
      let iters = if req = Ops.Diameter_radius then 1 else ops_iters in
      timing label (fun () ->
          ns_per ~iters ~per_call:1 (fun () -> ignore (Backend.op ops req)))
    in
    ( name,
      opened,
      sha,
      per_query "point" (fun () ->
          Array.iter (fun (u, v) -> ignore (S.query st u v : int)) fx.pairs),
      per_query "batch" (fun () -> ignore (S.query_many st fx.pairs)),
      List.map op_ns named )
  in
  let timed = Array.of_list (List.map prepare stores) in
  let k = Array.length timed in
  for r = 0 to rounds - 1 do
    for i = 0 to k - 1 do
      let _, _, _, point, batch, ops = timed.((r + i) mod k) in
      List.iter (fun t -> t.samples.(r) <- t.run ()) (point :: batch :: ops)
    done
  done;
  let spread t =
    let q1, med, q3 = Stats.quartiles t.samples in
    (t.label, obj num [ ("median", med); ("q1", q1); ("q3", q3) ])
  in
  (* assoc is the first store: its median point query is the baseline *)
  let _, _, _, assoc_point, _, _ = timed.(0) in
  let speedup t =
    let base = Stats.median assoc_point.samples in
    (t.label, num ~d:3 (base /. Stats.median t.samples))
  in
  let result (name, opened, sha, point, batch, ops) =
    ( ( name,
        J.Obj
          (opened
          @ [
              ("ns_per_query", J.Obj [ spread point; spread batch ]);
              ( "speedup_vs_assoc_point",
                J.Obj [ speedup point; speedup batch ] );
              ("ns_per_op", J.Obj (List.map spread ops));
              ("answers_sha256", J.Str sha);
            ]) ),
      (name, sha) )
  in
  let results = Array.to_list (Array.map result timed) in
  List.iter Sys.remove [ flat1; flat2 ];
  let ps = Hub_stats.packed_sizes fx.flat in
  let both f a b = obj f [ ("flat1", a); ("flat2", b) ] in
  [
    ("label_entries", int ps.entries);
    ("avg_label_size", num ~d:2 ps.avg_size);
    ("max_label_size", int ps.max_size);
    ("packed_bytes", both int ps.flat1_bytes ps.flat2_bytes);
    ( "bytes_per_entry",
      both (fun b -> num ~d:2 (float_of_int b /. float_of_int ps.entries))
        ps.flat1_bytes ps.flat2_bytes );
    ( "bits_per_entry",
      both (num ~d:2) ps.flat1_bits_per_entry ps.flat2_bits_per_entry );
    ( "compression_ratio",
      num ~d:2 (float_of_int ps.flat1_bytes /. float_of_int ps.flat2_bytes) );
    ("queries", int fx.z.pairs);
    ("rounds", int rounds);
    ("iters", int iters);
    ("ops_iters", int ops_iters);
    ("cold_open_best_of", int open_iters);
    ("ops_requests", obj (fun r -> J.Str (Ops.request_to_string r)) named);
    ("stores", J.Obj (List.map fst results));
    ( "answers_identical",
      identical ~what:"store answers and ops responses" (List.map snd results)
    );
  ]

(* ------------------------------------------------------------------ *)
(* The registry, in run order. trace comes first: the router forks, and
   OCaml 5 forbids fork once a domain has been spawned (experiments,
   parallel and the pooled batches of stores all spawn them). *)

let parts =
  [
    ("trace", json ~store:"flat" "trace" run_trace);
    ("experiments", run_experiments);
    ("bechamel", run_bechamel);
    ("build_profile", json ~store:"assoc" "build_profile" run_build_profile);
    ("parallel", json ~store:"flat" "parallel" run_parallel);
    ("stores", json ~store:"all" "stores" run_stores);
  ]

let () =
  let smoke = ref false and chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
        seed := int_of_string s; parse rest
    | p :: rest when List.mem_assoc p parts ->
        chosen := p :: !chosen; parse rest
    | a :: _ ->
        Printf.eprintf
          "bench: bad argument %s\nusage: main.exe [--smoke] [--seed N] \
           [PART...]\nparts: %s\n"
          a (String.concat " " (List.map fst parts));
        exit 124
  in
  parse (List.tl (Array.to_list Sys.argv));
  let fx = lazy (fixture ~smoke:!smoke) in
  List.iter
    (fun (name, part) ->
      if !chosen = [] || List.mem name !chosen then begin
        Printf.printf "\n=== %s ===\n%!" name;
        part (Lazy.force fx)
      end)
    parts;
  if !failed then exit 1
