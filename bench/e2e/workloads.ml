(* The four hubbench workloads. Each runs in its own process (see
   hubbench.ml) and returns one [Report.run].

   Every workload has the same shape: build the serving stack from its
   fixture graph [setups] times, timing each layer call; then time
   [rounds] rounds after one warm-up round; then check every answer
   against ground truth outside the timed region. A traced run repeats
   the same phases and adds the per-layer measurements: direct store
   queries, wrapper overhead, wire codec replay and, on the routed
   workloads, a second router with tracing on.

   Routed workloads fork, and OCaml 5 forbids forking once a domain has
   been spawned, so they never create a domain pool and never call a
   library function that defaults to one. *)

open Hubbench_core
open Repro_graph
open Repro_hub
module Router = Repro_shard.Router
module Wire = Repro_shard.Wire
module RO = Repro_serve.Resilient_oracle
module Ops = Repro_obs.Ops
module Metrics = Repro_obs.Metrics
module Span = Repro_obs.Span
module Checksum = Repro_par.Checksum
module Pool = Repro_par.Pool

let now () = Int64.to_int (Monotonic_clock.now ())

external allowed_cpus : unit -> int list = "hubbench_allowed_cpus"
external pin : int -> int -> bool = "hubbench_pin"

(* Timed phases run on one CPU: the last this process may use. On the
   2-vCPU machines this benchmark was tuned on, CPU 0 takes the device
   interrupts, and letting the scheduler place a router and its workers
   freely flips single-query latency between two modes (about 10 and
   19 us) from one run to the next. Pinning the router and its workers
   together keeps every run in the same mode. [pids] are further
   processes to pin (the shard workers); a domain pool created earlier
   keeps its own CPU mask. *)
let cpus = lazy (allowed_cpus ())

let pin_timed ?(pids = []) () =
  let cpu = List.fold_left (fun _ c -> c) 0 (Lazy.force cpus) in
  List.iter (fun p -> ignore (pin p cpu : bool)) (0 :: pids)

(* nproc counts the CPUs allowed before any pinning *)
let pool_jobs = lazy (max 1 (min 2 (List.length (Lazy.force cpus))))

(* A domain pool of [min 2 nproc] jobs whose helper domains stay on the
   first allowed CPU (domains inherit the CPU mask of the thread that
   spawns them) while the calling domain is pinned as above; left to
   the scheduler, a helper woken for each batch often lands on the
   caller's CPU and the batch runs serially. Each batched round makes
   its own pool: with a second domain alive, every minor GC of the
   single-query rounds would stop both. *)
let with_pool f =
  (match Lazy.force cpus with c :: _ -> ignore (pin 0 c : bool) | [] -> ());
  Pool.with_pool ~jobs:(Lazy.force pool_jobs) (fun pool ->
      pin_timed ();
      f pool)

(* ------------------------------------------------------------------ *)
(* Sizes *)

type sizes = {
  n : int;
  m : int;  (** the random_connected graph of three workloads *)
  gadget_b : int;
  gadget_l : int;
  setups : int;
  rounds : int;  (** timed rounds; one warm-up round runs first *)
  point_singles : int;
  point_batches : int;  (** 1024-pair calls per round *)
  ops : int;
  zipf_pool : int;
  zipf_singles : int;
  zipf_batches : int;
  gadget_singles : int;
  gadget_batches : int;
  store_sample : int;  (** direct store queries per round, traced runs *)
  trace_singles : int;  (** traced-router requests per round *)
  bfs_sources : int;
}

let batch_pairs = 1024
let cache_slots = 8192
let shards = 2
let ops_targets = 64
let ops_k = 32

(* Per-round counts give each workload 10 to 25 s of rounds on a 2-vCPU
   Xeon VM and scale with --seconds; phases that report a p99
   keep at least 1000 samples a round, so ten lie beyond it. *)
let full =
  {
    n = 2000;
    m = 4000;
    gadget_b = 3;
    gadget_l = 1;
    setups = 3;
    rounds = 5;
    point_singles = 45_000;
    point_batches = 150;
    ops = 3000;
    zipf_pool = 2048;
    zipf_singles = 2_000_000;
    zipf_batches = 2000;
    gadget_singles = 400_000;
    gadget_batches = 400;
    store_sample = 30_000;
    trace_singles = 1000;
    bfs_sources = 256;
  }

let smoke =
  {
    n = 60;
    m = 120;
    gadget_b = 1;
    gadget_l = 1;
    setups = 2;
    rounds = 5;
    point_singles = 40;
    point_batches = 2;
    ops = 16;
    zipf_pool = 128;
    zipf_singles = 200;
    zipf_batches = 2;
    gadget_singles = 100;
    gadget_batches = 2;
    store_sample = 100;
    trace_singles = 20;
    bfs_sources = 8;
  }

let scaled ~seconds s =
  let f ?(floor = 1) x =
    max floor (int_of_float (Float.round (float_of_int x *. seconds /. 10.)))
  in
  let p = f ~floor:1000 in
  {
    s with
    point_singles = p s.point_singles;
    point_batches = f s.point_batches;
    ops = p s.ops;
    zipf_singles = p s.zipf_singles;
    zipf_batches = f s.zipf_batches;
    gadget_singles = p s.gadget_singles;
    gadget_batches = f s.gadget_batches;
  }

(* ------------------------------------------------------------------ *)
(* Run context: metrics, parameters and correctness accounting *)

type ctx = {
  seed : int;
  traced : bool;
  sizes : sizes;
  outdir : string;
  mutable metrics : Report.metric list;
  mutable params : (string * float) list;
  steps : (string, float list) Hashtbl.t;  (** set-up layer times, ns *)
  mutable digests : string list;
  mutable attempted : int;
  mutable wrong : int;
  mutable degraded : int;
}

let spec name =
  match Spec.find name with
  | Some m -> m
  | None -> invalid_arg ("hubbench: unknown metric " ^ name)

let unit_of name = (spec name).Spec.unit_

(* The end-to-end timings report their best round (lowest latency,
   highest throughput). These machines are shared: another tenant can
   slow a whole stretch of seconds by a third, so the median of five
   rounds moves with the noise while the best round stays put. Every
   other metric reports the median of its samples. *)
let best_of_rounds = [ "p50_us"; "p99_us"; "qps" ]

let add ctx name samples =
  let m = spec name in
  let best = if List.mem name best_of_rounds then Some m.Spec.better else None in
  ctx.metrics <- Report.metric ?best ~name ~unit_:m.Spec.unit_ samples :: ctx.metrics

let param ctx k v = ctx.params <- (k, float_of_int v) :: ctx.params

let of_ns unit_ ns =
  match unit_ with
  | "s" -> ns *. 1e-9
  | "ms" -> ns *. 1e-6
  | "us" -> ns *. 1e-3
  | _ -> ns

(* Fold one batch of answers, rendered by [show], into the run's
   answer digest. *)
let digest ctx show a =
  let b = Buffer.create (Array.length a * 4) in
  Array.iter
    (fun x ->
      Buffer.add_string b (show x);
      Buffer.add_char b ',')
    a;
  ctx.digests <- Checksum.sha256_hex (Buffer.contents b) :: ctx.digests

let check ctx ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.wrong <- ctx.wrong + 1

(* Time one layer call of a set-up under [key] (a per-layer metric name,
   or a name reported nowhere). *)
let step ctx key f =
  let t0 = now () in
  let r = Spans.run key f in
  let dt = float_of_int (now () - t0) in
  Hashtbl.replace ctx.steps key
    (dt :: Option.value (Hashtbl.find_opt ctx.steps key) ~default:[]);
  r

(* Run [prepare] then [serve] [setups] times, tearing the previous stack
   down untimed in between. [setup_s] is the median prepare + serve
   time. [between] runs untimed before the last [serve]; the local
   workloads measure the heap there. *)
let setups ctx ~prepare ~serve ~teardown ?(between = fun _ -> ()) () =
  let totals = ref [] in
  let rec go k prev =
    Option.iter teardown prev;
    let last = k + 1 >= ctx.sizes.setups in
    let t0 = now () in
    let art = Spans.run "setup.prepare" prepare in
    let t1 = now () in
    if last then between art;
    let t2 = now () in
    let stack = Spans.run "setup.serve" (fun () -> serve art) in
    let t3 = now () in
    totals := (float_of_int (t1 - t0 + (t3 - t2)) *. 1e-9) :: !totals;
    if last then (art, stack) else go (k + 1) (Some stack)
  in
  let r = go 0 None in
  add ctx "setup_s" (List.rev !totals);
  Hashtbl.iter
    (fun key ns ->
      if Spec.find key <> None then
        add ctx key (List.rev_map (of_ns (unit_of key)) ns))
    ctx.steps;
  r

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents b
        | k -> Buffer.add_subbytes b chunk 0 k; go ()
      in
      go ())

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* A store file in the output directory, removed when [f] returns. *)
let with_store_file ctx name f =
  let path =
    Filename.concat ctx.outdir
      (Printf.sprintf "%s-seed%d-pid%d.store" name ctx.seed (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)


let bits_per_entry ctx ~bytes ~entries =
  add ctx "store_bits_per_entry"
    [ 8. *. float_of_int bytes /. float_of_int (max 1 entries) ]

let live_bytes () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let uniform_pairs rng n k =
  Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))

(* ------------------------------------------------------------------ *)
(* Timing *)

(* Time [count] requests; [req i] serves request [i] and stores its
   answer itself, so nothing but the call sits between the clock
   reads. *)
let time_singles count req lat =
  for i = 0 to count - 1 do
    let t0 = now () in
    req i;
    Array.unsafe_set lat i (now () - t0)
  done

type round_lat = { n : int; p50 : float; p99 : float; mean : float; slow : float }

(* One round's latency statistics in microseconds; [slow] is the share
   of requests slower than ten times the round's median. *)
let lat_stats lat =
  let s = Array.copy lat in
  Array.sort Int.compare s;
  let med = Stats.percentile s 0.5 in
  let count = Array.length s in
  let slow = Array.fold_left (fun a x -> if x > 10 * med then a + 1 else a) 0 s in
  {
    n = count;
    p50 = Stats.interpolated s 0.5 /. 1e3;
    p99 = Stats.interpolated s 0.99 /. 1e3;
    mean = float_of_int (Array.fold_left ( + ) 0 s) /. float_of_int count /. 1e3;
    slow = float_of_int slow /. float_of_int count;
  }

let p50_of lat =
  let s = Array.copy lat in
  Array.sort Int.compare s;
  Stats.interpolated s 0.5

(* Warm-up round 0, then rounds 1..[rounds]; returns the timed rounds'
   results. Each round starts from a finished major GC cycle, so the
   previous round's bookkeeping garbage is not collected on its
   clock. *)
let rounds ctx f =
  let out = ref [] in
  for r = 0 to ctx.sizes.rounds do
    Gc.full_major ();
    let x = Spans.run (Printf.sprintf "round%d" r) (fun () -> f r) in
    if r > 0 then out := x :: !out
  done;
  List.rev !out

(* Two phases in alternating rounds, each starting from a finished major
   GC cycle. On the shared hosts this benchmark runs on, the machine
   shifts between a fast mode and one about 1.4x slower that lasts
   seconds; alternating spreads each phase's rounds over the whole timed
   stretch, so its best round more likely falls in a fast one. *)
let interleaved ctx f g =
  List.split
    (rounds ctx (fun r ->
         let x = f r in
         Gc.full_major ();
         (x, g r)))

let add_latency ctx rs =
  let n = List.fold_left (fun a r -> min a r.n) max_int rs in
  param ctx "p99_samples_beyond" (Stats.beyond ~n 0.99);
  if not (Stats.supports ~n 0.99) then
    prerr_endline "hubbench: under ten samples lie beyond p99 in a round";
  add ctx "p50_us" (List.map (fun r -> r.p50) rs);
  add ctx "p99_us" (List.map (fun r -> r.p99) rs)

type batches = { qps : float; bu : int array; bv : int array; ba : int array }

(* Time [calls] batched calls of [batch_pairs] pairs from [draw]; [call]
   serves one batch and [dist] reads a distance out of each answer. The
   pairs and distances are kept in preallocated arrays for checking
   after the round, so no bookkeeping allocates between timed calls.
   The round's throughput is pairs per second at the median call time,
   so one call stalled by the machine does not set it. *)
let batch_round ~calls ~draw ~call ~dist =
  let total = calls * batch_pairs in
  let bu = Array.make total 0 and bv = Array.make total 0 and ba = Array.make total 0 in
  let times = Array.make calls 0 in
  for c = 0 to calls - 1 do
    let pairs = draw () in
    let t0 = now () in
    let out = call pairs in
    times.(c) <- now () - t0;
    Array.iteri
      (fun i (u, v) ->
        let k = (c * batch_pairs) + i in
        bu.(k) <- u;
        bv.(k) <- v;
        ba.(k) <- dist out.(i))
      pairs
  done;
  { qps = float_of_int batch_pairs /. (p50_of times *. 1e-9); bu; bv; ba }

(* Check every batched answer against [truth] and fold it into the
   digest. *)
let check_batches ctx truth b =
  Array.iteri (fun k d -> check ctx (truth b.bu.(k) b.bv.(k) = d)) b.ba;
  digest ctx string_of_int b.ba

(* Direct store queries over each round's [pairs] (warm-up first): the
   store.* latency, entries scanned and cost-model metrics. *)
let store_layer ctx ~query ~size pair_rounds =
  let per_round =
    List.map
      (fun ps ->
        let k = Array.length ps in
        let ns = Array.make k 0 and entries = Array.make k 0 in
        Array.iteri
          (fun i (u, v) ->
            let t0 = now () in
            ignore (Sys.opaque_identity (query u v) : int);
            ns.(i) <- now () - t0;
            entries.(i) <- size u + size v)
          ps;
        let a, b, r2 = Stats.cost_fit ~entries ~ns () in
        let s = Array.copy ns in
        Array.sort Int.compare s;
        ( [ Stats.interpolated s 0.5;
            Stats.interpolated s 0.99;
            float_of_int (Array.fold_left ( + ) 0 entries) /. float_of_int (max 1 k);
            a; b; r2 ] ))
      pair_rounds
  in
  List.iteri
    (fun j name -> add ctx name (List.map (fun l -> List.nth l j) (List.tl per_round)))
    [ "store.query_ns_p50"; "store.query_ns_p99"; "store.entries_scanned_mean";
      "store.fixed_ns"; "store.ns_per_entry"; "store.fit_r2" ]

(* ------------------------------------------------------------------ *)
(* /proc readings for the forked workers *)

let proc_kb path key =
  match read_file path with
  | exception Sys_error _ -> 0.
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ k; rest ] when String.trim k = key -> (
              match String.split_on_char ' ' (String.trim rest) with
              | v :: _ -> float_of_string_opt v
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:0.

(* utime + stime in seconds, at the usual 100 Hz clock tick. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | s -> (
      let from = String.rindex s ')' + 2 in
      match String.split_on_char ' ' (String.sub s from (String.length s - from)) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st :: _ ->
          (float_of_string ut +. float_of_string st) /. 100.
      | _ -> 0.)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let worker_pids r = List.filter_map (Router.pid r) (List.init shards Fun.id)

(* ------------------------------------------------------------------ *)
(* Router observation *)

let hist snap name =
  match Metrics.find_histogram snap name with
  | Some h -> (h.Metrics.count, h.Metrics.sum)
  | None -> (0, 0)

let counter snap name = Option.value (Metrics.find_counter snap name) ~default:0

(* Per-shard worker calls and summed worker service ns between two
   merged snapshots, over the worker histograms [names]. *)
let worker_delta before after names =
  List.init shards (fun s ->
      List.fold_left
        (fun (c, t) name ->
          let key = Printf.sprintf "shard%d.%s" s name in
          let c0, t0 = hist before key and c1, t1 = hist after key in
          (c + c1 - c0, t + t1 - t0))
        (0, 0) names)

type phase_round = {
  router_cpu : float;
  worker_cpu : float;  (** mean over workers *)
  alloc : float;  (** router minor words per request *)
  work : (int * int) list;  (** per shard: calls, service ns *)
}

(* One round of a routed phase. [prepare] draws the round's requests
   and [finish] checks the answers and summarises the round, both
   untimed; [serve] serves the requests. Around [serve] it reads router
   allocation, router and worker CPU and, on traced runs, the workers'
   own service time from merged snapshots. *)
let routed_round ctx r ~histograms ~requests ~prepare ~serve ~finish =
  let reqs = prepare () in
  let snap0 = if ctx.traced then Some (Router.merged_snapshot r) else None in
  let pids = worker_pids r in
  let wcpu0 = List.map cpu_s pids and cpu0 = self_cpu_s () in
  let w0 = now () in
  let minor0 = Gc.minor_words () in
  let x = serve reqs in
  let minor1 = Gc.minor_words () in
  let wall = float_of_int (now () - w0) *. 1e-9 in
  let wcpu = List.fold_left2 (fun a p c0 -> a +. cpu_s p -. c0) 0. pids wcpu0 in
  let work =
    match snap0 with
    | Some s0 -> worker_delta s0 (Router.merged_snapshot r) histograms
    | None -> []
  in
  let obs =
    {
      router_cpu = (self_cpu_s () -. cpu0) /. wall;
      worker_cpu = wcpu /. float_of_int (max 1 (List.length pids)) /. wall;
      alloc = (minor1 -. minor0) /. float_of_int requests;
      work;
    }
  in
  (finish reqs x, obs)

(* Worker service per worker call, the residual left after worker and
   codec time, and shard balance, from one phase's rounds. *)
let worker_layers ctx ~requests ~codec_ns (lat : round_lat list) obs =
  let calls o = List.fold_left (fun a (c, _) -> a + c) 0 o.work in
  let ns o = List.fold_left (fun a (_, t) -> a + t) 0 o.work in
  add ctx "worker.service_us_mean"
    (List.map (fun o -> float_of_int (ns o) /. float_of_int (max 1 (calls o)) /. 1e3) obs);
  add ctx "router.residual_us"
    (List.map2
       (fun l o ->
         l.mean -. (float_of_int (ns o) /. float_of_int requests /. 1e3) -. (codec_ns /. 1e3))
       lat obs);
  add ctx "shard.load_skew"
    (List.map
       (fun o ->
         let cs = List.map fst o.work in
         float_of_int (List.fold_left max 0 cs) /. float_of_int (max 1 (List.fold_left min max_int cs)))
       obs)

let cpu_layers ctx obs =
  add ctx "router.cpu_frac" (List.map (fun o -> o.router_cpu) obs);
  add ctx "worker.cpu_frac" (List.map (fun o -> o.worker_cpu) obs)

let router_counters ctx r =
  let snap = Metrics.snapshot (Router.metrics r) in
  List.iter
    (fun name -> add ctx name [ float_of_int (counter snap name) ])
    [ "router.retries"; "router.timeouts"; "router.restarts"; "router.degraded";
      "router.bad_frames" ];
  let merged = Router.merged_snapshot r in
  add ctx "resilient_oracle.fallback_answers"
    [
      float_of_int
        (List.fold_left
           (fun a s -> a + counter merged (Printf.sprintf "shard%d.resilient.fallback_answers" s))
           0 (List.init shards Fun.id));
    ]

(* Encode and decode every frame of [calls] the way router and worker
   do: per-request bytes each way and codec ns. *)
let wire_layers ctx ~requests (calls : (Wire.request * Wire.response) array) =
  let bytes f = Array.fold_left (fun a c -> a + String.length (f c)) 0 calls in
  let per x = float_of_int x /. float_of_int requests in
  add ctx "wire.request_bytes" [ per (bytes (fun (q, _) -> Wire.encode_request q)) ];
  add ctx "wire.response_bytes" [ per (bytes (fun (_, a) -> Wire.encode_response a)) ];
  let replay () =
    let t0 = now () in
    Array.iter
      (fun (q, a) ->
        (match Wire.decode_frame (Wire.encode_request_ctx q) ~pos:0 with
        | Ok (p, _) -> ignore (Sys.opaque_identity (Wire.request_of_payload_ctx p))
        | Error _ -> ());
        match Wire.decode_frame (Wire.encode_response a) ~pos:0 with
        | Ok (p, _) -> ignore (Sys.opaque_identity (Wire.response_of_payload p))
        | Error _ -> ())
      calls;
    float_of_int (now () - t0) /. float_of_int requests
  in
  let samples = rounds ctx (fun _ -> replay ()) in
  add ctx "wire.codec_ns" samples;
  Stats.median (Array.of_list samples)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Self times of one routed request: the router (root span minus its
   rpc spans), rpc wait (rpc spans minus the worker spans under them)
   and the workers. [None] when the expected span names are missing. *)
let split_tree (root : Span.node) =
  let total l =
    Int64.to_float (List.fold_left (fun a c -> Int64.add a c.Span.elapsed_ns) 0L l)
  in
  let rpcs = List.filter (fun c -> has_prefix "rpc.shard" c.Span.name) root.children in
  let workers =
    List.concat_map
      (fun r -> List.filter (fun c -> has_prefix "shard" c.Span.name) r.Span.children)
      rpcs
  in
  if (not (has_prefix "router." root.name)) || rpcs = [] || workers = [] then None
  else
    let rpc = total rpcs and w = total workers in
    Some (Int64.to_float root.elapsed_ns -. rpc, rpc -. w, w)

(* BFS distances between every pair, kept off the OCaml heap: the major
   GC would otherwise scan its n^2 words in every cycle of a timed
   round. *)
let truth g =
  let rows = Traversal.bfs_rows ~pool:(Pool.create ~jobs:1 ()) g in
  let n = Graph.n g in
  let t = Bigarray.Array2.create Bigarray.int Bigarray.c_layout n n in
  Array.iteri (fun u row -> Array.iteri (fun v d -> t.{u, v} <- d) row) rows;
  t

let router_config g store seed trace =
  {
    (Router.default_config g) with
    Router.mmap = Some store;
    shards;
    partition = Partition.Hash;
    spot_check_every = 0;
    seed;
    trace;
  }

(* A second router with every request traced: [serve tr i] serves
   request [i] of the round drawn by [prepare]. Trees are collected
   every 256 requests, before the workers' 1024-span stores can drop
   any. Reports the self-time split and the traced p50 against
   [untraced_p50] (us). *)
let trace_layers ctx g store ~untraced_p50 ~count ~prepare ~serve =
  let tr =
    Router.create
      (router_config g store ctx.seed
         (Some { Router.default_trace_config with Router.sample_every = 1; capacity = 4096 }))
  in
  Fun.protect ~finally:(fun () -> Router.shutdown tr) @@ fun () ->
  let seen = Hashtbl.create 4096 in
  let splits = ref [] in
  let collect () =
    List.iter
      (fun (id, node) ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          Option.iter (fun s -> splits := s :: !splits) (split_tree node)
        end)
      (Router.trace_trees tr)
  in
  let lat = Array.make count 0 in
  let p50s =
    rounds ctx (fun _ ->
        let reqs = prepare () in
        let i = ref 0 in
        while !i < count do
          let stop = min count (!i + 256) in
          for j = !i to stop - 1 do
            let t0 = now () in
            serve tr reqs j;
            let t1 = now () in
            lat.(j) <- t1 - t0;
            Spans.record ~req:j "router.request" ~start_ns:t0 ~end_ns:t1
          done;
          collect ();
          i := stop
        done;
        p50_of lat /. 1e3)
  in
  add ctx "trace.overhead_pct"
    (List.map (fun p -> (p -. untraced_p50) /. untraced_p50 *. 100.) p50s);
  match !splits with
  | [] -> prerr_endline "hubbench: trace split absent (no router/rpc/worker spans)"
  | l ->
      let mean f = List.fold_left (fun a s -> a +. f s) 0. l /. float_of_int (List.length l) /. 1e3 in
      add ctx "trace.router_self_us" [ mean (fun (a, _, _) -> a) ];
      add ctx "trace.rpc_wait_us" [ mean (fun (_, b, _) -> b) ];
      add ctx "trace.worker_us" [ mean (fun (_, _, c) -> c) ]

(* Run [f] in a forked process and return its result, with the set-up
   timings and spans it recorded. The routed workloads build their
   labels this way: OCaml 5.1 never hands a grown heap back to the
   system, and shard workers forked from a router that had built the
   labels itself would carry (and copy on write) that heap, so their
   memory would depend on the construction's garbage, not on serving. *)
let isolated ctx (f : unit -> 'a) : 'a =
  let file =
    Filename.concat ctx.outdir (Printf.sprintf "isolated-%d.bin" (Unix.getpid ()))
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | r ->
            let oc = open_out_bin file in
            Marshal.to_channel oc
              (r, Hashtbl.copy ctx.steps, !Spans.recorded, !Spans.next_id)
              [];
            close_out oc;
            0
        | exception e ->
            prerr_endline ("hubbench: set-up failed: " ^ Printexc.to_string e);
            2
      in
      exit code
  | pid -> (
      match waitpid pid with
      | Unix.WEXITED 0 ->
          let ic = open_in_bin file in
          let (r : 'a), steps, spans, next =
            Fun.protect ~finally:(fun () -> close_in ic; Sys.remove file) (fun () ->
                (Marshal.from_channel ic
                  : 'a * (string, float list) Hashtbl.t * Spans.span list * int))
          in
          Hashtbl.reset ctx.steps;
          Hashtbl.iter (Hashtbl.replace ctx.steps) steps;
          Spans.recorded := spans;
          Spans.next_id := next;
          r
      | _ -> failwith "set-up process failed")

(* The routed set-up: PLL, pack, encode and write HUBFLAT1 (in an
   [isolated] process), map it, start the router, then [warm] (forcing
   any lazy worker state). *)
let routed_setup ctx g path ~warm =
  let prepare () =
    isolated ctx (fun () ->
        let labels = step ctx "pll.build_s" (fun () -> Pll.build g) in
        let flat = step ctx "flat_hub.pack_ms" (fun () -> Flat_hub.of_labels labels) in
        let bytes = step ctx "hub_io.encode_ms" (fun () -> Hub_io.flat_to_bytes flat) in
        step ctx "store.write_ms" (fun () -> write_file path bytes);
        (Hub_label.avg_size labels, Hub_label.max_size labels))
  in
  let serve _ =
    let store =
      step ctx "store.open_ms" (fun () ->
          match Mmap_hub.load_res path with
          | Ok s -> s
          | Error e -> failwith (Mmap_hub.error_to_string e))
    in
    let r =
      step ctx "router.create_ms" (fun () ->
          Router.create (router_config g store ctx.seed None))
    in
    Option.iter (fun w -> step ctx "hub_index.warm_ms" (fun () -> w r)) warm;
    (store, r)
  in
  let (avg, max_hubset), (store, r) =
    setups ctx ~prepare ~serve ~teardown:(fun (_, r) -> Router.shutdown r) ()
  in
  add ctx "pll.avg_hubset" [ avg ];
  add ctx "pll.max_hubset" [ float_of_int max_hubset ];
  bits_per_entry ctx ~bytes:(Mmap_hub.bytes store) ~entries:(Mmap_hub.total_size store);
  pin_timed ~pids:(worker_pids r) ();
  (store, r)

let serve_mem_pss ctx r =
  add ctx "serve_mem_mb"
    [ List.fold_left (fun a p -> a +. proc_kb (Printf.sprintf "/proc/%d/smaps_rollup" p) "Pss") 0. (worker_pids r) /. 1e3 ]

(* The graph and the zipf pair pool are fixtures, drawn from one fixed
   seed (the repository's bench fixture seed); the run seed draws the
   requests. Op and merge costs depend on the graph's label structure,
   so a graph per run seed would spread routed-ops latency by about 12%
   from seed to seed and hide the changes this benchmark exists to
   catch. *)
let fixture_seed = 20190721

let random_graph ctx =
  param ctx "n" ctx.sizes.n;
  param ctx "m" ctx.sizes.m;
  param ctx "graph_seed" fixture_seed;
  let rng = Random.State.make [| fixture_seed |] in
  (rng, Generators.random_connected rng ~n:ctx.sizes.n ~m:ctx.sizes.m)

(* ------------------------------------------------------------------ *)
(* routed-point *)

let routed_point ctx =
  let sz = ctx.sizes in
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let _, g = random_graph ctx in
  let n = sz.n and count = sz.point_singles in
  param ctx "singles_per_round" count;
  param ctx "batch_calls_per_round" sz.point_batches;
  with_store_file ctx "routed-point" @@ fun path ->
  let store, r = routed_setup ctx g path ~warm:None in
  Fun.protect ~finally:(fun () -> Router.shutdown r) @@ fun () ->
  let dist = truth g in
  let lat = Array.make count 0 in
  let store_pairs = ref [] and last = ref ([||], [||]) in
  let singles _ =
    routed_round ctx r ~histograms:[ "worker.latency_ns" ] ~requests:count
      ~prepare:(fun () -> (uniform_pairs rng n count, Array.make count 0))
      ~serve:(fun (ps, ans) ->
        time_singles count
          (fun i ->
            let u, v = Array.unsafe_get ps i in
            let a = Router.query r u v in
            ans.(i) <- a.dist;
            if a.degraded then ctx.degraded <- ctx.degraded + 1)
          lat)
      ~finish:(fun (ps, ans) () ->
        Array.iteri (fun i (u, v) -> check ctx (dist.{u, v} = ans.(i))) ps;
        digest ctx string_of_int ans;
        store_pairs := Array.sub ps 0 (min sz.store_sample count) :: !store_pairs;
        last := (ps, ans);
        lat_stats lat)
  in
  let batches _ =
    routed_round ctx r ~histograms:[] ~requests:(sz.point_batches * batch_pairs)
      ~prepare:ignore
      ~serve:(fun () ->
        batch_round ~calls:sz.point_batches
          ~draw:(fun () -> uniform_pairs rng n batch_pairs)
          ~call:(Router.query_batch r)
          ~dist:(fun (a : Router.answer) ->
            if a.degraded then ctx.degraded <- ctx.degraded + 1;
            a.dist))
      ~finish:(fun () b ->
        check_batches ctx (fun u v -> dist.{u, v}) b;
        b.qps)
  in
  let s, b = interleaved ctx singles batches in
  let single_rounds, single_obs = List.split s and batch_rounds, batch_obs = List.split b in
  add_latency ctx single_rounds;
  add ctx "qps" batch_rounds;
  serve_mem_pss ctx r;
  if ctx.traced then begin
    add ctx "router.slow_frac" (List.map (fun l -> l.slow) single_rounds);
    add ctx "router.alloc_words_per_query" (List.map (fun o -> o.alloc) single_obs);
    cpu_layers ctx batch_obs;
    router_counters ctx r;
    let ps, ans = !last in
    let frames =
      Array.mapi
        (fun i (u, v) ->
          ( Wire.Query { id = i; u; v },
            Wire.Answer { id = i; dist = ans.(i); source = Wire.source_primary; degraded = false } ))
        ps
    in
    let codec_ns = wire_layers ctx ~requests:count frames in
    worker_layers ctx ~requests:count ~codec_ns single_rounds single_obs;
    store_layer ctx ~query:(Mmap_hub.query store) ~size:(Mmap_hub.size store)
      (List.rev !store_pairs);
    let untraced_p50 = Stats.median (Array.of_list (List.map (fun l -> l.p50) single_rounds)) in
    let tcount = min count sz.trace_singles in
    trace_layers ctx g store ~untraced_p50 ~count:tcount
      ~prepare:(fun () -> uniform_pairs rng n tcount)
      ~serve:(fun tr ps j ->
        let u, v = ps.(j) in
        check ctx ((Router.query tr u v).dist = dist.{u, v}))
  end

(* ------------------------------------------------------------------ *)
(* routed-ops *)

(* Equal shares of the four aggregate kinds, uniform sources. *)
let gen_ops rng n count =
  Array.init count (fun i ->
      let s = Random.State.int rng n in
      match i mod 4 with
      | 0 ->
          Ops.One_to_many
            { source = s; targets = Array.init ops_targets (fun _ -> Random.State.int rng n) }
      | 1 -> Ops.Top_k_nearest { source = s; k = ops_k }
      | 2 -> Ops.Eccentricity s
      | _ -> Ops.Farthest s)

let op_kinds = [ "one_to_many"; "top_k_nearest"; "eccentricity"; "farthest" ]

(* The frames the router exchanges with each shard for one op, rebuilt
   from ground truth: one request/response pair per contributing shard. *)
let op_frames ~owner ~owned dist id req =
  let owned_pairs s source = Array.map (fun w -> (w, dist.{source, w})) owned.(s) in
  List.concat_map
    (fun s ->
      match req with
      | Ops.One_to_many { source; targets } ->
          let ts = Array.of_list (List.filter (fun w -> owner w = s) (Array.to_list targets)) in
          if ts = [||] then []
          else
            [ ( Wire.Op_row { id; source; targets = ts },
                Wire.Row_payload
                  { id; dists = Array.map (fun w -> dist.{source, w}) ts;
                    source = Wire.source_primary; degraded = false } ) ]
      | Ops.Top_k_nearest { source; k } ->
          [ ( Wire.Op_topk { id; source; k },
              Wire.Topk_payload
                { id; pairs = Ops.k_nearest ~k (owned_pairs s source);
                  source = Wire.source_primary; degraded = false } ) ]
      | Ops.Eccentricity v | Ops.Farthest v ->
          let vertex, dist =
            Option.value (Ops.farthest_of (owned_pairs s v)) ~default:(-1, 0)
          in
          [ ( Wire.Op_ecc { id; v },
              Wire.Ecc_payload
                { id; vertex; dist; source = Wire.source_primary; degraded = false } ) ]
      | _ -> [])
    (List.init shards Fun.id)

let routed_ops ctx =
  let sz = ctx.sizes in
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let _, g = random_graph ctx in
  let n = sz.n and count = sz.ops in
  param ctx "ops_per_round" count;
  param ctx "one_to_many_targets" ops_targets;
  param ctx "top_k" ops_k;
  with_store_file ctx "routed-ops" @@ fun path ->
  let store, r =
    routed_setup ctx g path
      ~warm:(Some (fun r -> ignore (Router.op r (Ops.Eccentricity 0))))
  in
  Fun.protect ~finally:(fun () -> Router.shutdown r) @@ fun () ->
  let dist = truth g in
  let expected req = Ops.brute ~n ~query:(fun u v -> dist.{u, v}) req in
  let lat = Array.make count 0 in
  let last = ref [||] in
  let histograms = List.map (fun k -> "worker.ops." ^ k ^ ".latency_ns") op_kinds in
  let op_rounds, obs =
    List.split @@ rounds ctx @@ fun _ ->
    routed_round ctx r ~histograms ~requests:count
      ~prepare:(fun () -> (gen_ops rng n count, Array.make count (Ops.R_ecc 0)))
      ~serve:(fun (reqs, out) ->
        time_singles count
          (fun i ->
            let res = Router.op r reqs.(i) in
            out.(i) <- res.response;
            if res.degraded then ctx.degraded <- ctx.degraded + 1)
          lat)
      ~finish:(fun (reqs, out) () ->
        Array.iteri (fun i q -> check ctx (Ops.equal_response (expected q) out.(i))) reqs;
        digest ctx Ops.response_to_string out;
        last := reqs;
        let per_kind =
          List.mapi
            (fun k name ->
              let l = List.filteri (fun i _ -> i mod 4 = k) (Array.to_list lat) in
              (name, p50_of (Array.of_list l) /. 1e3))
            op_kinds
        in
        (lat_stats lat, per_kind))
  in
  let lat_rounds = List.map fst op_rounds in
  add_latency ctx lat_rounds;
  add ctx "qps" (List.map (fun l -> 1e6 /. l.mean) lat_rounds);
  serve_mem_pss ctx r;
  if ctx.traced then begin
    add ctx "router.slow_frac" (List.map (fun l -> l.slow) lat_rounds);
    add ctx "router.alloc_words_per_query" (List.map (fun o -> o.alloc) obs);
    cpu_layers ctx obs;
    List.iter
      (fun name ->
        add ctx ("ops." ^ name ^ "_us_p50") (List.map (fun (_, pk) -> List.assoc name pk) op_rounds))
      op_kinds;
    router_counters ctx r;
    let owner v = Partition.owner Partition.Hash ~shards ~n v in
    let owned =
      Array.init shards (fun s ->
          Array.of_list (List.filter (fun v -> owner v = s) (List.init n Fun.id)))
    in
    let frames =
      Array.concat
        (Array.to_list (Array.mapi (fun i q -> Array.of_list (op_frames ~owner ~owned dist i q)) !last))
    in
    let codec_ns = wire_layers ctx ~requests:count frames in
    worker_layers ctx ~requests:count ~codec_ns lat_rounds obs;
    store_layer ctx ~query:(Mmap_hub.query store) ~size:(Mmap_hub.size store)
      (List.init (sz.rounds + 1) (fun _ -> uniform_pairs rng n sz.store_sample));
    let untraced_p50 = Stats.median (Array.of_list (List.map (fun l -> l.p50) lat_rounds)) in
    let tcount = min count sz.trace_singles in
    trace_layers ctx g store ~untraced_p50 ~count:tcount
      ~prepare:(fun () -> gen_ops rng n tcount)
      ~serve:(fun tr reqs j ->
        check ctx (Ops.equal_response (expected reqs.(j)) (Router.op tr reqs.(j)).response))
  end

(* ------------------------------------------------------------------ *)
(* Local workloads *)

(* The local set-up: PLL, pack, encode and write the store file, then
   [open_] it and wrap it in a resilient oracle. The live-heap growth
   of the last [open_] + create, plus [mapped] bytes, is
   serve_mem_mb. *)
let local_setup ctx g path ~encode ~open_ ~primary ~mapped =
  let prepare () =
    let labels = step ctx "pll.build_s" (fun () -> Pll.build g) in
    let flat = step ctx "flat_hub.pack_ms" (fun () -> Flat_hub.of_labels labels) in
    let bytes = step ctx "hub_io.encode_ms" (fun () -> encode flat) in
    step ctx "store.write_ms" (fun () -> write_file path bytes);
    labels
  in
  let serve _ =
    let store = step ctx "store.open_ms" (fun () -> open_ path) in
    let oracle =
      step ctx "resilient_oracle.create_ms" (fun () ->
          RO.create ~spot_check_every:0 ~primary:(primary store) g)
    in
    (store, oracle)
  in
  let heap0 = ref 0 in
  let labels, (store, oracle) =
    setups ctx ~prepare ~serve ~teardown:ignore ~between:(fun _ -> heap0 := live_bytes ()) ()
  in
  let heap = live_bytes () - !heap0 in
  add ctx "serve_mem_mb" [ float_of_int (heap + mapped store) /. 1e6 ];
  add ctx "pll.avg_hubset" [ Hub_label.avg_size labels ];
  add ctx "pll.max_hubset" [ float_of_int (Hub_label.max_size labels) ];
  (labels, store, oracle)

(* Median per-request time of [wrapped] minus that of [direct] over
   the same pairs, each from its own fresh state. *)
let overhead_layer ctx ~direct ~wrapped pair_rounds =
  let time q ps =
    let lat = Array.make (Array.length ps) 0 in
    time_singles (Array.length ps) (fun i -> let u, v = ps.(i) in ignore (Sys.opaque_identity (q u v) : int)) lat;
    p50_of lat
  in
  let d = direct () and w = wrapped () in
  let per_round = List.map (fun ps -> time w ps -. time d ps) pair_rounds in
  add ctx "resilient_oracle.overhead_ns" (List.tl per_round)

let oracle_fallbacks ctx oracle =
  add ctx "resilient_oracle.fallback_answers"
    [ float_of_int (RO.stats oracle).RO.fallback_answers ]

(* ------------------------------------------------------------------ *)
(* local-zipf *)

(* [k] distinct unordered pairs, in random order. *)
let distinct_pairs rng n k =
  let seen = Hashtbl.create k in
  let out = ref [] in
  while Hashtbl.length seen < k do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    let key = (min u v, max u v) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := (u, v) :: !out
    end
  done;
  Array.of_list !out

let local_zipf ctx =
  let sz = ctx.sizes in
  let rng = Random.State.make [| ctx.seed; 3 |] in
  let fixture, g = random_graph ctx in
  let n = sz.n and count = sz.zipf_singles in
  param ctx "pair_pool" sz.zipf_pool;
  param ctx "cache_slots" cache_slots;
  param ctx "singles_per_round" count;
  param ctx "batch_calls_per_round" sz.zipf_batches;
  let pool = distinct_pairs fixture n sz.zipf_pool in
  let zipf = Stats.Zipf.create ~s:0.99 ~n:sz.zipf_pool in
  let dist = truth g in
  let draw k = Array.init k (fun _ -> Stats.Zipf.sample zipf rng) in
  with_store_file ctx "local-zipf" @@ fun path ->
  let open_ path =
    match Hub_io.flat_of_bytes_res (read_file path) with
    | Ok f -> Flat_hub.with_cache ~cache_slots f
    | Error e -> failwith e.Hub_io.msg
  in
  let _, cached, oracle =
    local_setup ctx g path ~encode:Hub_io.flat_to_bytes ~open_
      ~primary:RO.flat_primary ~mapped:(fun _ -> 0)
  in
  bits_per_entry ctx ~bytes:(Unix.stat path).Unix.st_size ~entries:(Flat_hub.total_size cached);
  pin_timed ();
  let pu = Array.map fst pool and pv = Array.map snd pool in
  let lat = Array.make count 0 and ans = Array.make count 0 in
  let fallback0 = (RO.stats oracle).RO.fallback_answers in
  let idx_rounds = ref [] in
  let singles, qps =
    interleaved ctx
      (fun _ ->
        let idx = draw count in
        let h0, m0 = Option.get (Flat_hub.cache_stats cached) in
        time_singles count
          (fun i ->
            let k = Array.unsafe_get idx i in
            Array.unsafe_set ans i
              (RO.query oracle (Array.unsafe_get pu k) (Array.unsafe_get pv k)))
          lat;
        let h1, m1 = Option.get (Flat_hub.cache_stats cached) in
        Array.iteri (fun i k -> check ctx (dist.{pu.(k), pv.(k)} = ans.(i))) idx;
        digest ctx string_of_int ans;
        idx_rounds := Array.sub idx 0 (min sz.store_sample count) :: !idx_rounds;
        (lat_stats lat, float_of_int (h1 - h0) /. float_of_int (h1 - h0 + m1 - m0)))
      (fun _ ->
        let b =
          batch_round ~calls:sz.zipf_batches
            ~draw:(fun () -> Array.map (fun k -> pool.(k)) (draw batch_pairs))
            ~call:(RO.query_many oracle) ~dist:Fun.id
        in
        check_batches ctx (fun u v -> dist.{u, v}) b;
        b.qps)
  in
  ctx.degraded <- ctx.degraded + (RO.stats oracle).RO.fallback_answers - fallback0;
  add_latency ctx (List.map fst singles);
  add ctx "qps" qps;
  if ctx.traced then begin
    add ctx "flat_hub.cache_hit_rate" (List.map snd singles);
    oracle_fallbacks ctx oracle;
    let pair_rounds =
      List.rev_map
        (fun idx -> Array.map (fun k -> pool.(k)) idx)
        !idx_rounds
    in
    let nocache = Flat_hub.with_cache ~cache_slots:0 cached in
    store_layer ctx ~query:(Flat_hub.query nocache) ~size:(Flat_hub.size nocache) pair_rounds;
    overhead_layer ctx
      ~direct:(fun () -> Flat_hub.query (Flat_hub.with_cache ~cache_slots cached))
      ~wrapped:(fun () ->
        RO.query
          (RO.create ~spot_check_every:0
             ~primary:(RO.flat_primary (Flat_hub.with_cache ~cache_slots cached))
             g))
      pair_rounds
  end

(* ------------------------------------------------------------------ *)
(* local-gadget *)

let local_gadget ctx =
  let sz = ctx.sizes in
  let rng = Random.State.make [| ctx.seed; 4 |] in
  let g = (Repro_core.Degree_gadget.build (Repro_core.Grid_graph.create ~b:sz.gadget_b ~l:sz.gadget_l ())).graph in
  let n = Graph.n g and count = sz.gadget_singles in
  param ctx "gadget_b" sz.gadget_b;
  param ctx "gadget_l" sz.gadget_l;
  param ctx "n" n;
  param ctx "singles_per_round" count;
  param ctx "batch_calls_per_round" sz.gadget_batches;
  with_store_file ctx "local-gadget" @@ fun path ->
  let open_ path =
    match Compact_hub.load_res path with
    | Ok s -> s
    | Error e -> failwith (Compact_hub.error_to_string e)
  in
  let labels, store, oracle =
    local_setup ctx g path ~encode:(fun f -> Hub_io.compact_to_bytes f) ~open_
      ~primary:RO.compact_primary ~mapped:Compact_hub.bytes
  in
  bits_per_entry ctx ~bytes:(Compact_hub.bytes store) ~entries:(Compact_hub.total_size store);
  pin_timed ();
  let lat = Array.make count 0 and ans = Array.make count 0 in
  let fallback0 = (RO.stats oracle).RO.fallback_answers in
  let pair_rounds = ref [] in
  param ctx "jobs" (Lazy.force pool_jobs);
  let singles, qps =
    interleaved ctx
      (fun _ ->
        let ps = uniform_pairs rng n count in
        time_singles count
          (fun i ->
            let u, v = Array.unsafe_get ps i in
            Array.unsafe_set ans i (RO.query oracle u v))
          lat;
        Array.iteri (fun i (u, v) -> check ctx (Hub_label.query labels u v = ans.(i))) ps;
        digest ctx string_of_int ans;
        pair_rounds := Array.sub ps 0 (min sz.store_sample count) :: !pair_rounds;
        lat_stats lat)
      (fun _ ->
        let b =
          with_pool @@ fun pool ->
          batch_round ~calls:sz.gadget_batches
            ~draw:(fun () -> uniform_pairs rng n batch_pairs)
            ~call:(RO.query_many ~pool oracle) ~dist:Fun.id
        in
        check_batches ctx (Hub_label.query labels) b;
        b.qps)
  in
  ctx.degraded <- ctx.degraded + (RO.stats oracle).RO.fallback_answers - fallback0;
  (* anchor the labels to BFS on a seeded sample of sources *)
  for _ = 1 to sz.bfs_sources do
    let s = Random.State.int rng n in
    let row = Traversal.bfs g s in
    for _ = 1 to 64 do
      let t = Random.State.int rng n in
      if Hub_label.query labels s t <> row.(t) || Compact_hub.query store s t <> row.(t)
      then ctx.wrong <- ctx.wrong + 1
    done
  done;
  param ctx "bfs_sources" sz.bfs_sources;
  add_latency ctx singles;
  add ctx "qps" qps;
  if ctx.traced then begin
    oracle_fallbacks ctx oracle;
    let pair_rounds = List.rev !pair_rounds in
    store_layer ctx ~query:(Compact_hub.query store) ~size:(Compact_hub.size store) pair_rounds;
    overhead_layer ctx
      ~direct:(fun () -> Compact_hub.query store)
      ~wrapped:(fun () -> RO.query oracle)
      pair_rounds
  end

(* ------------------------------------------------------------------ *)

let run_one ~name ~seed ~traced ~sizes ~outdir =
  let ctx =
    {
      seed;
      traced;
      sizes;
      outdir;
      metrics = [];
      params = [];
      steps = Hashtbl.create 16;
      digests = [];
      attempted = 0;
      wrong = 0;
      degraded = 0;
    }
  in
  Spans.enabled := traced;
  let body =
    match name with
    | "routed-point" -> routed_point
    | "routed-ops" -> routed_ops
    | "local-zipf" -> local_zipf
    | "local-gadget" -> local_gadget
    | w -> invalid_arg ("hubbench: unknown workload " ^ w)
  in
  Spans.run name (fun () -> body ctx);
  param ctx "setups" sizes.setups;
  param ctx "rounds" sizes.rounds;
  let failed = min ctx.attempted (ctx.wrong + ctx.degraded) in
  if not traced then
    add ctx "failed_frac" [ float_of_int failed /. float_of_int (max 1 ctx.attempted) ];
  (* a run reports one set: end-to-end untraced, per-layer traced *)
  let set = if traced then Spec.per_layer else Spec.failed_frac :: Spec.end_to_end in
  let metrics =
    List.filter_map
      (fun (s : Spec.metric) -> List.find_opt (fun m -> m.Report.name = s.name) ctx.metrics)
      set
  in
  {
    Report.workload = name;
    seed;
    traced;
    correct = ctx.wrong = 0;
    attempted = ctx.attempted;
    failed;
    answers_sha256 = Checksum.sha256_hex (String.concat "" (List.rev ctx.digests));
    params = List.rev ctx.params;
    metrics;
  }
