(* The benchmark's vocabulary: workloads and metrics with their units,
   directions and regression bounds. BENCHMARK.json at the repository
   root lists the same names; the test suite checks the two agree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** share of the baseline median a metric may worsen by before a
          change counts as a regression; [None] for per-layer metrics *)
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

(* Every workload reports every one of these. [p50_us]/[p99_us] time
   one request of the workload's kind: a point query on routed-point
   and the local workloads, one aggregate op on routed-ops. [qps] is
   batched throughput (1024 pairs per call) on the point workloads and
   closed-loop op throughput on routed-ops. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "p50_us" "us" Lower 0.20;
    e2e "p99_us" "us" Lower 0.25;
    e2e "qps" "1/s" Higher 0.25;
    e2e "store_bits_per_entry" "bits" Lower 0.01;
    e2e "serve_mem_mb" "MB" Lower 0.10;
  ]

(* Always 0 on a healthy build, so it cannot be a relative-bound metric;
   any increase is a regression. *)
let failed_frac = e2e "failed_frac" "fraction" Lower 0.

let per_layer =
  [
    layer "pll.build_s" "s";
    layer "pll.avg_hubset" "entries";
    layer "pll.max_hubset" "entries";
    layer "flat_hub.pack_ms" "ms";
    layer "hub_io.encode_ms" "ms";
    layer "store.open_ms" "ms";
    layer "router.create_ms" "ms";
    layer "hub_index.warm_ms" "ms";
    layer "store.query_ns_p50" "ns";
    layer "store.query_ns_p99" "ns";
    layer "store.entries_scanned_mean" "entries";
    layer "store.fixed_ns" "ns";
    layer "store.ns_per_entry" "ns";
    layer ~better:Higher "store.fit_r2" "ratio";
    layer ~better:Higher "flat_hub.cache_hit_rate" "ratio";
    layer "resilient_oracle.overhead_ns" "ns";
    layer "resilient_oracle.fallback_answers" "count";
    layer "wire.request_bytes" "bytes";
    layer "wire.response_bytes" "bytes";
    layer "wire.codec_ns" "ns";
    layer "worker.service_us_mean" "us";
    layer "router.residual_us" "us";
    layer "router.slow_frac" "ratio";
    layer "router.alloc_words_per_query" "words";
    layer "router.cpu_frac" "ratio";
    layer "worker.cpu_frac" "ratio";
    layer "shard.load_skew" "ratio";
    layer "router.retries" "count";
    layer "router.timeouts" "count";
    layer "router.restarts" "count";
    layer "router.degraded" "count";
    layer "router.bad_frames" "count";
    layer "ops.one_to_many_us_p50" "us";
    layer "ops.top_k_nearest_us_p50" "us";
    layer "ops.eccentricity_us_p50" "us";
    layer "ops.farthest_us_p50" "us";
    layer "trace.router_self_us" "us";
    layer "trace.rpc_wait_us" "us";
    layer "trace.worker_us" "us";
    layer "trace.overhead_pct" "%";
  ]

let find name =
  List.find_opt (fun m -> m.name = name) ((failed_frac :: end_to_end) @ per_layer)

type workload = { wname : string; why : string }

let workloads =
  [
    {
      wname = "routed-point";
      why =
        "uniform point queries through a 2-shard forked router over a mapped \
         HUBFLAT1 store (random n=2000, m=4000): router, wire and IPC \
         dominate";
    };
    {
      wname = "routed-ops";
      why =
        "the same fleet serving one-to-many, top-k, eccentricity and \
         farthest in equal shares: the router layer driving Hub_index and \
         the Ops reducers";
    };
    {
      wname = "local-zipf";
      why =
        "in-process resilient oracle over a heap flat store with an \
         8192-slot cache; Zipf(0.99) over 2048 pairs, so the cache and \
         wrapper dominate";
    };
    {
      wname = "local-gadget";
      why =
        "the paper's G_{3,1} (n=25272, avg hubset 140) on a cache-free \
         mapped HUBFLAT2 store, uniform pairs: the label merge and PLL \
         construction dominate";
    };
  ]

let workload_names = List.map (fun w -> w.wname) workloads
