(** The router: owns the worker fleet, fans queries out, merges
    metrics, survives its workers.

    A router spawns [shards] workers (by {!Fork}ing and calling
    {!Worker.run} directly over a [Unix] socketpair, or by {!Exec}ing
    [hubhard serve worker] with the socket on stdin/stdout), routes
    each query pair to the shard owning it
    ({!Repro_hub.Partition.owner_of_pair}) and speaks {!Wire} over the
    pipes. Each connection reads and writes through one {!Frame_io}
    buffer. Batches are pipelined per shard in windows of 256 requests,
    each window sent in one write; responses are collected in id order,
    and stale or reordered frames are matched by id.

    Failure handling is delegated to a {!Supervisor}: deadline misses
    (measured on the monotonic clock, {!Frame_io.deadline}) and
    unparseable frames are soft failures, EOF/EPIPE are crashes.
    When the supervisor orders a restart the router waits out the
    backoff ({b advancing the manual clock} instead of sleeping when
    [clock_step] is set — that is what makes the chaos suite both fast
    and deterministic), SIGKILLs and reaps the old process, respawns,
    and confirms with a ping. Restarts happen {e between} batches; a
    shard that dies mid-batch degrades only its own partition for the
    rest of that batch, with the router's local search-only
    {!Repro_serve.Resilient_oracle} answering those pairs exactly —
    marked [source = source_router], [degraded = true]. A quarantined
    shard degrades its partition forever.

    All router-side accounting lands in a {!Repro_obs.Metrics} registry
    ([router.queries], [router.degraded], [router.restarts],
    [router.timeouts], [router.retries], [router.bad_frames],
    [router.latency_ns]); {!merged_snapshot} unions it with each live
    worker's snapshot under a [shard<i>.] prefix. Structured events
    ([router.spawn], [router.crash], [router.restart],
    [router.quarantine], …) go to the ambient
    {!Repro_obs.Events} sink when one is installed. *)

open Repro_graph
open Repro_hub
open Repro_serve

type spawn =
  | Fork  (** fork(2) before any domain pool exists — OCaml 5 forbids
              forking once domains run *)
  | Exec of (shard:int -> string array)
      (** argv for shard [i]; argv.(0) is the executable path *)

type trace_config = {
  sample_every : int;
      (** head-sample 1 in N traces (a deterministic hash of the trace
          id); [1] records everything *)
  slow_ns : int64;
      (** additionally force-record any query at least this slow;
          [0L] disables the threshold *)
  capacity : int;  (** bound on the router-side span store *)
}

val default_trace_config : trace_config
(** Sample everything, no slow threshold, 4096 spans. *)

type config = {
  graph : Graph.t;
  labels : Hub_label.t option;
      (** the labeling each worker slices ({!Worker.Labels}). The three
          store fields become one {!Worker.primary} per worker; at most
          one may be set. *)
  mmap : Mmap_hub.t option;
      (** zero-copy worker primaries: forked workers inherit the
          parent's mapping (one page-cache copy across the fleet);
          exec-mode spawn functions must arrange for the child to map
          the same file itself (the CLI appends [--mmap]). Mutually
          exclusive with [labels]. *)
  compact : Compact_hub.t option;
      (** compressed zero-copy worker primaries: the same spawn
          contract as [mmap] over a [HUBFLAT2] store (the CLI appends
          [--compact]). Mutually exclusive with [labels] and [mmap]. *)
  shards : int;
  partition : Partition.spec;
  supervisor : Supervisor.config;
  spot_check_every : int;
  quarantine_after : int;
  step_budget : int option;
  chaos : (int * Fault_injector.chaos) list;
      (** per-shard chaos plans, applied to the {e initial} spawn only
          — a restarted worker comes back clean *)
  clock_step : int64 option;
      (** manual clocks everywhere (workers' latency histograms, the
          router's, and backoff waits) for byte-stable snapshots *)
  seed : int;
  spawn : spawn;
  trace : trace_config option;
      (** distributed tracing: when set, every query mints a
          deterministic trace context from [(seed, sequence)],
          propagates it to the workers on the wire, and records spans
          for sampled, forced (retried/degraded) and slow traces.
          [None] (the default) sends context-free frames, byte-identical
          to the pre-tracing protocol. *)
}

val default_config : Graph.t -> config
(** Fork spawn, 2 shards, [Range] partition,
    {!Supervisor.default_config}, exhaustive spot checks, no chaos,
    monotonic clocks, seed 0, no tracing. *)

type answer = { dist : int; source : int; degraded : bool }
(** [source] is a {!Wire} source code; [degraded] is set on any answer
    not served by a healthy worker's primary path. *)

type t

val create : config -> t
(** Spawns and pings every worker. A worker that cannot be spawned or
    never answers its first ping goes straight through the supervisor's
    crash path (so a hopeless shard ends up quarantined, not fatal).
    Ignores [SIGPIPE] process-wide — dead workers must surface as
    [EPIPE], not kill the router. *)

val query : t -> int -> int -> answer
(** Routed single query; heals due restarts first.
    @raise Invalid_argument on out-of-range endpoints (as {!query_batch})
    or after {!shutdown}. *)

val query_batch : t -> (int * int) array -> answer array
(** Pipelined batch, one answer per pair, in order. Restarts are
    healed before the batch and never during it.
    @raise Invalid_argument if any endpoint lies outside [[0, n)] —
    checked for every pair before any frame is sent, so a caller's bad
    pair costs no worker a failure — or after {!shutdown}. *)

type op_result = {
  response : Repro_obs.Ops.response;
  source : int;
  degraded : bool;
}
(** [source] is the deepest {!Wire} source code that contributed to the
    merged answer (codes are ordered primary < bidirectional < bfs <
    router); [degraded] is set if {e any} contributing shard answered
    off its primary path or the router's local fallback served a dead
    shard's share. *)

val op : t -> Repro_obs.Ops.request -> op_result
(** Fan an {!Repro_obs.Ops} aggregate out to the owning shards and
    merge: one-to-many rows are scattered by target owner ([Op_row]),
    eccentricity/farthest take the per-shard farthest owned witness
    ([Op_ecc]) and reduce with the shared max-dist-min-vertex
    tie-break, top-k concatenates per-shard k-nearest candidate sets
    ([Op_topk]) and re-reduces, and diameter/radius take max/min over
    shard eccentricity extrema ([Op_diam]). [Dist]/[Batch] ride the
    existing {!query_batch} path. Heals due restarts first; a shard
    that fails mid-op (after one soft retry) has its share served
    exactly by the router's local search-only oracle with
    [source = source_router]. Responses are byte-identical to the
    in-process backends for every partition and shard count.
    Instrumented under [router.ops.<op>.*] in {!metrics}.
    @raise Invalid_argument on a request that fails
    {!Repro_obs.Ops.validate} or after {!shutdown}. *)

val supervisor : t -> Supervisor.t
val metrics : t -> Repro_obs.Metrics.t
(** The router's own registry (no worker content). *)

val pid : t -> int -> int option
(** The shard's live worker pid, if it has one ([None] while down). *)

val heal : t -> unit
(** Perform any due restarts now (normally implicit at batch start). *)

val merged_snapshot : t -> Repro_obs.Metrics.snapshot
(** Router registry ∪ each live worker's snapshot under [shard<i>.];
    workers that are down or quarantined contribute nothing. *)

val trace_trees : t -> (string * Repro_obs.Span.node) list
(** The end-to-end trace trees recorded so far, keyed and sorted by
    32-hex trace id: the router's span store merged with every live
    worker's (fetched over the wire), reassembled per trace. Each tree
    roots at the query's [router.<op>] span with [rpc.shard<i>[.w<j>]]
    child spans per shard call, [retry.shard<i>] /
    [recompute.shard<i>.<op>] / [backoff.shard<i>] spans on the unlucky
    paths, and the workers' own [shard<i>.<op>] spans nested under the
    rpc that carried their context. [[]] when tracing is off. A worker
    that cannot report its spans follows the same soft-failure taxonomy
    as {!merged_snapshot} — the tree is then partial, never an error.
    Span timestamps are raw per-process clock readings: offsets are
    comparable within one process's spans only. *)

val shutdown : t -> unit
(** Send [Shutdown] to every live worker, close the pipes, reap every
    child (SIGKILL stragglers). Idempotent. *)
