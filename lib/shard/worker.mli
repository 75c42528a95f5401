(** One shard worker: a single-threaded frame loop over a label slice.

    A worker owns the {!Repro_hub.Partition.slice} of the labeling for
    its shard, packed into a {!Repro_hub.Flat_hub} store behind the
    full {!Repro_serve.Resilient_oracle} degradation chain, and serves
    {!Wire} requests read from [input] until [Shutdown], EOF, or an
    unrecoverable stream error. Frames go through a {!Frame_io}
    buffer: one read may bring many requests, and their responses are
    queued and written together when no whole request is left to
    serve, at [Shutdown], at the end of the stream, and before a chaos
    fault fires. Point queries and the aggregate ops
    ([Op_row], [Op_ecc], [Op_topk], [Op_diam]) all route through the
    oracle's per-op degradation ({!Repro_serve.Resilient_oracle.op});
    aggregates read label rows only at the shard's {e owned} vertices
    (or from owned sources), which {!Repro_hub.Partition.slice} keeps
    exact, and are instrumented under [worker.ops.<op>.*]. Per-frame
    errors ([Bad_opcode],
    [Bad_payload]) get an in-band [Error_frame] and the loop continues
    — framing keeps the stream in sync; desynchronising errors
    (truncation, oversized length) end the process, and the router's
    supervisor handles the fallout.

    The same [run] serves both deployments: the router forks and calls
    it directly over a socketpair, and [hubhard serve worker] execs a
    fresh process with the pipe on stdin/stdout.

    With [clock_step] set, all latency metrics come from a manual
    clock stepping that many ns per read, so a worker's metrics
    snapshot — and therefore the router's merged snapshot — is
    byte-identical across same-seed runs. A {!Repro_serve.Fault_injector.chaos}
    plan makes the worker misbehave exactly once, just before writing
    its [after_frames]-th response frame. *)

open Repro_graph
open Repro_hub
open Repro_serve

type primary =
  | Search  (** search-only: the BFS fallback chain alone *)
  | Labels of Hub_label.t
      (** the shard's {!Repro_hub.Partition.slice} of the labeling,
          packed into a heap {!Repro_hub.Flat_hub} *)
  | Store of Label_store.packed
      (** the {e whole} store, served as is: the router's partition
          routing confines which pairs arrive. For a mapped store
          ({!Repro_hub.Mmap_hub}, {!Repro_hub.Compact_hub}) the OS page
          cache keeps one physical copy across every worker mapping the
          same file. *)

val primary_n : primary -> int option
(** The vertex count a primary serves; [None] for [Search]. *)

type config = {
  graph : Graph.t;
  primary : primary;
  shards : int;
  shard : int;
  partition : Partition.spec;
  spot_check_every : int;
  quarantine_after : int;
  step_budget : int option;
  chaos : Fault_injector.chaos option;
  clock_step : int64 option;
      (** manual-clock step per query; [None] = monotonic clock *)
  seed : int;  (** reserved for future stochastic faults; recorded only *)
}

val default_config : Graph.t -> config
(** Search-only ([primary = Search]) single-shard worker:
    [shards = 1], [shard = 0], [Range] partition,
    [spot_check_every = 1], [quarantine_after = 3], no budget, no
    chaos, manual clock off, seed 0. *)

val run : input:Unix.file_descr -> output:Unix.file_descr -> config -> unit
(** Blocks serving frames until [Shutdown] or EOF. Never raises on
    malformed input; raises [Invalid_argument] only on a bad [config]
    (shard out of range, or a primary whose [n] differs from the
    graph's). *)
