(** Zero-copy memory-mapped hub-label store.

    {!Flat_hub} answers queries from heap CSR arrays, which means every
    worker that serves a packed label file first reads and re-validates
    the whole thing into its own copy. This module instead maps the
    canonical [HUBFLAT1] file (see {!Hub_io}) read-only via
    [Unix.map_file] and answers the same two-pointer merge queries
    straight out of the mapping:

    - {e cold start is O(1)} in the label size — opening a store costs
      one [mmap] plus an O(n) header/offset validation, never an
      O(total) copy;
    - {e one physical copy}: every process mapping the same file shares
      the OS page cache, so a fleet of shard workers pays for the label
      bytes once;
    - {e larger-than-RAM} label sets stay servable — pages are demand
      -faulted and evictable.

    The price of skipping the copy is that validation must be explicit:
    {!load_res} turns {e every} malformed file — truncated at any byte,
    hostile header words, offsets that walk out of bounds — into a
    typed {!error}, never a segfault, [Invalid_argument] or torn read.
    The default validation is O(n) (header + the full offset table);
    since every data index the query path touches is bounded by a
    validated offset, unsafe reads are in-bounds even when the entry
    words themselves are garbage. Pass [~deep:true] (or call
    {!validate_entries}) to also scan all [2*total] entry words —
    sorted strictly-increasing hubs in [[0, n)], non-negative
    native-int distances — which restores the exact guarantees of
    {!Flat_hub.of_raw} at heap-parse cost.

    The mapping lives until the store is garbage-collected; unlinking
    the file after a successful load is safe (POSIX keeps mapped pages
    alive). The cache, batching, backend and ops layers are
    {!Label_store.Make} over the mapping; a cached store mutates
    heap-side cache arrays only — the mapping itself is never
    written. *)

type t

type error = Label_store.error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }
(** The typed load errors shared with the other mapped store (see
    {!Label_store.error} for each case). *)

val error_to_string : error -> string
(** One line, opening with ["Mmap_hub: "]. *)

val load_res : ?cache_slots:int -> ?deep:bool -> string -> (t, error) result
(** Map a [HUBFLAT1] file read-only and validate it. [cache_slots]
    (default 0) configures the direct-mapped distance cache; [deep]
    (default [false]) additionally scans every entry word (see the
    module preamble for the exact contract). Never raises on malformed
    input; the file descriptor is closed before returning in every
    case (the mapping survives the close).
    @raise Invalid_argument if [cache_slots < 0]. *)

val validate_entries : t -> (unit, error) result
(** The O(total) entry scan of [~deep:true], runnable after the fact:
    checks every hubset is sorted by strictly increasing hub id in
    [[0, n)] with distances that are non-negative native ints. *)

val with_cache : cache_slots:int -> t -> t
(** The same mapping with a fresh cache ([0] removes it).
    @raise Invalid_argument if [cache_slots < 0]. *)

val n : t -> int
val total_size : t -> int

val size : t -> int -> int
(** Hubset size of a vertex.
    @raise Invalid_argument on an out-of-range vertex. *)

val hubs : t -> int -> (int * int) array
(** The hubset of a vertex as fresh [(hub, dist)] pairs (tests and
    debugging, not the hot path).
    @raise Invalid_argument on an out-of-range vertex. *)

val path : t -> string
(** The file this store was mapped from (informational — the mapping
    stays valid even if the path is unlinked afterwards). *)

val bytes : t -> int
(** Size in bytes of the mapping. *)

val to_flat : t -> Flat_hub.t
(** Materialise into a heap {!Flat_hub.t} (re-validating every entry
    via {!Flat_hub.of_raw}).
    @raise Invalid_argument if the mapped entries are malformed — a
    shallow-loaded mapping can hold garbage entry words. *)

val query : t -> int -> int -> int
(** Two-pointer merge intersection over the mapped words;
    {!Repro_graph.Dist.inf} when the hubsets are disjoint. Consults and
    fills the cache when one was configured.
    @raise Invalid_argument on out-of-range endpoints. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** Batched queries with the contract of {!Label_store.Make}.
    @raise Invalid_argument if any endpoint is out of range. *)

val cache_stats : t -> (int * int) option
(** [Some (hits, misses)] for a cached store, [None] otherwise. *)

val space_words : t -> int
(** Words of the mapped label structure: [(n + 1) + 2 * total] — the
    same figure {!Flat_hub.space_words} reports for the equivalent heap
    store. The heap footprint of [t] itself is O(1) + cache. *)

val pp : Format.formatter -> t -> unit

val backend : t -> Repro_obs.Backend.t
(** The store as a uniform serving backend (name
    ["mmap-hub-labeling"]), traced as {!Label_store.Make}. *)

val ops :
  ?pool:Repro_par.Pool.t ->
  ?owned:int array ->
  ?budget:int ->
  t ->
  Repro_obs.Backend.ops
(** The store as an ops backend ({!Label_store.Make}): [Dist] /
    [Batch] stay on the mapped words; aggregates run over a lazily
    built shared {!Hub_index}, which lives on the heap — the one
    departure from the zero-copy budget, paid only when an aggregate
    is first asked for. *)

val pack : t -> Label_store.packed
(** The store for the serving layers (kind ["mmap"]). *)
