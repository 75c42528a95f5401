(** Compressed hub-label store — the [HUBFLAT2] byte layout.

    {!Flat_hub} and {!Mmap_hub} spend two 64-bit words per label entry,
    ~8x the information content of a sparse-graph labeling whose hub
    ids are sorted (deltas are small) and whose distances cluster
    around a per-vertex minimum. This module packs the same CSR store
    into a byte blob:

    - hub ids are {e delta-encoded} within each vertex (strictly
      increasing order makes every delta [>= 1], so [delta - 1] is
      stored) and LEB128-{e varint}-packed;
    - distances are encoded as {e zigzag varints} of [d - base], where
      [base] is the vertex's minimum stored distance;
    - entries are grouped into fixed-size {e blocks} of [block]
      entries. Each block opens with an absolutely-coded entry, so a
      per-vertex {e skip table} (first hub id + byte offset per block,
      two little-endian [uint32]s) lets the two-pointer merge leap over
      whole blocks without decoding them;
    - a word-aligned header keeps {e two} CSR tables — entry-index
      offsets and byte offsets into the blob — so vertex seek, [size]
      and [total_size] stay O(1).

    Like {!Mmap_hub}, the store opens either from heap bytes
    ({!of_bytes_res}) or zero-copy via [Unix.map_file]
    ({!load_res}), and validation is total and typed: the default
    shallow pass is O(n) (header, both offset tables, and the
    per-vertex skip-table room check that bounds every fixed-position
    read), after which the query path is memory-safe on {e any} input
    — a corrupt blob can only yield wrong distances, never a crash or
    out-of-bounds access. [~deep:true] (or {!validate_entries})
    decodes every entry with strict varints (minimal encodings only,
    [<= 9] bytes), checks the skip table against the actual block
    layout, and restores the exact per-entry guarantees of
    {!Flat_hub.of_raw}.

    The cache, batching, backend and ops layers are
    {!Label_store.Make} over the decoded header and the blob; this
    module keeps the layout, its validation, the encoder and the
    block-skipping merge.

    The encoder is canonical: [to_bytes] of a given store is a single
    deterministic byte string, so save → load → save round-trips
    byte-for-byte (pinned by a golden sha256 in the test suite). *)

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
(** One line, opening with ["Compact_hub: "]. *)

val magic : string
(** The 8-byte magic ["HUBFLAT2"] that opens every compact file. *)

val default_block : int
(** Entries per block used by {!to_bytes} unless overridden (32). *)

val to_bytes : ?block:int -> Flat_hub.t -> string
(** Canonical encoding of a flat store.
    @raise Invalid_argument if [block < 1], [n >= 2^31], or a single
    vertex region would exceed the skip table's [uint32] byte range. *)

val of_bytes_res : ?cache_slots:int -> ?deep:bool -> string -> (t, error) result
(** Heap decoder: validate an in-memory [HUBFLAT2] image (shallow by
    default, see the module preamble) and take a private copy of the
    bytes. Never raises on malformed input.
    @raise Invalid_argument if [cache_slots < 0]. *)

val load_res : ?cache_slots:int -> ?deep:bool -> string -> (t, error) result
(** Zero-copy open: map the file read-only via [Unix.map_file] and
    validate in place — cold start is O(n) in the label size, entry
    bytes are demand-faulted and shared across processes through the
    page cache. The fd is closed before returning on every path (the
    mapping survives the close); unlinking after a successful load is
    safe.
    @raise Invalid_argument if [cache_slots < 0]. *)

val validate_entries : t -> (unit, error) result
(** The O(total) strict decode of [~deep:true], runnable after the
    fact. *)

val with_cache : cache_slots:int -> t -> t
(** The same store with a fresh direct-mapped cache ([0] removes it).
    @raise Invalid_argument if [cache_slots < 0]. *)

val n : t -> int
val total_size : t -> int

val block : t -> int
(** Entries per block of this file's layout. *)

val size : t -> int -> int
(** Hubset size of a vertex — O(1) from the entry-offset table.
    @raise Invalid_argument on an out-of-range vertex. *)

val hubs : t -> int -> (int * int) array
(** The hubset of a vertex as fresh [(hub, dist)] pairs, decoded via
    the same clamped reader as the query path (tests and debugging, not
    the hot path).
    @raise Invalid_argument on an out-of-range vertex. *)

val path : t -> string
(** The file this store was mapped from; [""] for a store decoded from
    in-memory bytes. *)

val bytes : t -> int
(** Size in bytes of the full encoded image (header + blob + pad). *)

val bits_per_entry : t -> float
(** Measured storage cost: [8 * bytes / total_size] — the whole-file
    bits amortised per label entry ([0.] when the store is empty).
    This is the paper's label-size axis as actually paid on disk. *)

val to_flat : t -> Flat_hub.t
(** Materialise into a heap {!Flat_hub.t} (re-validating every entry
    via {!Flat_hub.of_raw}).
    @raise Invalid_argument if the decoded entries are malformed — a
    shallow-loaded store can hold a garbage blob. *)

val query : t -> int -> int -> int
(** Two-pointer merge over the two decoded streams, leaping over
    blocks whose skip-table first hub shows they cannot intersect;
    {!Repro_graph.Dist.inf} when the hubsets are disjoint. Consults and
    fills the cache when one was configured.
    @raise Invalid_argument on out-of-range endpoints. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** Batched queries with the contract of {!Label_store.Make}.
    @raise Invalid_argument if any endpoint is out of range. *)

val cache_stats : t -> (int * int) option
(** [Some (hits, misses)] for a cached store, [None] otherwise. *)

val space_words : t -> int
(** Words of the compact structure: the two heap offset tables
    ([2 * (n + 1)]) plus the blob rounded up to words — compare with
    {!Flat_hub.space_words}'s [(n + 1) + 2 * total]. *)

val pp : Format.formatter -> t -> unit

val backend : t -> Repro_obs.Backend.t
(** The store as a uniform serving backend (name
    ["compact-hub-labeling"]), traced as {!Label_store.Make}. *)

val ops :
  ?pool:Repro_par.Pool.t ->
  ?owned:int array ->
  ?budget:int ->
  t ->
  Repro_obs.Backend.ops
(** The store as an ops backend ({!Label_store.Make}): [Dist] /
    [Batch] decode straight off the blob; aggregates run over a lazily
    built shared {!Hub_index} (heap-resident, paid only when an
    aggregate is first asked for). *)

val pack : t -> Label_store.packed
(** The store for the serving layers (kind ["compact"]). *)
