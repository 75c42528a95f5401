(** Packed flat-array hub-label store — the serving-grade layout.

    {!Hub_label.t} keeps one [(hub, dist)] tuple array per vertex; every
    access chases a pointer per pair. This module freezes a labeling
    into two flat int arrays in CSR style, the layout production hub
    labelings use (cf. the sorted contiguous label arrays of [AIY13] and
    the space-conscious encodings of Gawrychowski–Kosowski–Uznański,
    arXiv:1507.06240):

    - [offsets]: [n + 1] ints; the hubset of vertex [v] occupies entry
      indices [offsets.(v) .. offsets.(v+1) - 1];
    - [data]: [2 * total] ints, entry [i] stored interleaved as
      [data.(2i) = hub] and [data.(2i+1) = dist], entries of each
      vertex sorted by strictly increasing hub id.

    The graphs of this reproduction are undirected, so one direction
    serves both sides of a query (a directed variant would carry one
    such array pair per direction). Queries are the same two-pointer
    sorted merge intersection as {!Hub_label.query}, but over
    contiguous unboxed ints.

    The bounds checks, the optional direct-mapped distance cache,
    [query_many], [backend] and [ops] are {!Label_store.Make} over this
    layout; the layout contributes only the merge loop. A cached store
    mutates its cache on every query, so a cached [t] must not be
    shared across threads without synchronisation. *)

type t

val of_labels : ?cache_slots:int -> Hub_label.t -> t
(** Freeze a labeling. [cache_slots] (default 0 = no cache) enables a
    direct-mapped distance cache with that many slots.
    @raise Invalid_argument if [cache_slots < 0]. *)

val of_raw : n:int -> offsets:int array -> data:int array -> t
(** Rebuild from raw CSR arrays (the deserialisation entry point),
    without a cache — see {!with_cache}.
    Validates every structural invariant: [offsets] has length [n+1],
    starts at 0, is non-decreasing and ends at [length data / 2];
    [data] has even length; hub ids are strictly increasing within a
    vertex and lie in [0, n); distances are non-negative. The arrays
    are owned by the result afterwards — do not mutate them.
    @raise Invalid_argument on any violation. *)

val with_cache : cache_slots:int -> t -> t
(** The same store with a fresh direct-mapped cache of [cache_slots]
    slots ([0] removes the cache). The packed arrays are shared, not
    copied.
    @raise Invalid_argument if [cache_slots < 0]. *)

val raw : t -> int array * int array
(** [(offsets, data)] backing arrays (not copies — do not mutate). *)

val to_labels : t -> Hub_label.t
(** Thaw back into the per-vertex representation (for verification and
    interop). [to_labels (of_labels l)] is semantically equal to [l]. *)

val n : t -> int
val size : t -> int -> int
(** Hubset size of a vertex. *)

val total_size : t -> int

val hubs : t -> int -> (int * int) array
(** The hubset of a vertex as fresh [(hub, dist)] pairs, sorted by hub
    id (materialised from the flat arrays; intended for tests and
    debugging, not the hot path). *)

val query : t -> int -> int -> int
(** Two-pointer merge intersection over the packed arrays;
    {!Repro_graph.Dist.inf} when the hubsets are disjoint. Consults and
    fills the cache when one was configured.
    @raise Invalid_argument on out-of-range endpoints. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** Batched queries: validates all endpoints up front, then answers.
    [query_many t ps] equals [Array.map (fun (u, v) -> query t u v) ps]
    for any job count; a cache-free store fans out across the pool
    (default {!Repro_par.Pool.default}), a cached one stays on the
    calling domain (see {!Label_store.Make}).
    @raise Invalid_argument if any endpoint is out of range. *)

val cache_stats : t -> (int * int) option
(** [Some (hits, misses)] for a cached store, [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality of the packed arrays (ignores the cache). *)

val pp : Format.formatter -> t -> unit

val space_words : t -> int
(** Machine words of the packed arrays: [(n + 1) + 2 * total]. *)

val backend : t -> Repro_obs.Backend.t
(** The store as a uniform serving backend (name
    ["flat-hub-labeling"]). Traces report [|S(u)| + |S(v)|] as
    [entries_scanned] and, on a cached store, whether the distance
    cache hit ([entries_scanned = 0] on a hit — the packed arrays were
    never touched). *)

val ops :
  ?pool:Repro_par.Pool.t ->
  ?owned:int array ->
  ?budget:int ->
  t ->
  Repro_obs.Backend.ops
(** The store as an ops backend: [Dist] / [Batch] go through the
    two-pointer point query; every aggregate request runs over a
    shared {!Hub_index} built lazily on first aggregate use (see
    {!Label_store.Make}). Answers are byte-identical for any job
    count. *)

val pack : t -> Label_store.packed
(** The store for the serving layers (kind ["flat"]). *)
