(** The one serving core shared by every hub-label store.

    The repository keeps one labeling in four encodings: the per-vertex
    [(hub, dist)] rows of {!Hub_label} itself, the heap [HUBFLAT1]
    arrays of {!Flat_hub}, the same bytes mapped in place by
    {!Mmap_hub}, and the compressed [HUBFLAT2] blob of {!Compact_hub}.
    They differ only in layout, validation and the inner merge loop.
    Everything a serving layer needs on top of that — bounds-checked
    [query] / [size] / [hubs], the direct-mapped distance cache,
    batched [query_many], the traced {!Repro_obs.Backend.S} wrapper and
    the [ops] evaluator over a lazy {!Hub_index} — is written once
    here, by {!Make}, over a small {!FORMAT} signature.

    {!packed} erases the format: it is the value the serving layers
    ({!Repro_serve.Resilient_oracle.store_primary}, the shard worker,
    the CLI) take, whatever the store kind. *)

(** {1 Typed load errors}

    Shared by the two stores that open a file and validate it in place
    ({!Mmap_hub}, {!Compact_hub}); each re-exports this type and
    renders it under its own module name. *)

type error =
  | Io of string  (** open/stat/map failed (missing file, EACCES, ...) *)
  | Not_regular of string  (** not a regular file (directory, device, socket) *)
  | Too_short of { bytes : int }  (** smaller than magic + header *)
  | Misaligned of { bytes : int }  (** size not a whole number of 8-byte words *)
  | Bad_magic  (** the first 8 bytes are not the format's magic *)
  | Bad_header of { word : int; msg : string }
      (** a header word negative, overflowing a native int or out of
          the format's range; [word] is its byte offset *)
  | Length_mismatch of { expected_words : int; actual_words : int }
      (** file length disagrees with the header *)
  | Bad_offsets of { vertex : int; msg : string }
      (** an offset table not monotone from 0 to its bound, or a vertex
          region too small for its fixed-position fields *)
  | Bad_entry of { vertex : int; entry : int; msg : string }
      (** deep scan only: a malformed entry (hub out of range or
          unsorted, bad distance, hostile varint, ...) *)

val error_to_string : prefix:string -> error -> string
(** One line, opening with ["<prefix>: "]. *)

val header_int : index:int -> int64 -> (int, error) result
(** Check header word [index] (value given) is a non-negative native
    int; [Bad_header] names its byte offset otherwise. *)

val map_file :
  ('a, 'b) Bigarray.kind ->
  min_bytes:int ->
  string ->
  (('a, 'b, Bigarray.c_layout) Bigarray.Array1.t * int, error) result
(** Open → fstat → map read-only → close. Returns the mapping and the
    file's size in bytes. A non-regular file, a file under [min_bytes]
    or one that is not a whole number of 8-byte words is rejected
    before mapping; every system error becomes [Io]. The descriptor is
    closed on every path (the mapping survives the close). *)

(** {1 The format signature} *)

module type FORMAT = sig
  type t
  (** The format's own record: layout and backing storage. *)

  val module_name : string
  (** Prefix of the [Invalid_argument] texts, e.g. ["Mmap_hub"] gives
      [Invalid_argument "Mmap_hub.query"]. *)

  val backend_name : string
  (** The backend and metric name, e.g. ["mmap-hub-labeling"]. *)

  val kind : string
  (** Short store name used by snapshots and CLI flags: ["assoc"],
      ["flat"], ["mmap"] or ["compact"]. *)

  val n : t -> int

  val size : t -> int -> int
  (** Hubset size of a vertex; the vertex is known to be in range. *)

  val fold_label : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
  (** [fold_label t v f acc] folds [f acc h d] over the [(hub, dist)]
      entries of [v]'s label in hub order, allocating nothing; the
      vertex is in range. Entries are read as stored: on a
      shallow-validated file a hub id or distance may be garbage, and
      callers range-check hub ids before indexing with them. The
      compressed format decodes the label in one pass. *)

  val space_words : t -> int

  val raw_query : t -> int -> int -> int
  (** The format's monomorphic merge loop, with both endpoints known to
      be in range; {!Repro_graph.Dist.inf} when the hubsets are
      disjoint. *)
end

(** {1 The format-erased store} *)

type packed = {
  kind : string;  (** {!FORMAT.kind} *)
  n : int;
  size : int -> int;  (** bounds-checked hubset size *)
  with_cache : cache_slots:int -> packed;
      (** the same store with a fresh cache of that many slots ([0]
          removes it) *)
  cache_stats : unit -> (int * int) option;
  backend : Repro_obs.Backend.t;
  ops : ?owned:int array -> ?budget:int -> unit -> Repro_obs.Backend.ops;
      (** {!Make.ops} over the default pool; each application has its
          own lazily built indexes, shared by every user of the value
          it returns *)
}

val scatter_wins : probed:int -> row_cost:int -> bool
(** The rule by which {!Make}'s [ops] picks a one-to-many kernel for
    one source: scatter, which reads [probed = |L(s)| + sum |L(t)|]
    label entries, or the row, which reads
    [row_cost = sum |inv(h)|] over the hubs [h] of [L(s)]. Scatter
    wins when [5 * probed <= row_cost]; 5 is the measured ratio of the
    two kernels' ns per entry (docs/PERFORMANCE.md). *)

val merge_wins : k:int -> candidates:int -> bool
(** The rule by which {!Make}'s [ops] answers a top-k over
    [candidates] vertices: by {!Hub_index.nearest}'s threshold merge
    when [k] is at most [3/4] of [candidates], else by reducing the
    row ({!Hub_index.row_nearest}). Near [k = candidates] the merge
    pops nearly every entry of the source's runs at a heap step each,
    and so it does whenever fewer than [k] candidates are reachable
    (docs/PERFORMANCE.md, "Top-k by threshold merge"). *)

val ball_wins : ball_cost:int -> row_cost:int -> bool
(** The rule by which {!Make}'s [ops] answers a farthest vertex over
    all the indexed vertices: by {!Hub_index.farthest}'s ball bitsets
    when [ball_cost] ({!Hub_index.ball_cost}) is at most [row_cost]
    ({!Hub_index.row_cost}), else by reducing the row. Both predict
    words and entries written, so no factor weighs them; on a
    weighted graph with many distinct distances few hubs are layered,
    the probes multiply whole lists, and the row wins
    (docs/PERFORMANCE.md, "Eccentricity by ball bitsets"). *)

(** {1 The serving core} *)

module Make (F : FORMAT) : sig
  type t

  val make : cache_slots:int -> F.t -> t
  (** Staged: the slot count is checked when [make ~cache_slots] is
      applied, so a loader can reject it before touching a file. Each
      store made gets its own cache.
      @raise Invalid_argument if [cache_slots < 0]. *)

  val format : t -> F.t

  val with_cache : cache_slots:int -> t -> t
  (** The same format value with a fresh direct-mapped cache ([0]
      removes it). The format's storage is shared, not copied.
      @raise Invalid_argument if [cache_slots < 0]. *)

  val cache_label : t -> string
  (** ["none"] or ["<slots> slots"], for printers. *)

  val n : t -> int

  val size : t -> int -> int
  (** @raise Invalid_argument on an out-of-range vertex. *)

  val hubs : t -> int -> (int * int) array
  (** @raise Invalid_argument on an out-of-range vertex. *)

  val query : t -> int -> int -> int
  (** The format's merge; consults and fills the cache when one was
      configured. A cache hit never calls into the format.
      @raise Invalid_argument on out-of-range endpoints. *)

  val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
  (** Validates every endpoint up front, then answers. Equals the
      [query] loop for any job count. A cache-free store fans the batch
      out across [pool] (default {!Repro_par.Pool.default}); a cached
      store answers on the calling domain, because the cache is not
      domain-safe, and merges its hit/miss counts once at the end.
      @raise Invalid_argument if any endpoint is out of range. *)

  val cache_stats : t -> (int * int) option
  (** [Some (hits, misses)] for a cached store, [None] otherwise. *)

  val space_words : t -> int

  val backend : t -> Repro_obs.Backend.t
  (** Named {!FORMAT.backend_name}. Traces report [|S(u)| + |S(v)|] as
      [entries_scanned]; on a cached store they flag [Hit] or [Miss],
      and a hit scans 0 entries. *)

  val ops :
    ?pool:Repro_par.Pool.t ->
    ?owned:int array ->
    ?budget:int ->
    t ->
    Repro_obs.Backend.ops
  (** [Dist] and [Batch] run the point query and never build an
      index; every aggregate runs over a {!Hub_index} built lazily on
      first use, and allocates no n-sized array per call once warm.
      With [owned] (a shard's vertices, ascending), a [One_to_many] or
      [Many_to_many] whose targets are all owned, or a [Top_k_among]
      or [Farthest_among] whose candidates are, runs over a second
      index of the owned labels only; it reads no other label but the
      source's. The [owned] array itself is recognised without a
      membership scan. Every other aggregate runs over the full index.
      [Top_k_nearest] and [Top_k_among] take the threshold merge or
      the row by {!merge_wins}. [Eccentricity], [Farthest], each
      vertex of [Diameter_radius], and a [Farthest_among] over all of
      its index's vertices take the ball bitsets or the row by
      {!ball_wins}; a [Farthest_among] over fewer reduces the row.
      Each row of [One_to_many] and
      [Many_to_many] takes the cheaper of two kernels: the row, at
      [sum |inv(h)|] entries over the source's hubs, or {e scatter},
      at [|L(s)| + sum |L(t)|] entries — the source's label is written
      into a reused table indexed by hub, each target's label probes
      it, and the table is reset. {!scatter_wins} picks between them.
      [Many_to_many] and [Diameter_radius] fan out across [pool];
      answers are byte-identical for any job count, kernel and [owned].

      With [budget], a request whose predicted work exceeds it raises
      {!Repro_obs.Backend.Over_budget} before any kernel runs. The
      prediction is the chosen kernel's, summed over the request's
      sources: scatter's probed entries or {!Hub_index.row_cost} for a
      row, {!Hub_index.ball_cost} or the row's for a farthest vertex,
      and the row's for top-k, which bounds the merge's pops too.
      @raise Invalid_argument if an owned vertex is out of range. *)

  val pack : t -> packed
end
