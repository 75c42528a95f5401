(** Inverted hub → vertices index: the row and merge kernels behind
    the aggregate operations of the {!Repro_obs.Ops} algebra.

    A hub labeling stores, per vertex [v], the sorted hubset
    [S(v) = {(h, d(v, h))}]. This module transposes it once into CSR
    form over {e hubs}: for each hub [h], the list of [(w, d(w, h))]
    entries that contain it, ordered by [(d(w, h), w)]. One pass over
    the transposed arrays then yields the full distance row of a
    source [s] (the row's cells do not depend on the scan order):

    [row(w) = min over (h, d_sh) in S(s) of d_sh + d(w, h)]

    in O(sum of the touched hubs' inverted lists) — the technique of
    Ducoffe, "Eccentricity queries and beyond using Hub Labels"
    (PAPERS.md). Eccentricity and farthest vertex reduce such a row in
    place. Top-k nearest needs no row: the lists are sorted by
    distance, so merging those of the hubs of [S(s)] in increasing
    [d(s, h) + d(h, w)] meets the vertices in distance order
    ({!nearest}). The row is an n-word scratch array the index
    reuses: a call takes one no other call holds and gives it back, so
    a warm index allocates no row, concurrent domains never share one,
    and [Many_to_many] and [Diameter_radius], which fan out across the
    domain pool with per-index writes only, are byte-identical for
    any job count. One-to-many goes through the caller's [targets]
    kernel: {!Label_store.Make} picks between this row and its scatter
    kernel by {!row_cost}.

    Correctness needs exactly the 2-hop cover property, so a row from
    source [s], and the merge's first pop of [w], is exact at every [w]
    whose label is indexed whole and whose pair [(s, w)] is covered: a
    shard's worker, which reads rows
    only at owned [w], may index a sliced labeling ({!Partition.slice})
    or the owned labels alone ({!build}, about [1/shards] of the
    entries, so each row costs about that share of a full one). *)

type t

type walk = int -> (int -> int -> int -> int) -> int -> int
(** [walk v f acc] folds [f acc h d] over the [(hub, dist)] entries of
    vertex [v]'s label, in hub order, without allocating — the store's
    {!Label_store.FORMAT.fold_label} at [int]. *)

val build : n:int -> walk:walk -> int array -> t
(** Transpose the labels of [vertices] (ascending; all [n], or a
    shard's owned set) into the inverted index, whose rows are then
    [Dist.inf] at every other vertex. Each hub's list is filled in
    vertex order, then sorted stably by distance: by counting sorts
    when the largest distance times the number of lists is at most
    the entries (an unweighted graph of small diameter), so in
    O(their total label size) time and space, done once and reused;
    by comparison sorts otherwise (weighted graphs, long paths).
    {!Label_store.Make} wraps this module into the [ops] backend of
    every packed store.
    @raise Invalid_argument if a vertex or a hub id falls outside
    [[0, n)], or a distance outside [[0, Dist.inf)]. *)

val n : t -> int

val total_size : t -> int
(** Number of inverted entries = total label size. *)

val space_words : t -> int

val row_cost : t -> walk:walk -> int -> int
(** The entries the row kernel scans for source [s]: the sum of
    [|inv(h)|] over the hubs [h] of [s]'s label.
    @raise Invalid_argument on a source entry out of range (a hub
    outside [[0, n)] or a distance outside [[0, Dist.inf)]). *)

val with_row : t -> walk:walk -> int -> (int array -> 'a) -> 'a
(** [with_row t ~walk s f] fills a scratch row with the label distance
    from [s] to every vertex ({!Repro_graph.Dist.inf} where the labels
    never meet) and returns [f row]. The row belongs to the index: it
    is valid only during [f], and [f] must not keep it.
    @raise Invalid_argument on a source entry out of range. *)

val targets : t -> walk:walk -> int -> int array -> int array
(** [targets t ~walk s ts] reads [ts]'s distances off [s]'s row. *)

val nearest : t -> walk:walk -> int -> k:int -> int array -> (int * int) array
(** [nearest t ~walk s ~k among] is the [min k (length among)]
    vertices of [among] nearest to [s], sorted by [(dist, vertex)]:
    {!Repro_obs.Ops.k_nearest} over [among]'s row cells, without a row.
    [among] must be strictly ascending and a subset of the indexed
    vertices.

    The {e threshold merge}: a binary heap holds one cursor per hub [h]
    of [S(s)], keyed by [(d(s, h) + d(h, w), w)] for the entry [w]
    under it, and pops entries in that order, each cursor stepping
    along its (distance-sorted) list. Every entry of a vertex [w] is
    popped before any larger key, so the first pop of [w] carries the
    smallest sum over the hubs [S(s)] and [S(w)] share: the label
    distance, which the 2-hop cover property makes exactly [d(s, w)].
    First pops therefore come out in [(dist, vertex)] order, and the
    merge stops at the [k]-th candidate; when the lists run out first,
    the candidates never popped follow at [Dist.inf] in ascending id.
    The cost is the entries popped (counted as [merge_pops] in the
    innermost {!Repro_obs.Span}) times a heap step, against the row's
    {!row_cost}: far cheaper for small [k], dearer as [k] nears
    [length among] ({!Label_store.merge_wins}). The heap and an
    n-byte candidate map are scratch the index reuses, as the rows.
    @raise Invalid_argument on a source entry out of range. *)

val row_nearest :
  t -> walk:walk -> int -> k:int -> int array -> (int * int) array
(** The same answer as {!nearest}, reduced from [s]'s row. *)

val eval :
  ?pool:Repro_par.Pool.t ->
  t ->
  walk:walk ->
  targets:(int -> int array -> int array) ->
  nearest:(int -> k:int -> int array -> (int * int) array) ->
  Repro_obs.Ops.request ->
  Repro_obs.Ops.response
(** Evaluate an aggregate request. [targets s ts] is the store's
    one-to-many kernel, used for [One_to_many] and for each row of
    [Many_to_many]; [nearest s ~k among] its top-k kernel, used for
    [Top_k_among] and, over the indexed vertices, for
    [Top_k_nearest]. [Many_to_many] and [Diameter_radius] fan their
    independent rows out across [pool] (default
    {!Repro_par.Pool.default}); all other requests run on the calling
    domain. Responses follow the {!Repro_obs.Ops} conventions and are
    byte-identical for any job count.
    @raise Invalid_argument on an invalid request
    ({!Repro_obs.Ops.validate}) or a point request ([Dist], [Batch]),
    which the store answers with its own merge. *)
