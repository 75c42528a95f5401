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
    (PAPERS.md). Top-k nearest needs no row: the lists are sorted by
    distance, so merging those of the hubs of [S(s)] in increasing
    [d(s, h) + d(h, w)] meets the vertices in distance order
    ({!nearest}). Eccentricity needs none either. By the cover
    property [d(s, w) <= tau] iff some shared hub has
    [d(s, h) + d(h, w) <= tau], so the {e ball} of radius [tau] around
    [s] is the OR over [S(s)] of each hub's entries within
    [tau - d(s, h)]. A hub whose list holds few distinct distances
    keeps one cumulative bitset over the indexed vertices per distance
    (its {e layers}, built when they take no more words than the list
    has entries), so its share of a ball costs a few words; any other
    hub scans its list's prefix. The eccentricity is the least [tau]
    whose ball is full, found by binary search, and the farthest
    vertex is the lowest clear bit of the ball one radius short
    ({!farthest}). The row is an n-word scratch array the index
    reuses: a call takes one no other call holds and gives it back, so
    a warm index allocates no row, concurrent domains never share one,
    and [Many_to_many] and [Diameter_radius], which fan out across the
    domain pool with per-index writes only, are byte-identical for
    any job count; the merge heaps and ball bitsets are reused the
    same way. The aggregates go through the caller's kernels:
    {!Label_store.Make} picks the row or its scatter kernel for
    one-to-many, the row or the merge for top-k, and the row or the
    ball for the farthest vertex, each by predicted work.

    Correctness needs exactly the 2-hop cover property, so a row from
    source [s], the merge's first pop of [w] and [w]'s ball bit are
    exact at every [w]
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
    Then a hub whose list holds [k] distinct distances gets its [k]
    layers when [k] times the words of a bitset over the indexed
    vertices is at most the list's length: one counting pass sizes
    them, a second fills them, O(entries + layer words).
    {!Label_store.Make} wraps this module into the [ops] backend of
    every packed store.
    @raise Invalid_argument if a vertex or a hub id falls outside
    [[0, n)], or a distance outside [[0, Dist.inf)]. *)

val n : t -> int

val indexed : t -> int
(** Number of indexed vertices. *)

val total_size : t -> int
(** Number of inverted entries = total label size. *)

val layer_words : t -> int
(** Words held by the distance layers: never more than
    {!total_size}, since a hub is layered only when its layers take
    no more words than its list has entries. *)

val space_words : t -> int
(** Every array of the index, the layers and the vertex ranks
    included. *)

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

val ball_cost : t -> walk:walk -> int -> int
(** The work {!farthest} predicts for source [s], in the units of
    {!row_cost}: its probes, [1 + ceil (log2 (top + 1))] for [top] the
    largest finite label distance [s] can reach, times the words a
    probe writes (a layered hub's [words], an unlayered hub's whole
    list, and the ball's own reset). O(|S(s)|).
    @raise Invalid_argument on a source entry out of range. *)

val farthest : t -> walk:walk -> int -> (int * int) option
(** [farthest t ~walk s] is the indexed vertex farthest from [s] with
    its distance, smallest id on ties, by binary search over balls:
    {!Repro_obs.Ops.farthest_in} over the indexed vertices' row cells,
    without a row; [None] when no vertex is indexed. The first probe
    is the radius [top] of {!ball_cost}: a ball not full there leaves
    its lowest clear bit unreachable, at {!Repro_graph.Dist.inf}. The
    ball's hubs are counted as [ball_hubs] in the innermost
    {!Repro_obs.Span}.
    @raise Invalid_argument on a source entry out of range. *)

val row_farthest : t -> walk:walk -> int -> int array -> (int * int) option
(** [row_farthest t ~walk s among]: the vertex of [among] (ascending,
    indexed) farthest from [s], reduced from [s]'s row. *)

val eval :
  ?pool:Repro_par.Pool.t ->
  t ->
  targets:(int -> int array -> int array) ->
  nearest:(int -> k:int -> int array -> (int * int) array) ->
  farthest:(int -> int array -> (int * int) option) ->
  Repro_obs.Ops.valid ->
  Repro_obs.Ops.response
(** Evaluate a validated aggregate request. [targets s ts] is the
    store's one-to-many kernel, used for [One_to_many] and for each
    row of [Many_to_many]; [nearest s ~k among] its top-k kernel, used
    for [Top_k_among] and, over the indexed vertices, for
    [Top_k_nearest]; [farthest s among] its farthest-vertex kernel,
    used for [Farthest_among] and, over the indexed vertices, for
    [Eccentricity], [Farthest] and each vertex of [Diameter_radius].
    [Many_to_many] and [Diameter_radius] fan their independent
    sources out across [pool] (default {!Repro_par.Pool.default}); all
    other requests run on the calling domain. Responses follow the
    {!Repro_obs.Ops} conventions and are byte-identical for any job
    count.
    @raise Invalid_argument on a point request ([Dist], [Batch]),
    which the store answers with its own merge. *)
