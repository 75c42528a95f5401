(** Inverted hub → vertices index: the shared fast path behind every
    aggregate operation of the {!Repro_obs.Ops} algebra.

    A hub labeling stores, per vertex [v], the sorted hubset
    [S(v) = {(h, d(v, h))}]. This module transposes it once into CSR
    form over {e hubs}: for each hub [h], the list of [(w, d(w, h))]
    entries that contain it, vertices ascending. One pass over the
    transposed arrays then yields the full distance row of a source
    [s]:

    [row(w) = min over (h, d_sh) in S(s) of d_sh + d(w, h)]

    in O(sum of the touched hubs' inverted lists) — the technique of
    Ducoffe, "Eccentricity queries and beyond using Hub Labels"
    (PAPERS.md). Eccentricity, farthest vertex, top-k nearest,
    one-to-many and many-to-many all reduce over such rows; diameter
    and radius fan the per-vertex rows out across the PR 5 domain
    pool with per-index writes only, so answers are byte-identical
    for any job count.

    Correctness needs exactly the 2-hop cover property, so the index
    serves sliced labelings too ({!Partition.slice}): a row from
    source [s] is exact at every [w] for which the slice covers the
    pair [(s, w)] — in particular at every owned [w], which is all
    the sharded tier ever reads (see worker/router). *)

type t

val build : n:int -> hubs:(int -> (int * int) array) -> t
(** Transpose [n] hubsets ([hubs v] = sorted [(hub, dist)] pairs of
    vertex [v]) into the inverted index. O(total label size) time and
    space, done once and reused across every subsequent operation.
    The [hubs] accessor works for every store ({!Hub_label.hubs} and
    the packed stores' [hubs]); {!Label_store.Make} wraps this module
    into the [ops] backend of every packed store.
    @raise Invalid_argument if a hub id falls outside [[0, n)]. *)

val n : t -> int

val total_size : t -> int
(** Number of inverted entries = total label size. *)

val space_words : t -> int

val row : t -> (int * int) array -> int array
(** [row t s_hubs] is the full distance row of the source whose
    hubset is [s_hubs]: entry [w] is the label distance from the
    source to [w] ({!Repro_graph.Dist.inf} when the labels never meet).
    @raise Invalid_argument if a hub id falls outside [[0, n)]. *)

val eval :
  ?pool:Repro_par.Pool.t ->
  t ->
  hubs:(int -> (int * int) array) ->
  query:(int -> int -> int) ->
  Repro_obs.Ops.request ->
  Repro_obs.Ops.response
(** Evaluate any request. [hubs] fetches a source's hubset from the
    owning store and [query] is that store's two-pointer point query
    (used for [Dist] / [Batch], which never touch the index).
    [Many_to_many] and [Diameter_radius] fan their independent rows
    out across [pool] (default {!Repro_par.Pool.default}); all other
    requests run on the calling domain. Responses follow the
    {!Repro_obs.Ops} conventions and are byte-identical for any job
    count.
    @raise Invalid_argument on an invalid request
    ({!Repro_obs.Ops.validate}). *)
