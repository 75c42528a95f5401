(** Hub labelings (2-hop covers) [CHKZ03].

    A labeling assigns to each vertex [v] a hubset [S(v)] of pairs
    [(hub, dist(v, hub))]; the distance query [u v] returns
    [min over w ∈ S(u) ∩ S(v) of dist(u,w) + dist(w,v)]
    (Introduction, first display). The labeling is exact for a graph
    when this equals the graph distance for every pair — see
    {!Cover.verify}. *)


type t

val make : n:int -> (int * int) list array -> t
(** [make ~n per_vertex] builds a labeling from hub/distance pairs.
    Pairs are sorted by hub; a duplicate hub with differing distances
    raises, equal duplicates are merged.
    @raise Invalid_argument on out-of-range hubs or negative distance. *)

val of_arrays : n:int -> (int * int) array array -> t
(** Like {!make}. A hubset whose hubs are already strictly increasing
    and in range, with non-negative distances, is kept as is after one
    linear check (the array is shared, so do not mutate it afterwards);
    any other hubset is normalised as by {!make}. *)

val n : t -> int

val hubs : t -> int -> (int * int) array
(** The hubset of a vertex, sorted by hub id (not a copy — do not
    mutate). *)

val hub_list : t -> int -> (int * int) list

val mem : t -> int -> hub:int -> bool

val dist_to_hub : t -> int -> hub:int -> int option

val query : t -> int -> int -> int
(** Sorted-merge intersection of the two hubsets; {!Dist.inf} when the
    hubsets are disjoint. Allocates nothing; it is also the merge loop
    of {!Store}.
    @raise Invalid_argument ["Hub_label.hubs"] on an out-of-range
    endpoint. *)

val query_meet : t -> int -> int -> (int * int) option
(** Like {!query} but also returns the optimal meeting hub (allocating
    as it goes), for callers that report the witness. [None] when the
    hubsets are disjoint. *)

val size : t -> int -> int
(** Hubset size of a vertex. *)

val total_size : t -> int
val avg_size : t -> float
val max_size : t -> int

val map_union : t -> t -> t
(** Pointwise union of hubsets (same [n]); distances must agree on
    common hubs.
    @raise Invalid_argument on mismatch. *)

val add_self : t -> t
(** Ensure [(v, 0) ∈ S(v)] for every vertex. *)

val restrict : t -> keep:(int -> int -> bool) -> t
(** [restrict t ~keep] drops the pairs [(hub, d)] of vertex [v] for
    which [keep v hub] is false. *)

val pp : Format.formatter -> t -> unit

(** {1 Serving}

    The labeling is the ["assoc"] kind of the one store core
    {!Label_store.Make}: backend and trace name ["hub-labeling"],
    [space_words = 2 * total_size], and the same cache, batching,
    traced backend and {!Hub_index} aggregates as the packed stores.
    Its [Invalid_argument] texts open with ["Hub_label."]. *)

module Assoc : Label_store.FORMAT with type t = t
(** The labeling as a store format; its [raw_query] is {!query}. *)

module Store : module type of Label_store.Make (Assoc)
(** The store core over it: bounds-checked [query], the optional cache,
    [query_many], the traced [backend] and [ops]. *)

val pack : t -> Label_store.packed
(** The labeling, cache-free, for the serving layers (kind ["assoc"]).
    The rows are shared, not copied. *)
