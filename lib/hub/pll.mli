(** Pruned Landmark Labeling [Akiba–Iwata–Yoshida, SIGMOD'13] — the
    standard practical hub-labeling construction, used throughout the
    experiments as the "real labeling" whose sizes are compared against
    the paper's lower and upper bounds.

    Vertices are processed from most to least important; a pruned
    BFS/Dijkstra from the k-th vertex adds it as a hub exactly to the
    vertices whose distance is not already answered by
    higher-importance hubs. The result is the minimal *canonical
    hierarchical* labeling for the given order, and is always an exact
    cover.

    Both builds share one kernel over the graph relabelled by rank.
    The [pruned-sweep] span phase reports the [pruned] and
    [labels_added] counters once per root. *)

open Repro_graph

val build : ?order:int array -> Graph.t -> Hub_label.t
(** Unweighted PLL via pruned BFS. Default order: decreasing degree.
    @raise Invalid_argument if [order] is not a permutation of the
    vertices. *)

val build_w : ?order:int array -> Wgraph.t -> Hub_label.t
(** Weighted PLL via pruned Dijkstra (weights may be zero).
    @raise Invalid_argument if [order] is not a permutation of the
    vertices, or if a label distance needs more than [62 - b] bits,
    where [b] is the bit width of [n - 1] (the label buffers pack a hub
    and its distance into one int). *)
