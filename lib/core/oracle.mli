(** Centralised distance oracles — the space/time tradeoff discussion
    of the introduction ("a natural objective ... data structures using
    space S and resolving exact distance queries in time T, with
    ST = Õ(n²)").

    Four endpoints of the tradeoff, all exact:
    - [full]: the precomputed n×n matrix — S = Θ(n²), T = O(1);
    - [hub]: a hub labeling — S = Θ(Σ|S_v|), T = O(|S_u| + |S_v|);
    - [flat]: the packed {!Flat_hub} form of the same labeling — the
      serving-grade layout, same asymptotics, measurably faster;
    - [on_demand]: store only the graph and BFS per query —
      S = Θ(n + m), T = O(n + m).

    [of_backend] admits any {!Repro_obs.Backend.S} (e.g. the
    Thorup–Zwick stretch-3 oracle, or an instrumented backend), so the
    E-ORACLE experiment, the examples and the CLI query every oracle
    through this one surface; [backend] goes the other way, exposing
    any oracle behind the uniform signature.

    The [E-ORACLE] experiment measures all of these on sparse
    instances, exhibiting the tradeoff curve the paper's lower bound
    constrains (hub-based oracles cannot beat [n/2^Θ(√log n)] space on
    the construction of Section 2). *)

open Repro_graph
open Repro_hub

type t

val full : Graph.t -> t
val hub : Graph.t -> Hub_label.t -> t
(** {!of_backend} over {!Hub_label.pack}'s backend (name
    ["hub-labeling"]). *)

val flat : Graph.t -> Flat_hub.t -> t
(** {!of_backend} over {!Flat_hub.pack}'s backend (name
    ["flat-hub-labeling"]); [space_words] counts the CSR offsets and
    the interleaved data words. *)

val on_demand : Graph.t -> t

val of_backend : Repro_obs.Backend.t -> t
(** Wrap any uniform backend; [name] and [space_words] are taken from
    the backend. *)

val query : t -> int -> int -> int
val name : t -> string

val space_words : t -> int
(** Machine words of the query structure: [n²] for [full], twice the
    total hub count for [hub], [(n + 1) + 2·total] for [flat], [2m + n]
    for [on_demand], the backend's own accounting for [of_backend]. *)

val backend : t -> Repro_obs.Backend.t
(** The oracle behind the uniform signature: the hub and flat oracles
    are their store's backend, with its per-query traces; matrix and
    on-demand oracles are a plain wrapper over their query. *)
