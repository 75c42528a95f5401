(** The request/response algebra of the query surface.

    Hub labels answer far more than point-to-point distance: the same
    two-pointer merges (plus one inverted hub → vertices index) yield
    distance rows, eccentricities, diameter/radius, farthest vertices
    and top-k nearest neighbours (Ducoffe, "Eccentricity queries and
    beyond using Hub Labels", PAPERS.md). This module is the one typed
    vocabulary every layer speaks — backends ({!Backend.S_ops}), the
    resilient oracle, the wire protocol, the sharded router, the CLI
    and the metrics — so a new operation is added here once instead of
    being plumbed bespoke through each of them.

    {2 Answer conventions (pinned by the differential suite)}

    - distances use the {!Repro_graph.Dist} convention: {!Dist.inf}
      for unreachable, rendered ["inf"];
    - the eccentricity of a vertex ranges over {e all} vertices
      (including itself), so any vertex of a disconnected graph has
      eccentricity [inf], and then diameter = radius = [inf];
    - ties on "farthest" go to the {e smallest} vertex id;
    - top-k results are sorted by [(dist, vertex)] ascending and
      include the source itself (at distance 0) when it is a
      candidate; unreachable candidates fill the tail at [inf], in
      ascending vertex id;
    - the empty graph has diameter 0 and radius 0.

    Every implementation — brute force over a point oracle
    ({!brute}), the inverted-index fast paths
    ({!Repro_hub.Hub_index}), the BFS fallbacks and the sharded
    router's merge — must be byte-identical under
    {!response_to_string}. *)

type request =
  | Dist of { u : int; v : int }
  | Batch of (int * int) array
  | One_to_many of { source : int; targets : int array }
      (** Distances from [source] to each listed target, in order. *)
  | Many_to_many of { sources : int array; targets : int array }
      (** The [sources] x [targets] distance matrix, row per source. *)
  | Top_k_nearest of { source : int; k : int }
      (** The [min k n] nearest vertices, sorted by [(dist, vertex)]. *)
  | Top_k_among of { source : int; k : int; among : int array }
      (** The [min k (length among)] vertices of [among] (strictly
          ascending) nearest to [source], sorted by [(dist, vertex)] —
          one shard's share of a [Top_k_nearest], with [among] its
          owned vertices. *)
  | Eccentricity of int
  | Farthest of int
      (** The farthest vertex from the argument (smallest id on ties)
          together with its distance — the witness behind
          [Eccentricity]. *)
  | Farthest_among of { source : int; among : int array }
      (** The vertex of [among] (strictly ascending) farthest from
          [source], smallest id on ties, with its distance — one
          shard's share of an [Eccentricity] or [Farthest], with
          [among] its owned vertices. An empty [among] has no witness:
          the answer is [R_farthest { vertex = -1; dist = 0 }]
          ({!farthest_response}). *)
  | Diameter_radius
      (** [max] and [min] eccentricity over every vertex. *)

type response =
  | R_dist of int
  | R_dists of int array
  | R_matrix of int array array
  | R_nearest of (int * int) array  (** [(vertex, dist)] pairs *)
  | R_ecc of int
  | R_farthest of { vertex : int; dist : int }
  | R_diam_rad of { diameter : int; radius : int }

val name : request -> string
(** Stable metric-name component: ["dist"], ["batch"],
    ["one_to_many"], ["many_to_many"], ["top_k_nearest"] (also for
    [Top_k_among]), ["eccentricity"], ["farthest"] (also for
    [Farthest_among]), ["diameter_radius"]. *)

type valid = private request
(** A request {!check} accepted: the evaluators that take one
    ({!Backend.S_ops.op_valid}, {!Repro_hub.Hub_index.eval}) validate
    nothing again. Coerce with [(r :> request)] to read it. *)

val check : n:int -> request -> (valid, string) result
(** Total request validation against a vertex universe of size [n]:
    every referenced vertex in range, [k >= 0], the [among] of a
    [Top_k_among] or [Farthest_among] strictly ascending. One pass
    over the request's vertex lists. *)

val validate : n:int -> request -> (unit, string) result
(** {!check}, keeping only the verdict. *)

val request_to_string : request -> string
(** The CLI spelling, e.g. ["dist:3,7"], ["one-to-many:0:1,2,3"],
    ["top-k:5,4"], ["top-k-among:5,4:1,3,8"], ["ecc:2"],
    ["farthest-among:5:1,3,8"], ["diam"].
    Round-trips through
    {!request_of_string}. *)

val request_of_string : string -> (request, string) result
(** Parse the CLI spelling. Accepted forms: [dist:U,V],
    [batch:U,V;U,V;...], [one-to-many:S:T1,T2,...],
    [many-to-many:S1,S2,...:T1,T2,...], [top-k:S,K],
    [top-k-among:S,K:V1,V2,...] (the list may be empty), [ecc:V],
    [farthest:V], [farthest-among:S:V1,V2,...] (the list may be
    empty), [diam]. Total: every malformed input is an [Error]. *)

val response_to_string : response -> string
(** The canonical rendering, e.g. ["dists 1,2,inf"],
    ["farthest 7:3"], ["diam inf rad inf"] — the string that is
    sha256-pinned across stores, job counts and in-process vs sharded
    execution (BENCH_ops.json, @ops-smoke). *)

val equal_response : response -> response -> bool
val pp_response : Format.formatter -> response -> unit

(** {2 Shared reduction helpers}

    Every implementation uses these, so the tie-breaking conventions
    cannot drift between the fast paths, the fallbacks and the
    router's cross-shard merges. *)

val k_nearest : k:int -> (int * int) array -> (int * int) array
(** The [min k (length pairs)] smallest [(vertex, dist)] pairs of an
    unordered candidate set, sorted by [(dist, vertex)] ascending.
    It keeps the best candidates in a bounded heap and sorts them at
    the end: O(len log k) int compares and O(k) space, for any [k].
    @raise Invalid_argument if [k < 0]. *)

val farthest_of : (int * int) array -> (int * int) option
(** The pair with maximal [dist], smallest [vertex] on ties; [None]
    on the empty array. *)

val nearest_in : k:int -> vertex:(int -> int) -> int array -> (int * int) array
(** [nearest_in ~k ~vertex ds] is [k_nearest ~k] over the candidates
    [(vertex i, ds.(i))], without building them: a full row with
    [vertex = Fun.id], or a shard's owned row with [vertex] its owned
    vertex list. *)

val farthest_in : vertex:(int -> int) -> int array -> (int * int) option
(** [farthest_of] over the candidates [(vertex i, ds.(i))], likewise. *)

val farthest_response : (int * int) option -> response
(** [R_farthest] of a farthest witness. [None], no candidate at all
    (a [Farthest_among] over an empty [among]), is
    [R_farthest { vertex = -1; dist = 0 }]. *)

val brute : n:int -> query:(int -> int -> int) -> request -> response
(** Evaluate any request with point queries only — the {!Backend.lift}
    adaptor and the reference the differential tests pin the fast
    paths against. Aggregate requests cost up to [n] (or [n^2] for
    [Diameter_radius]) queries. Requests must be valid for [n]. *)
