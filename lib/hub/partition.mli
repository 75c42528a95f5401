(** Vertex partitions and partitioned label slicing for the sharded
    serving tier.

    A fleet of [shards] workers splits the vertex set by contiguous
    {!Range} blocks or by a deterministic multiplicative {!Hash}; the
    router sends the query [(u, v)] to the shard {e owning}
    [min u v] (see {!owner_of_pair}).

    {!slice} cuts a full labeling down to what one shard needs to stay
    {b exact on every query it owns}: the owned vertices keep their
    hubsets in full, and every foreign vertex keeps only the entries
    whose hub appears in some owned hubset. Correctness: for a query
    [(u, v)] with [u] owned, every meeting hub
    [w ∈ S(u) ∩ S(v)] lies in [S(u)], hence in the shard's hub
    universe, hence survives the filter in [S(v)] — the minimisation
    runs over exactly the same set as on the full labeling. Queries the
    shard does not own may come back inflated or [Dist.inf]; the router
    never asks it those. *)

type spec = Range | Hash

val spec_of_string : string -> (spec, string) result
(** ["range"] or ["hash"]. *)

val string_of_spec : spec -> string

val owner : spec -> shards:int -> n:int -> int -> int
(** Shard owning vertex [v] (in [[0, shards)]). [Range] splits
    [[0, n)] into [shards] contiguous blocks of near-equal size; [Hash]
    mixes [v] through a fixed multiplicative hash, so renumbering-
    adjacent vertices land on different shards.
    @raise Invalid_argument unless [0 < shards], [0 <= v < n]. *)

val owner_of_pair : spec -> shards:int -> n:int -> int -> int -> int
(** [owner] of [min u v] — the canonical routing key of an unordered
    query pair. *)

val owned : spec -> shards:int -> n:int -> int -> int array
(** The vertices [shard] owns, ascending.
    @raise Invalid_argument unless [0 <= shard < shards]. *)

val slice : spec -> shards:int -> shard:int -> Hub_label.t -> Hub_label.t
(** The shard's label slice (same [n]): full hubsets on owned vertices,
    hub-universe-filtered hubsets elsewhere. Exact for every owned
    query (see above).
    @raise Invalid_argument unless [0 <= shard < shards]. *)
