(** Resilient distance serving.

    Wraps a fast-but-untrusted primary backend (any
    {!Repro_obs.Backend.S}, typically hub labels, possibly loaded from
    disk) with:

    - {b input validation}: out-of-range endpoints are rejected and
      counted, never forwarded to a backend;
    - {b spot checks}: a configurable fraction of primary answers is
      re-derived through the fallback chain, and the chain's answer is
      the one served on disagreement;
    - {b graceful degradation}: primary → budgeted bidirectional BFS →
      plain BFS. Plain BFS on the stored graph is the unbudgeted final
      authority, so every query terminates with the exact distance as
      long as the graph itself is sound;
    - {b quarantine}: after a configurable number of strikes
      (disagreements or raised exceptions) the primary is taken out of
      rotation for good;
    - {b an incident log}: the {!stats} record counts everything the
      degradation machinery did, and the same events stream live into a
      {!Repro_obs.Metrics} registry when one is attached at creation
      ([resilient.queries], [resilient.faults], [resilient.quarantines]
      and friends — one counter per {!stats} field).

    With [spot_check_every = 1] every served answer is exact whatever
    the primary returns — the configuration the fault-injection suite
    locks in (see {!Fault_injector}). *)

open Repro_graph
open Repro_hub

type source = Primary | Bidirectional | Bfs

val source_name : source -> string

type stats = {
  queries : int;  (** accepted queries (validation failures excluded) *)
  primary_answers : int;  (** served by the primary (spot-checked or not) *)
  fallback_answers : int;  (** served by the fallback chain *)
  spot_checks : int;
  disagreements : int;  (** spot check contradicted the primary *)
  faults : int;  (** primary raised an exception *)
  budget_exhausted : int;  (** a stage gave up on its step budget *)
  validation_failures : int;  (** rejected out-of-range queries *)
  quarantines : int;  (** 0 or 1: the primary was taken out of rotation *)
}

exception Over_budget
(** Raised by a budget-capped primary when a query's label scan would
    exceed the step budget, and by a store's ops evaluator built with
    the same budget ({!Repro_hub.Label_store.Make.ops}) when a
    request's predicted work would: the one exception
    {!Repro_obs.Backend.Over_budget}. The serving loop treats it as a
    clean skip (fall back, no strike); custom primaries may raise it
    for the same effect. *)

type t

val create :
  ?step_budget:int ->
  ?spot_check_every:int ->
  ?quarantine_after:int ->
  ?metrics:Repro_obs.Metrics.t ->
  ?primary:Repro_obs.Backend.t ->
  ?primary_ops:Repro_obs.Backend.ops ->
  Graph.t ->
  t
(** [create g] builds a resilient oracle over [g]. [primary] is any
    uniform backend (build budget-capped label backends with
    {!store_primary}, passing it the same [step_budget]); omit it for
    a search-only oracle. The caller checks that the primary's vertex
    universe is [g]'s.

    [primary_ops] is the fast evaluator behind {!op}: over a label
    store, pass the [ops] of the same {!Repro_hub.Label_store.packed}
    as [primary], built with the same [step_budget] as its [budget]. When omitted, aggregate requests run through
    {!Repro_obs.Backend.lift} over [primary] — one point query per
    pair, budget caps included — or straight through the fallback
    chain when there is no primary at all. The lift default is for
    bare point backends only (test doubles, fault-injected wrappers);
    no serving path relies on it.

    [spot_check_every k]: the answer to every [k]-th primary attempt
    (raised attempts and budget skips count too) is re-derived through
    the fallback chain; [k = 1] (default) verifies every answer,
    [k <= 0] disables spot checks. [quarantine_after q]
    (default 3): after [q] strikes the primary is never consulted
    again. [step_budget] (default: effectively unlimited) caps the
    bidirectional stage's vertex expansions before degrading to plain
    BFS. [metrics]: a registry that receives every incident counter
    live, under the [resilient.] prefix.

    @raise Invalid_argument on a non-positive
    [step_budget]/[quarantine_after]. *)

val store_primary : ?step_budget:int -> Label_store.packed -> Repro_obs.Backend.t
(** The store's backend, additionally raising {!Over_budget} when
    [|S(u)| + |S(v)|] exceeds [step_budget]: every store kind (assoc
    via {!Hub_label.pack}, flat, mmap, compact) slots into the
    identical degradation chain. *)

val flat_primary : ?step_budget:int -> Flat_hub.t -> Repro_obs.Backend.t
(** [store_primary] over {!Flat_hub.pack}. *)

val compact_primary : ?step_budget:int -> Compact_hub.t -> Repro_obs.Backend.t
(** [store_primary] over {!Compact_hub.pack}. *)

val query : t -> int -> int -> int
(** Exact distance ({!Dist.inf} when disconnected) whenever spot
    checks are exhaustive or the primary is honest.
    @raise Invalid_argument on out-of-range endpoints (counted in
    [validation_failures]). *)

val query_detailed : t -> int -> int -> int * source
(** Like {!query}, also reporting which stage produced the served
    answer — the CLI uses it to flag degraded-mode responses. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** Batched {!query}. Without [pool] this is exactly a sequential
    [query] loop. With [pool] the primary's answers are precomputed in
    parallel across domains and all accounting (counters, strikes,
    quarantine, spot checks, fallback searches) replays sequentially in
    pair order, so answers and {!stats} match the sequential loop for
    any job count.

    Pass [pool] only when the primary backend is domain-safe: pure
    functions of [(u, v)], e.g. {!store_primary} over a {e cache-free}
    store. Instrumented, cached or fault-injecting primaries mutate
    shared state per call — batch those without a pool.
    @raise Invalid_argument when a pair is out of range (pairs before
    it have already been served and counted, as in the loop). *)

val query_many_detailed :
  ?pool:Repro_par.Pool.t -> t -> (int * int) array -> (int * source) array
(** {!query_many}, also reporting each answer's serving stage. *)

val op : t -> Repro_obs.Ops.request -> Repro_obs.Ops.response * source
(** Evaluate any {!Repro_obs.Ops.request} with the same resilience
    contract as point queries. [Dist] routes through {!query_detailed}
    and [Batch] through a sequential per-pair loop (each pair keeps
    its own budget/spot-check accounting; the reported source is the
    deepest stage any pair degraded to). Every other request counts as
    {e one} accepted query and degrades all-or-nothing: the primary
    ops evaluator is tried first ({!Over_budget} → clean skip, any
    other exception → fault + strike), its successful answers are
    spot-checked every [spot_check_every]-th primary attempt against
    the BFS fallback via full-response comparison (disagreement →
    strike + serve the truth), and quarantine removes it from rotation
    exactly as for points. The fallback evaluates aggregates with one
    exact BFS row per source ([source = Bfs]; the bidirectional stage
    only applies to point queries), so on the unweighted serving
    graphs every degraded answer is still exact. The request is
    validated once, here: the primary gets it as
    {!Repro_obs.Ops.valid} ({!Repro_obs.Backend.op_valid}).
    @raise Invalid_argument on an invalid request (counted in
    [validation_failures]). *)

val stats : t -> stats
val quarantined : t -> bool

val primary_name : t -> string option
(** The primary backend's [name], if a primary was configured. *)

val backend : t -> Repro_obs.Backend.t
(** The whole resilient oracle behind the uniform signature (name
    ["resilient(<primary>)"] or ["resilient(search)"]). Traces carry
    the serving stage as [source] and the chain depth as
    [fallback_hops] (primary 0, bidirectional 1, BFS 2);
    [space_words] adds the stored graph to the primary's accounting. *)

val pp_stats : Format.formatter -> stats -> unit
