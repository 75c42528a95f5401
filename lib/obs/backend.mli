(** The one backend signature of the serving stack.

    Every distance oracle in the repository — the assoc hub labeling,
    the packed {!Flat_hub} store, the full matrix, BFS-on-demand, the
    Thorup–Zwick stretch-3 oracle and the resilient serving wrapper —
    exposes itself as a first-class module of this signature, so the
    CLI, the bench harness and {!Obs.instrument} treat them all
    identically. A backend value closes over its own state; the module
    is the query surface only.

    [query_detailed] also returns a {!Trace.t} record explaining the
    answer; the plain [query] is the uninstrumented hot path. *)

module type S = sig
  val name : string
  (** Stable identifier, used as the metric-name prefix (e.g.
      ["flat-hub-labeling"]). *)

  val space_words : int
  (** Machine words held by the query structure ([0] when unknown, e.g.
      an arbitrary injected function). *)

  val query : int -> int -> int
  (** Exact or approximate distance, {!Repro_graph.Dist.inf} when
      unreachable. *)

  val query_detailed : int -> int -> int * Trace.t
  (** Like [query], with the trace record explaining the answer. *)
end

type t = (module S)

val name : t -> string
val space_words : t -> int
val query : t -> int -> int -> int
val query_detailed : t -> int -> int -> int * Trace.t

val make :
  name:string ->
  space_words:int ->
  ?detailed:(int -> int -> int * Trace.t) ->
  (int -> int -> int) ->
  t
(** Pack a query function as a backend. Without [detailed],
    [query_detailed] wraps the plain query in a minimal trace
    ([source = name], nothing else filled in). *)

(** {2 The ops surface}

    The widened signature: a backend that additionally evaluates the
    whole {!Ops.request} algebra (eccentricity, top-k, one-to-many,
    ...). The packed hub-label stores implement [op] natively over an
    inverted hub index (one implementation for all of them,
    {!Repro_hub.Label_store.Make});
    any plain {!S} joins the surface through {!lift}, which answers
    aggregates by brute-force point queries — slower, never wrong, so
    every backend serves every operation. *)

exception Over_budget
(** Raised by a backend whose predicted work for a query or request
    exceeds its step budget, before it does any of that work. Serving
    layers treat it as a clean skip: fall back, no strike
    ({!Repro_serve.Resilient_oracle.Over_budget} is this exception). *)

module type S_ops = sig
  include S

  val op : Ops.request -> Ops.response
  (** Validate one request against this backend's vertex universe
      ({!Ops.check}) and evaluate it.
      @raise Invalid_argument on an invalid request. *)

  val op_valid : Ops.valid -> Ops.response
  (** Evaluate a request already validated: a serving layer that
      checked it (and counted a rejection) does not pay for the check
      twice. *)
end

type ops = (module S_ops)

val ops_name : ops -> string
val ops_space_words : ops -> int
val op : ops -> Ops.request -> Ops.response
val op_valid : ops -> Ops.valid -> Ops.response

val base : ops -> t
(** Forget the ops surface — the same backend as a plain {!S}. *)

val make_ops :
  name:string ->
  space_words:int ->
  ?detailed:(int -> int -> int * Trace.t) ->
  n:int ->
  op:(Ops.valid -> Ops.response) ->
  (int -> int -> int) ->
  ops
(** {!make} plus an evaluator of validated requests over the vertex
    universe [[0, n)]; the module's [op] checks, then calls it. *)

val lift : n:int -> t -> ops
(** Adapt a plain backend: [op] is {!Ops.brute} over its [query], so
    aggregate requests cost up to [n] (diameter: [n^2]) point
    queries. [n] is the backend's vertex universe. *)
