(** Uniform instrumentation of any {!Backend.S}.

    [instrument registry backend] returns a backend with the same
    answers whose every query is counted, timed and traced into
    [registry]:

    - counter [<p>.queries] — total queries answered;
    - histogram [<p>.latency_ns] — per-query latency (fixed buckets,
      deterministic percentiles; see {!Metrics});
    - counter [<p>.source.<source>] — answers per serving source, one
      counter per distinct {!Trace.t} [source] value seen;
    - counters [<p>.cache.hit] / [<p>.cache.miss] — distance-cache
      outcomes (only bumped when the trace reports a cache);
    - counter [<p>.entries_scanned] — cumulative label entries scanned;
    - counter [<p>.fallback_answers] — queries with
      [fallback_hops > 0];
    - counter [<p>.errors] — queries that raised (the exception is
      re-raised after being counted and timed);

    where [<p>] is [prefix] (default: the backend's [name]). Passing
    an explicit [prefix] keeps two instances of the same backend kind
    apart in one registry (the bench harness does this).

    Instrumentation routes the plain [query] through [query_detailed],
    so the trace fields are always recorded; the overhead is a clock
    read and a few counter bumps per query. *)

val instrument :
  ?clock:Clock.t ->
  ?recorder:Trace.recorder ->
  ?prefix:string ->
  Metrics.t ->
  Backend.t ->
  Backend.t
(** [recorder], when given, additionally receives every trace record
    (ring-buffered; see {!Trace.recorder}). *)

val instrument_op :
  ?clock:Clock.t ->
  ?exemplar:(unit -> string option) ->
  ?prefix:string ->
  Metrics.t ->
  (Ops.request -> 'a) ->
  Ops.request ->
  'a
(** Time and count one evaluation of an {!Ops.request} into

    - counter [<p>.<op>.count] — evaluations;
    - counter [<p>.<op>.errors] — evaluations that raised (re-raised
      after being counted and timed);
    - histogram [<p>.<op>.latency_ns] — per-evaluation latency;

    where [<p>] is [prefix] (default ["ops"]) and [<op>] is
    {!Ops.name} of the request ([ops.eccentricity.count],
    [ops.top_k_nearest.latency_ns], ...). [exemplar], when given, is
    consulted after the evaluation (so force-sampling decisions made
    during it are visible); a [Some] trace id becomes the latency
    bucket's exemplar ({!Metrics.observe}). Polymorphic in the result
    so richer evaluators (e.g. {!Repro_serve.Resilient_oracle.op},
    which also reports its serving stage) instrument identically. *)
