let instrument ?(clock = Clock.monotonic) ?recorder ?prefix registry backend =
  let module B = (val backend : Backend.S) in
  let p = Option.value prefix ~default:B.name in
  let c_queries = Metrics.counter registry (p ^ ".queries") in
  let c_errors = Metrics.counter registry (p ^ ".errors") in
  let c_hit = Metrics.counter registry (p ^ ".cache.hit") in
  let c_miss = Metrics.counter registry (p ^ ".cache.miss") in
  let c_scanned = Metrics.counter registry (p ^ ".entries_scanned") in
  let c_fallback = Metrics.counter registry (p ^ ".fallback_answers") in
  let h_latency = Metrics.histogram registry (p ^ ".latency_ns") in
  let elapsed t0 = Int64.to_int (Int64.sub (clock ()) t0) in
  let timed u v =
    let t0 = clock () in
    match B.query_detailed u v with
    | exception e ->
        Metrics.observe h_latency (elapsed t0);
        Metrics.incr c_queries;
        Metrics.incr c_errors;
        raise e
    | (_, tr) as res ->
        Metrics.observe h_latency (elapsed t0);
        Metrics.incr c_queries;
        (match tr.Trace.cache with
        | Trace.Hit -> Metrics.incr c_hit
        | Trace.Miss -> Metrics.incr c_miss
        | Trace.Uncached -> ());
        Metrics.incr ~by:tr.Trace.entries_scanned c_scanned;
        if tr.Trace.fallback_hops > 0 then Metrics.incr c_fallback;
        Metrics.incr
          (Metrics.counter registry (p ^ ".source." ^ tr.Trace.source));
        Option.iter (fun r -> Trace.record r tr) recorder;
        res
  in
  Backend.make ~name:B.name ~space_words:B.space_words ~detailed:timed
    (fun u v -> fst (timed u v))

let instrument_op ?(clock = Clock.monotonic) ?exemplar ?(prefix = "ops")
    registry f req =
  let base = prefix ^ "." ^ Ops.name req in
  let h_latency = Metrics.histogram registry (base ^ ".latency_ns") in
  let c_count = Metrics.counter registry (base ^ ".count") in
  let c_errors = Metrics.counter registry (base ^ ".errors") in
  let t0 = clock () in
  let finish () =
    (* the exemplar thunk runs after [f]: by now the caller knows
       whether this request's trace was (force-)sampled *)
    let exemplar = Option.bind exemplar (fun g -> g ()) in
    Metrics.observe ?exemplar h_latency (Int64.to_int (Int64.sub (clock ()) t0));
    Metrics.incr c_count
  in
  match f req with
  | exception e ->
      finish ();
      Metrics.incr c_errors;
      raise e
  | res ->
      finish ();
      res
