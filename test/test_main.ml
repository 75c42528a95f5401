let () =
  Alcotest.run "hubhard"
    [
      ("shard", Test_shard.suite);
      ("structures", Test_structures.suite);
      ("graph", Test_graph.suite);
      ("generators", Test_generators.suite);
      ("matching", Test_matching.suite);
      ("ruzsa-szemeredi", Test_rs.suite);
      ("hub-labeling", Test_hub.suite);
      ("bit-labeling", Test_labeling.suite);
      ("grid-lower-bound", Test_grid.suite);
      ("rs-hub-upper-bound", Test_rs_hub.suite);
      ("sum-index", Test_sumindex.suite);
      ("route-planning", Test_route.suite);
      ("extras", Test_extras.suite);
      ("hub-labeling-2", Test_hub2.suite);
      ("hhl-arcflags", Test_hhl_flags.suite);
      ("extras-2", Test_extras2.suite);
      ("coverage", Test_coverage.suite);
      ("tz-theorems", Test_tz.suite);
      ("io-adversarial", Test_io_adversarial.suite);
      ("serve", Test_serve.suite);
      ("flat-hub", Test_flat_hub.suite);
      ("differential", Test_differential.suite);
      ("observability", Test_obs.suite);
      ("parallel", Test_par.suite);
      ("mmap-hub", Test_mmap_hub.suite);
      ("compact-hub", Test_compact_hub.suite);
      ("label-store", Test_label_store.suite);
      ("ops", Test_ops.suite);
      ("trace-ctx", Test_trace_ctx.suite);
    ]
