let () =
  Alcotest.run "at-most-once"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("ostree", Test_ostree.suite);
      ("freeset", Test_freeset.suite);
      ("rbtree", Test_rbtree.suite);
      ("twothree", Test_twothree.suite);
      ("shm", Test_shm.suite);
      ("params", Test_params.suite);
      ("spec", Test_spec.suite);
      ("policy", Test_policy.suite);
      ("collision", Test_collision.suite);
      ("trivial", Test_trivial.suite);
      ("pairing", Test_pairing.suite);
      ("kk", Test_kk.suite);
      ("superjob", Test_superjob.suite);
      ("analysis", Test_analysis.suite);
      ("montecarlo", Test_montecarlo.suite);
      ("explore", Test_explore.suite);
      ("pexplore", Test_pexplore.suite);
      ("claim-scan", Test_claim_scan.suite);
      ("harness", Test_harness.suite);
      ("iterative", Test_iterative.suite);
      ("writeall", Test_writeall.suite);
      ("multicore", Test_multicore.suite);
      ("msg", Test_msg.suite);
      ("atomicity", Test_atomicity.suite);
      ("obs", Test_obs.suite);
      ("flight", Test_flight.suite);
      ("telemetry", Test_telemetry.suite);
      ("observatory", Test_observatory.suite);
      ("fault", Test_fault.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite);
      ("conformance", Test_conformance.suite);
    ]
