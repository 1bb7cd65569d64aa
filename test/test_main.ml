let () =
  Alcotest.run "ssta"
    [ Test_erf.suite;
      Test_rng.suite;
      Test_pdf.suite;
      Test_dist.suite;
      Test_combine.suite;
      Test_stats.suite;
      Test_mc.suite;
      Test_tech.suite;
      Test_netlist.suite;
      Test_formats.suite;
      Test_frontend.suite;
      Test_generators.suite;
      Test_iscas85.suite;
      Test_timing.suite;
      Test_correlation.suite;
      Test_core.suite;
      Test_baselines.suite;
      Test_integration.suite;
      Test_extensions.suite;
      Test_features.suite;
      Test_advanced.suite;
      Test_dual_vt.suite;
      Test_sequential.suite;
      Test_lint.suite;
      Test_check.suite;
      Test_affine.suite;
      Test_block.suite;
      Test_runtime.suite;
      Test_inter_cache.suite;
      Test_path_memo.suite;
      Test_parallel.suite;
      Test_faults.suite;
      Test_server.suite;
      Test_json.suite;
      Test_impact.suite ]
