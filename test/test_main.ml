let () =
  Alcotest.run "cps_monitor"
    (Test_util.suite @ Test_obs.suite @ Test_pool.suite @ Test_signal.suite
   @ Test_trace.suite
   @ Test_can.suite
   @ Test_lexer.suite @ Test_scheduler.suite @ Test_semantics_edge.suite
   @ Test_refinement.suite @ Test_explain.suite
   @ Test_mtl.suite @ Test_differential.suite @ Test_robust.suite
   @ Test_plan.suite
   @ Test_rewrite.suite
   @ Test_spec_file.suite
   @ Test_formats.suite @ Test_build.suite
   @ Test_analyze.suite @ Test_bus_errors.suite @ Test_vehicle.suite
   @ Test_fsracc.suite @ Test_hil.suite @ Test_inject.suite
   @ Test_oracle.suite @ Test_vacuity.suite @ Test_speclint.suite
   @ Test_specplan.suite
   @ Test_fleet.suite
   @ Test_serve.suite @ Test_recorder.suite
   @ Test_online_stress.suite @ Test_online_alloc.suite
   @ Test_experiments.suite @ Test_lossy.suite @ Test_golden.suite)
