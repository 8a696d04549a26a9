let () =
  Alcotest.run "dipc"
    (Test_sim.suites @ Test_hw.suites @ Test_kernel.suites @ Test_ipc.suites
   @ Test_core.suites @ Test_security.suites @ Test_workloads.suites
   @ Test_extensions.suites @ Test_archmodels.suites @ Test_lang.suites @ Test_advanced.suites
   @ Test_trace.suites @ Test_perf.suites @ Test_props.suites
   @ Test_conformance.suites @ Test_checker.suites @ Test_inject.suites
   @ Test_blocks.suites @ Test_golden.suites @ Test_parallel.suites
   @ Test_openload.suites)
