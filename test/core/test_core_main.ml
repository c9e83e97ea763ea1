let () =
  Alcotest.run "core"
    [
      ("gmi", Test_gmi.tests);
      ("history", Test_history.tests);
      ("pervpage", Test_pervpage.tests);
      ("pager", Test_pager.tests);
      ("edge", Test_edge.tests);
      ("hidden", Test_hidden.tests);
      ("lifecycle", Test_lifecycle.tests);
      ("reclaim", Test_reclaim.tests);
      ("fault-injection", Test_faults_inject.tests);
      ("properties", Test_props.tests);
      ("frag-map", Test_frag_map.tests);
    ]
