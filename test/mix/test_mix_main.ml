let () =
  Alcotest.run "mix"
    [ Test_mix.tests; ("vfs", Test_vfs.tests); Test_mix_lifecycle.tests ]
