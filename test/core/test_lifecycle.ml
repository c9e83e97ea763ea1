(* The address-space lifecycle costs what it keeps: creating and
   destroying a cache, a context or a region allocates only the records
   it keeps (no empty index tables, no copied registry list, no sorted
   copy of the region list), and the words do not grow with the number
   of other live caches, contexts, regions and hidden caches.  [Gc.minor_words] is
   exact, and none of these calls allocates in the major heap.  Each
   bound is the measured figure with a little headroom. *)

let ps = 8192

let with_pvm ?(frames = 64) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      f pvm)

(* Words per call of [f], averaged over [n] calls. *)
let words_per_op n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let check_words what ~bound words =
  if words > bound then
    Alcotest.failf "%s allocated %.1f words per operation (bound %.0f)" what
      words bound

let cache_cycle pvm _ = Core.Cache.destroy pvm (Core.Cache.create pvm ())

let context_cycle pvm _ = Core.Context.destroy pvm (Core.Context.create pvm)

let region_cycle pvm ctx cache ~addr _ =
  Core.Region.destroy pvm
    (Core.Region.create pvm ctx ~addr ~size:ps ~prot:Hw.Prot.read_write cache
       ~offset:0)

let test_alloc_cache () =
  with_pvm (fun pvm ->
      cache_cycle pvm 0;
      words_per_op 64 (cache_cycle pvm)
      |> check_words "a cache create+destroy" ~bound:30.)

let test_alloc_context () =
  with_pvm (fun pvm ->
      context_cycle pvm 0;
      words_per_op 64 (context_cycle pvm)
      |> check_words "a context create+destroy" ~bound:40.)

(* The sixth region goes above the five others: its list cell is
   inserted behind theirs, so create and destroy each rebuild the five
   cells in front of it. *)
let test_alloc_region () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm and cache = Core.Cache.create pvm () in
      for i = 0 to 4 do
        ignore
          (Core.Region.create pvm ctx ~addr:(2 * i * ps) ~size:ps
             ~prot:Hw.Prot.read_write cache ~offset:0)
      done;
      region_cycle pvm ctx cache ~addr:(10 * ps) 0;
      words_per_op 64 (region_cycle pvm ctx cache ~addr:(10 * ps))
      |> check_words "a region create+destroy in a 6-region context"
           ~bound:60.)

(* The words of one create+destroy pair of each kind with [live]
   other caches, contexts and regions alive.  The live regions share
   one context above the measured region, whose list position is then
   the same at every [live]. *)
let lifecycle_words ~live =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm and cache = Core.Cache.create pvm () in
      for i = 1 to live do
        ignore (Core.Cache.create pvm ());
        ignore (Core.Context.create pvm);
        ignore
          (Core.Region.create pvm ctx ~addr:(i * ps) ~size:ps
             ~prot:Hw.Prot.read_write cache ~offset:0)
      done;
      cache_cycle pvm 0;
      context_cycle pvm 0;
      region_cycle pvm ctx cache ~addr:0 0;
      ( words_per_op 16 (cache_cycle pvm),
        words_per_op 16 (context_cycle pvm),
        words_per_op 16 (region_cycle pvm ctx cache ~addr:0) ))

let test_lifecycle_costs_what_it_keeps () =
  let c0, x0, r0 = lifecycle_words ~live:10 in
  List.iter
    (fun live ->
      let c, x, r = lifecycle_words ~live in
      List.iter
        (fun (what, w, w0) ->
          if Float.abs (w -. w0) > 8. then
            Alcotest.failf
              "a %s create+destroy allocated %.0f words with %d live \
               objects, %.0f with 10"
              what w live w0)
        [ ("cache", c, c0); ("context", x, x0); ("region", r, r0) ])
    [ 1_000; 10_000 ]

(* The words of a cache create+destroy, and of hiding a cache (a
   destroy that leaves it read by its visible history child), with
   [hidden] other hidden caches alive, each read by a visible child of
   its own. *)
let hidden_words ~hidden =
  with_pvm (fun pvm ->
      let hide _ =
        let h = Core.Cache.create pvm () and v = Core.Cache.create pvm () in
        Core.Cache.copy pvm ~strategy:`History ~src:h ~src_off:0 ~dst:v
          ~dst_off:0 ~size:ps ();
        Core.Cache.destroy pvm h
      in
      for i = 1 to hidden do
        hide i
      done;
      cache_cycle pvm 0;
      (words_per_op 16 (cache_cycle pvm), words_per_op 16 hide))

let test_destroy_ignores_hidden () =
  let c0, h0 = hidden_words ~hidden:10 and c, h = hidden_words ~hidden:10_000 in
  List.iter
    (fun (what, w, w0) ->
      if w <> w0 then
        Alcotest.failf
          "%s allocated %.1f words with 10,000 live hidden caches, %.1f with 10"
          what w w0)
    [ ("a cache create+destroy", c, c0); ("hiding a cache", h, h0) ]

let tests =
  [
    Alcotest.test_case "alloc: cache create+destroy" `Quick test_alloc_cache;
    Alcotest.test_case "alloc: context create+destroy" `Quick
      test_alloc_context;
    Alcotest.test_case "alloc: region create+destroy in a 6-region context"
      `Quick test_alloc_region;
    Alcotest.test_case "lifecycle costs what it keeps" `Quick
      test_lifecycle_costs_what_it_keeps;
    Alcotest.test_case "destroy ignores other hidden caches" `Quick
      test_destroy_ignores_hidden;
  ]
