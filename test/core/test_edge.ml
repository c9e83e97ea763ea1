(* Edge cases and upcall-protocol details: getWriteAccess, region
   introspection, cache-level protection, policy variants, error
   paths, zombie collection of history chains. *)

let ps = 8192

let with_pvm ?(frames = 256) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      f pvm)

(* The getWriteAccess upcall (Table 3): a write to data pulled
   read-only must request write access exactly once per page. *)
let test_get_write_access_upcall () =
  with_pvm (fun pvm ->
      let grants = ref [] in
      let pulls = ref [] in
      let backing =
        {
          Core.Gmi.b_name = "gwa";
          b_pull_in =
            (fun ~offset ~size ~prot ~fill_up ->
              pulls := (offset, Hw.Prot.allows prot `Write) :: !pulls;
              fill_up ~offset (Bytes.make size 'o'));
          b_get_write_access =
            (fun ~offset ~size:_ -> grants := offset :: !grants);
          b_push_out = (fun ~offset:_ ~size:_ ~copy_back:_ -> ());
        }
      in
      let cache = Core.Cache.create pvm ~backing () in
      let ctx = Core.Context.create pvm in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      (* read first: pulled with read access mode, no grant *)
      ignore (Core.Pvm.read pvm ctx ~addr:0 ~len:1);
      Alcotest.(check (list (pair int bool))) "read pulls read-only"
        [ (0, false) ] !pulls;
      Alcotest.(check (list int)) "no grant on read" [] !grants;
      (* the first write to read-pulled data requests access *)
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "w");
      Alcotest.(check (list int)) "grant requested for page 0" [ 0 ] !grants;
      (* further writes to the same page are free *)
      Core.Pvm.write pvm ctx ~addr:100 (Bytes.of_string "w");
      Alcotest.(check (list int)) "no second grant" [ 0 ] !grants;
      (* a write MISS pulls with write access mode directly (§3.3.3):
         no separate getWriteAccess *)
      Core.Pvm.write pvm ctx ~addr:ps (Bytes.of_string "w");
      Alcotest.(check (list (pair int bool))) "write miss pulls writable"
        [ (ps, true); (0, false) ]
        !pulls;
      Alcotest.(check (list int)) "no grant for write-mode pull" [ 0 ]
        !grants)

let test_region_list_and_status () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let cache = Core.Cache.create pvm () in
      let r1 =
        Core.Region.create pvm ctx ~addr:(4 * ps) ~size:ps
          ~prot:Hw.Prot.read_only cache ~offset:(2 * ps)
      in
      let _r2 =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      let regions = Core.Context.region_list ctx in
      Alcotest.(check int) "two regions" 2 (List.length regions);
      (* sorted by start address *)
      let addrs =
        List.map (fun r -> (Core.Region.status r).Core.Region.s_addr) regions
      in
      Alcotest.(check (list int)) "sorted" [ 0; 4 * ps ] addrs;
      let st = Core.Region.status r1 in
      Alcotest.(check int) "status addr" (4 * ps) st.Core.Region.s_addr;
      Alcotest.(check int) "status size" ps st.s_size;
      Alcotest.(check int) "status offset" (2 * ps) st.s_offset;
      Alcotest.(check bool) "status prot" true
        (Hw.Prot.equal st.s_prot Hw.Prot.read_only);
      (* findRegion *)
      (match Core.Context.find_region ctx ~addr:(4 * ps + 100) with
      | Some r -> Alcotest.(check bool) "find_region finds r1" true (r == r1)
      | None -> Alcotest.fail "expected region");
      Alcotest.(check bool) "find_region misses gaps" true
        (Core.Context.find_region ctx ~addr:(2 * ps) = None))

let test_context_switch () =
  with_pvm (fun pvm ->
      let c1 = Core.Context.create pvm and c2 = Core.Context.create pvm in
      Core.Context.switch pvm c1;
      (match Core.Context.current pvm with
      | Some c -> Alcotest.(check bool) "current is c1" true (c == c1)
      | None -> Alcotest.fail "expected current context");
      Core.Context.switch pvm c2;
      Core.Context.destroy pvm c2;
      Alcotest.(check bool) "destroy clears current" true
        (Core.Context.current pvm = None);
      Core.Context.destroy pvm c1)

(* Table 4 setProtection: the segment manager caps access to cached
   data; writes then re-request access. *)
let test_cache_set_protection () =
  with_pvm (fun pvm ->
      let grants = ref 0 in
      let backing =
        {
          Core.Gmi.b_name = "cap";
          b_pull_in =
            (fun ~offset ~size ~prot:_ ~fill_up ->
              fill_up ~offset (Bytes.make size 'c'));
          b_get_write_access = (fun ~offset:_ ~size:_ -> incr grants);
          b_push_out = (fun ~offset:_ ~size:_ ~copy_back:_ -> ());
        }
      in
      let cache = Core.Cache.create pvm ~backing () in
      let ctx = Core.Context.create pvm in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "1");
      let grants_before = !grants in
      (* manager revokes write access on the cached page *)
      Core.Cache.set_protection pvm cache ~offset:0 ~size:ps
        Hw.Prot.read_only;
      ignore (Core.Pvm.read pvm ctx ~addr:0 ~len:1);
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "2");
      Alcotest.(check int) "write re-requested access" (grants_before + 1)
        !grants)

let test_errors () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let cache = Core.Cache.create pvm () in
      Alcotest.check_raises "unaligned region"
        (Invalid_argument "regionCreate: unaligned address, size or offset")
        (fun () ->
          ignore
            (Core.Region.create pvm ctx ~addr:100 ~size:ps
               ~prot:Hw.Prot.read_write cache ~offset:0));
      Alcotest.check_raises "zero-size region"
        (Invalid_argument "regionCreate: size <= 0") (fun () ->
          ignore
            (Core.Region.create pvm ctx ~addr:0 ~size:0
               ~prot:Hw.Prot.read_write cache ~offset:0));
      let r =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      Alcotest.check_raises "destroy cache while mapped"
        (Invalid_argument "cacheDestroy: regions still map this cache")
        (fun () -> Core.Cache.destroy pvm cache);
      Core.Region.destroy pvm r;
      Alcotest.check_raises "double region destroy"
        (Invalid_argument "GMI: region destroyed") (fun () ->
          Core.Region.destroy pvm r);
      Core.Cache.destroy pvm cache;
      Alcotest.check_raises "op on dead cache"
        (Invalid_argument "GMI: cache destroyed") (fun () ->
          Core.Cache.sync pvm cache ~offset:0 ~size:ps);
      (* overlapping same-cache deferred copy *)
      let c2 = Core.Cache.create pvm () in
      Alcotest.check_raises "overlapping self-copy"
        (Invalid_argument "copy: overlapping ranges within one cache")
        (fun () ->
          Core.Cache.copy pvm ~src:c2 ~src_off:0 ~dst:c2 ~dst_off:ps
            ~size:(2 * ps) ()))

(* Zombie history chains: a destroyed interior cache is collected once
   its last reader detaches. *)
let test_zombie_collection () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let a = Core.Cache.create pvm () in
      let _ra =
        Core.Region.create pvm ctx ~addr:0 ~size:(2 * ps)
          ~prot:Hw.Prot.read_write a ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make ps 'a');
      let b = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src:a ~src_off:0 ~dst:b
        ~dst_off:0 ~size:(2 * ps) ();
      let c = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src:b ~src_off:0 ~dst:c
        ~dst_off:0 ~size:(2 * ps) ();
      (* b dies while c still reads through it: becomes hidden *)
      Core.Cache.destroy pvm b;
      Check.Sanitizer.assert_ok ~label:"invariants with zombie" pvm;
      let rc =
        Core.Region.create pvm ctx ~addr:(16 * ps) ~size:(2 * ps)
          ~prot:Hw.Prot.read_write c ~offset:0
      in
      Alcotest.(check char) "c reads through dead b" 'a'
        (Bytes.get (Core.Pvm.read pvm ctx ~addr:(16 * ps) ~len:1) 0);
      (* c dies too: the whole hidden chain must be reclaimed *)
      Core.Region.destroy pvm rc;
      Core.Cache.destroy pvm c;
      Check.Sanitizer.assert_ok ~label:"invariants after collection" pvm;
      (* only a's page frame remains *)
      Alcotest.(check int) "chain frames reclaimed" 1
        (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm)))

(* Destroying a cache costs what the cache holds, not what the PVM
   holds: the words [Cache.destroy] allocates for a 4-page cache do not
   grow with unrelated resident pages or unrelated live per-page stubs
   (threaded on resident sources and pending on absent ones). *)
let destroy_words ~resident ~stubs =
  with_pvm ~frames:(resident + 64) (fun pvm ->
      let bulk = Core.Cache.create pvm () in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let page = Bytes.make ps 'u' in
      for i = 0 to resident - 1 do
        Core.Cache.fill_up pvm bulk ~offset:(i * ps) page
      done;
      (* half of the stubs read resident source pages, half pending
         (cache, offset) sources *)
      for i = 0 to (stubs / 2) - 1 do
        Core.Cache.fill_up pvm src ~offset:(i * ps) page
      done;
      if stubs > 0 then
        Core.Cache.copy pvm ~strategy:`Per_page ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(stubs * ps) ();
      let victim = Core.Cache.create pvm () in
      for i = 0 to 3 do
        Core.Cache.fill_up pvm victim ~offset:(i * ps) page
      done;
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let before = allocated () in
      Core.Cache.destroy pvm victim;
      let words = allocated () -. before in
      Check.Sanitizer.assert_ok ~label:"invariants after destroy" pvm;
      words)

let test_destroy_scales_with_cache () =
  let base = destroy_words ~resident:0 ~stubs:0 in
  List.iter
    (fun (resident, stubs) ->
      let words = destroy_words ~resident ~stubs in
      if Float.abs (words -. base) > 64. then
        Alcotest.failf
          "destroy of a 4-page cache allocated %.0f words with %d resident \
           pages and %d stubs elsewhere, %.0f with none"
          words resident stubs base)
    [ (2000, 0); (0, 50); (2000, 50) ]

(* regionDestroy's host work follows the mapped pages, not the region
   size: tearing down a 2^20-page region with 3 mapped pages drops
   exactly those pmap records (a second context mapping one of the
   same pages keeps its own) and allocates next to nothing. *)
let test_region_destroy_costs_what_is_mapped () =
  with_pvm ~frames:16 (fun pvm ->
      let npages = 1 lsl 20 in
      let cache = Core.Cache.create pvm () in
      let ctx = Core.Context.create pvm in
      let other = Core.Context.create pvm in
      let big =
        Core.Region.create pvm ctx ~addr:0 ~size:(npages * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      let small =
        Core.Region.create pvm other ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      let vpns = [ 0; npages / 2; npages - 1 ] in
      List.iter
        (fun vpn ->
          Core.Pvm.write pvm ctx ~addr:(vpn * ps) (Bytes.of_string "x"))
        vpns;
      ignore (Core.Pvm.read pvm other ~addr:0 ~len:1);
      let pages =
        List.map
          (fun vpn ->
            match Core.Pmap.mapped_page pvm big ~vpn with
            | Some page -> page
            | None -> Alcotest.failf "vpn %d not mapped" vpn)
          vpns
      in
      let records () =
        List.map
          (fun (p : Core.Types.page) ->
            List.map
              (fun ((r : Core.Types.region), vpn) -> (r.r_id, vpn))
              p.p_mappings)
          pages
      in
      Alcotest.(check (list (list (pair int int))))
        "pmap records before"
        [
          [ (small.r_id, 0); (big.r_id, 0) ];
          [ (big.r_id, npages / 2) ];
          [ (big.r_id, npages - 1) ];
        ]
        (records ());
      let allocated () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let before = allocated () in
      Core.Region.destroy pvm big;
      let words = allocated () -. before in
      Alcotest.(check (list (list (pair int int))))
        "only the destroyed region's records dropped"
        [ [ (small.r_id, 0) ]; []; [] ]
        (records ());
      Alcotest.(check int) "its PTEs are gone" 0
        (Hw.Mmu.mapped_pages ctx.ctx_space);
      Alcotest.(check int) "the other context keeps its PTE" 1
        (Hw.Mmu.mapped_pages other.ctx_space);
      if words >= 1000. then
        Alcotest.failf "destroying a 2^20-page region allocated %.0f words"
          words;
      Check.Sanitizer.assert_ok ~label:"invariants" pvm)

(* --- Allocation bounds of the data path ----------------------------- *)

(* A fault, a per-page copy and a move allocate only the records they
   keep (page descriptor, map binding, pmap record, stub) plus a few
   words of results: no per-call closure, no copied list.  Words per
   operation, averaged over [n] operations after any warm-up the
   caller did; [Gc.minor_words] is exact, and none of these operations
   allocates directly in the major heap.  Each bound is the measured
   figure with a little headroom. *)
let words_per_op n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let map_cache pvm ctx cache ~pages =
  ignore
    (Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
       ~prot:Hw.Prot.read_write cache ~offset:0)

let check_words what ~bound words =
  if words > bound then
    Alcotest.failf "%s allocated %.1f words per operation (bound %.0f)" what
      words bound

let test_alloc_zero_fill_fault () =
  with_pvm (fun pvm ->
      let cache = Core.Cache.create pvm () in
      let ctx = Core.Context.create pvm in
      map_cache pvm ctx cache ~pages:32;
      words_per_op 32 (fun i ->
          Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write)
      |> check_words "a zero-fill write fault" ~bound:56.)

(* [src]'s first [pages] pages written through a context of its own. *)
let written_source pvm ~pages =
  let src = Core.Cache.create pvm () in
  let ctx = Core.Context.create pvm in
  map_cache pvm ctx src ~pages;
  for i = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write
  done;
  src

(* [src]'s first [pages] pages under a chain of [depth] history copies,
   each of the one before, the last mapped through a context of its
   own: a miss there walks [depth] levels of the copy tree. *)
let history_child ?(depth = 1) pvm ~pages =
  let src = ref (written_source pvm ~pages) in
  for _ = 1 to depth do
    let dst = Core.Cache.create pvm () in
    Core.Cache.copy pvm ~strategy:`History ~src:!src ~src_off:0 ~dst
      ~dst_off:0 ~size:(pages * ps) ();
    src := dst
  done;
  let ctx = Core.Context.create pvm in
  map_cache pvm ctx !src ~pages;
  ctx

let fault_words ?depth access =
  with_pvm (fun pvm ->
      let ctx = history_child ?depth pvm ~pages:32 in
      words_per_op 32 (fun i -> Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access))

let test_alloc_borrow_fault () =
  fault_words `Read |> check_words "a borrow read fault" ~bound:24.

let test_alloc_cow_write_fault () =
  fault_words `Write |> check_words "a history COW write fault" ~bound:52.

(* The walk allocates nothing per level: a fault four levels down
   allocates what one a level down does. *)
let check_depth_free what access =
  let shallow = fault_words access and deep = fault_words ~depth:4 access in
  if deep <> shallow then
    Alcotest.failf "%s allocated %.2f words at walk depth 4, %.2f at depth 1"
      what deep shallow

let test_alloc_borrow_depth () =
  check_depth_free "a borrow read fault" `Read

let test_alloc_cow_write_depth () =
  check_depth_free "a history COW write fault" `Write

(* A write to a read-protected source saves the original into its
   history, whose page is read-protected in turn because the history
   has been copied too. *)
let test_alloc_source_write_fault () =
  with_pvm (fun pvm ->
      let src = Core.Cache.create pvm () in
      let ctx = Core.Context.create pvm in
      map_cache pvm ctx src ~pages:32;
      for i = 0 to 31 do
        Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write
      done;
      let copy ~src =
        let dst = Core.Cache.create pvm () in
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
          ~size:(32 * ps) ();
        dst
      in
      ignore (copy ~src:(copy ~src));
      words_per_op 32 (fun i ->
          Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write)
      |> check_words "a write to a protected source" ~bound:32.)

let test_alloc_remap_fault () =
  with_pvm (fun pvm ->
      let cache = written_source pvm ~pages:32 in
      let ctx = Core.Context.create pvm in
      map_cache pvm ctx cache ~pages:32;
      words_per_op 32 (fun i ->
          Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Read)
      |> check_words "a re-map of a resident page" ~bound:22.)

let test_alloc_per_page_copy () =
  with_pvm (fun pvm ->
      let src = written_source pvm ~pages:8 in
      let dst = Core.Cache.create pvm () in
      let copy _ =
        Core.Cache.copy pvm ~strategy:`Per_page ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(8 * ps) ()
      in
      (* the first copy fills the stub indexes; later ones also purge
         the stubs of the one before, as a message slot does *)
      copy 0;
      words_per_op 16 copy
      |> check_words "an 8-page per-page copy" ~bound:270.)

(* The same copy from a source that is itself a history copy: the
   copy's cycle check walks the source's ancestors, which costs a few
   list cells and no table. *)
let test_alloc_per_page_copy_of_history () =
  with_pvm (fun pvm ->
      let orig = written_source pvm ~pages:8 in
      let src = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src:orig ~src_off:0 ~dst:src
        ~dst_off:0 ~size:(8 * ps) ();
      Alcotest.(check bool) "the source has a parent" true
        (Core.Parents.frags src <> []);
      let dst = Core.Cache.create pvm () in
      let copy _ =
        Core.Cache.copy pvm ~strategy:`Per_page ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(8 * ps) ()
      in
      copy 0;
      words_per_op 16 copy
      |> check_words "an 8-page per-page copy of a history copy" ~bound:295.)

let test_alloc_move () =
  with_pvm (fun pvm ->
      let a = Core.Cache.create pvm () and b = Core.Cache.create pvm () in
      for i = 0 to 7 do
        Core.Cache.fill_up pvm a ~offset:(i * ps) (Bytes.make ps 'm')
      done;
      (* back and forth: every move reassigns eight resident pages *)
      let move i =
        let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
        Core.Cache.move pvm ~src ~src_off:0 ~dst ~dst_off:0 ~size:(8 * ps) ()
      in
      move 0;
      move 1;
      words_per_op 16 move |> check_words "an aligned 8-page move" ~bound:215.)

let test_alloc_eager_copy () =
  with_pvm (fun pvm ->
      let src = Core.Cache.create pvm () and dst = Core.Cache.create pvm () in
      Core.Cache.fill_up pvm src ~offset:0 (Bytes.make ps 'e');
      let copy _ =
        Core.Cache.copy pvm ~src ~src_off:10 ~dst ~dst_off:20 ~size:100 ()
      in
      copy 0;
      words_per_op 16 copy
      |> check_words "an unaligned 100-byte eager copy" ~bound:12.)

(* --- Exact probe counts of the fault path ---------------------------- *)

(* A fault acts on what it has already read: it probes the global map
   once per cache its walk visits and once to install a page it makes,
   and reads the pending-source table only where its cache's mirror
   names a row there.  The counts are exact (a single-fibre run is
   deterministic), so each is checked over [n] faults of one kind. *)
let check_probes pvm what ~n ~gmap ~stub_sources f =
  let probes () =
    ( Core.Frag_map.probes pvm.Core.Types.gmap,
      Core.Frag_map.probes pvm.Core.Types.stub_sources )
  in
  let g0, s0 = probes () in
  for i = 0 to n - 1 do
    f i
  done;
  let g1, s1 = probes () in
  Alcotest.(check (pair int int))
    (what ^ ": global-map and pending-source probes")
    (n * gmap, n * stub_sources)
    (g1 - g0, s1 - s0)

let test_fault_probes () =
  let n = 32 in
  (* zero fill: the row read empty, then the page installed *)
  with_pvm (fun pvm ->
      let cache = Core.Cache.create pvm () in
      let ctx = Core.Context.create pvm in
      map_cache pvm ctx cache ~pages:n;
      check_probes pvm "a zero-fill write fault" ~n ~gmap:2 ~stub_sources:0
        (fun i -> Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write));
  (* borrow: the child's row read empty, then the parent's *)
  with_pvm (fun pvm ->
      let ctx = history_child pvm ~pages:n in
      check_probes pvm "a borrow read fault" ~n ~gmap:2 ~stub_sources:0
        (fun i -> Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Read));
  (* re-map: the resident row, read once *)
  with_pvm (fun pvm ->
      let cache = written_source pvm ~pages:n in
      let ctx = Core.Context.create pvm in
      map_cache pvm ctx cache ~pages:n;
      check_probes pvm "a re-map of a resident page" ~n ~gmap:1
        ~stub_sources:0 (fun i ->
          Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Read));
  (* history COW: the child's row read empty, the parent's read, then
     the copy installed *)
  with_pvm (fun pvm ->
      let ctx = history_child pvm ~pages:n in
      check_probes pvm "a history COW write fault" ~n ~gmap:3
        ~stub_sources:0 (fun i ->
          Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access:`Write));
  (* pull-in: the row read empty, the synchronization stub placed,
     the row read by fillUp and by the page maker after its frame
     allocation, the page installed, and the row read once the segment
     returns; the page the pull returned is then mapped as it is *)
  List.iter
    (fun (what, access) ->
      with_pvm (fun pvm ->
          let backing =
            {
              Core.Gmi.b_name = "seg";
              b_pull_in =
                (fun ~offset ~size ~prot:_ ~fill_up ->
                  fill_up ~offset (Bytes.make size 's'));
              b_get_write_access = (fun ~offset:_ ~size:_ -> ());
              b_push_out = (fun ~offset:_ ~size:_ ~copy_back:_ -> ());
            }
          in
          let cache = Core.Cache.create pvm ~backing () in
          let ctx = Core.Context.create pvm in
          map_cache pvm ctx cache ~pages:n;
          check_probes pvm what ~n ~gmap:6 ~stub_sources:0 (fun i ->
              Core.Pvm.touch pvm ctx ~addr:(i * ps) ~access)))
    [ ("a segment pull-in read fault", `Read);
      ("a segment pull-in write fault", `Write) ]

(* --- Exceptions inside the pinned halves ---------------------------- *)

(* Frame exhaustion raised in the middle of a pinned section must drop
   the pin on the way out.  Three places
   raise it with a page pinned: saving an original from
   own_writable_page, copying a parent's page in child_copy, and
   pulling an eager copy's source while the destination page is
   pinned.  [frames] is one more than the scenario's own pages, and a
   filler cache takes the spare with dirty anonymous pages, which
   cannot be evicted. *)
let no_memory_scenarios =
  let exhaust pvm =
    let filler = Core.Cache.create pvm () in
    let i = ref 0 in
    while Hw.Phys_mem.free_frames (Core.Pvm.memory pvm) > 0 do
      Core.Cache.fill_up pvm filler ~offset:(!i * ps) (Bytes.make ps 'f');
      incr i
    done
  in
  [
    ( "own_writable_page",
      fun pvm ->
        (* a write to a copied source must save its original first *)
        let src = Core.Cache.create pvm () and dst = Core.Cache.create pvm () in
        let ctx = Core.Context.create pvm in
        map_cache pvm ctx src ~pages:1;
        Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "s");
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:ps ();
        exhaust pvm;
        fun () -> Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "w") );
    ( "child_copy",
      fun pvm ->
        let src = Core.Cache.create pvm () and dst = Core.Cache.create pvm () in
        Core.Cache.fill_up pvm src ~offset:0 (Bytes.make ps 's');
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:ps ();
        let ctx = Core.Context.create pvm in
        map_cache pvm ctx dst ~pages:1;
        exhaust pvm;
        fun () -> Core.Pvm.write pvm ctx ~addr:0 (Bytes.of_string "w") );
    ( "eager copy",
      fun pvm ->
        (* the destination misses the page: own_writable_page copies it
           from the destination's parent, pinned, inside the copy *)
        let base = Core.Cache.create pvm () and dst = Core.Cache.create pvm () in
        Core.Cache.fill_up pvm base ~offset:0 (Bytes.make ps 'p');
        Core.Cache.copy pvm ~strategy:`History ~src:base ~src_off:0 ~dst
          ~dst_off:0 ~size:ps ();
        let src = Core.Cache.create pvm () in
        Core.Cache.fill_up pvm src ~offset:0 (Bytes.make ps 's');
        exhaust pvm;
        fun () ->
          Core.Cache.copy pvm ~src ~src_off:10 ~dst ~dst_off:20 ~size:100 () );
  ]

let check_unpinned what pvm =
  List.iter
    (fun (p : Core.Types.page) ->
      if p.p_wire_count <> 0 then
        Alcotest.failf "%s: page (%d,%d) left wired (%d)" what
          p.p_cache.c_id p.p_offset p.p_wire_count)
    (Core.Inspect.pages pvm)

let test_no_memory_sequential () =
  List.iter
    (fun (what, setup) ->
      with_pvm ~frames:8 (fun pvm ->
          let op = setup pvm in
          (match op () with
          | () -> Alcotest.failf "%s: frame exhaustion expected" what
          | exception Core.Gmi.No_memory -> ());
          check_unpinned what pvm))
    no_memory_scenarios

(* The same on two simulated CPUs, each operation in a lane slice.  A
   following fault in another lane re-maps a resident page. *)
let test_no_memory_parallel () =
  List.iter
    (fun (what, setup) ->
      let engine = Hw.Engine.create ~domains:2 () in
      let pvm = Core.Pvm.create ~frames:8 ~cost:Hw.Cost.free ~engine () in
      let raised = ref false and after = ref false in
      let probe = Core.Context.create pvm in
      Hw.Engine.run engine (fun () ->
          let cache = Core.Cache.create pvm () in
          Core.Cache.fill_up pvm cache ~offset:0 (Bytes.make ps 'a');
          map_cache pvm probe cache ~pages:1;
          let op = setup pvm in
          Hw.Engine.spawn engine ~affinity:1 (fun () ->
              match op () with
              | () -> ()
              | exception Core.Gmi.No_memory -> raised := true);
          (* a serial slice runs only once no lane is runnable *)
          Hw.Engine.sleep (Hw.Sim_time.ms 1);
          Alcotest.(check bool) (what ^ ": frame exhaustion raised") true
            !raised;
          check_unpinned what pvm;
          Hw.Engine.spawn engine ~affinity:2 (fun () ->
              after :=
                Bytes.get (Core.Pvm.read pvm probe ~addr:0 ~len:1) 0 = 'a'));
      Alcotest.(check bool) (what ^ ": the next fault completes") true !after;
      let wires =
        List.filter
          (fun (v : Check.Sanitizer.violation) -> v.rule = "wires")
          (Check.Sanitizer.run pvm)
      in
      Alcotest.(check int) (what ^ ": wires rule clean") 0 (List.length wires))
    no_memory_scenarios

(* --- A borrowed unmap must not drop a concurrent mapping ------------- *)

(* [Pmap.cow_release] charges one protection update per borrowed
   mapping it unmaps, and each charge lets other fibres run.  A fault
   that maps the page into another context meanwhile must keep its
   pmap record: the release once wrote a snapshot of the list back and
   dropped it, leaving a translation no teardown would find, so the
   context later read whatever the recycled frame held.  Fibre A
   writes the copied page through c1 (saving the original, then
   releasing); fibre B reads it through c2 after [delay].  The sweep
   covers every delay around A's release. *)
let release_race ~delay =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames:64 ~engine () in
      let s = Core.Cache.create pvm () and d = Core.Cache.create pvm () in
      let c1 = Core.Context.create pvm
      and c2 = Core.Context.create pvm
      and c3 = Core.Context.create pvm in
      map_cache pvm c1 s ~pages:1;
      map_cache pvm c2 s ~pages:1;
      map_cache pvm c3 d ~pages:1;
      Core.Pvm.write pvm c1 ~addr:0 (Bytes.make ps 's');
      Core.Cache.copy pvm ~strategy:`History ~src:s ~src_off:0 ~dst:d
        ~dst_off:0 ~size:ps ();
      (* c3 borrows s's page through the copy *)
      ignore (Core.Pvm.read pvm c3 ~addr:0 ~len:1);
      Hw.Engine.spawn engine (fun () ->
          Core.Pvm.write pvm c1 ~addr:0 (Bytes.of_string "A"));
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.sleep delay;
          ignore (Core.Pvm.read pvm c2 ~addr:0 ~len:1));
      Hw.Engine.sleep (Hw.Sim_time.ms 10);
      let mmu =
        List.filter
          (fun (v : Check.Sanitizer.violation) -> v.rule = "mmu")
          (Check.Sanitizer.run pvm)
      in
      (* recycle s's frame: c2 must fault onto s's current value, not
         read another cache's data through a forgotten translation *)
      Core.Cache.invalidate pvm s ~offset:0 ~size:ps;
      let other = Core.Cache.create pvm () and c4 = Core.Context.create pvm in
      map_cache pvm c4 other ~pages:20;
      for i = 0 to 19 do
        Core.Pvm.write pvm c4 ~addr:(i * ps) (Bytes.make ps 'z')
      done;
      (mmu, Bytes.get (Core.Pvm.read pvm c2 ~addr:0 ~len:1) 0))

let test_cow_release_keeps_concurrent_mapping () =
  for step = 0 to 400 do
    let delay = Hw.Sim_time.us 1200 + Hw.Sim_time.ns (step * 1000) in
    let mmu, byte = release_race ~delay in
    (match mmu with
    | [] -> ()
    | v :: _ ->
      Alcotest.failf "B after %dns: %s" delay
        (Format.asprintf "%a" Check.Sanitizer.pp_violation v));
    if byte = 'z' then
      Alcotest.failf "B after %dns: c2 reads another cache's data" delay
  done

(* Copying onto one of the source's own ancestors must not defer: the
   cycle check follows per-page stub edges too.  [b] reads [a]'s page
   through a stub, so a small aligned copy from [b] back into [a] takes
   the eager path, while the same copy into an unrelated cache stays
   per-page. *)
let test_copy_onto_stub_ancestor_is_eager () =
  with_pvm (fun pvm ->
      let a = Core.Cache.create pvm () in
      let b = Core.Cache.create pvm () in
      let c = Core.Cache.create pvm () in
      Core.Cache.fill_up pvm a ~offset:0 (Bytes.make ps 'a');
      Core.Cache.copy pvm ~strategy:`Per_page ~src:a ~src_off:0 ~dst:b
        ~dst_off:0 ~size:ps ();
      let eager () = (Core.Pvm.stats pvm).n_eager_pages in
      let e0 = eager () in
      Core.Cache.copy pvm ~src:b ~src_off:0 ~dst:c ~dst_off:0 ~size:ps ();
      Alcotest.(check int) "unrelated destination stays per-page" e0
        (eager ());
      Core.Cache.copy pvm ~src:b ~src_off:0 ~dst:a ~dst_off:(4 * ps)
        ~size:ps ();
      Alcotest.(check int) "copy onto the stub ancestor is eager" (e0 + 1)
        (eager ());
      Alcotest.(check char) "ancestor received the value" 'a'
        (Bytes.get (Core.Cache.copy_back pvm a ~offset:(4 * ps) ~size:1) 0);
      Check.Sanitizer.assert_ok ~label:"invariants" pvm)

(* Copy-on-reference at the rgn level: offsets shifted, COR policy. *)
let test_cor_shifted () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write src ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:(2 * ps) (Bytes.make ps 'q');
      let dst = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~policy:`Copy_on_reference
        ~src ~src_off:(2 * ps) ~dst ~dst_off:0 ~size:ps ();
      let _rd =
        Core.Region.create pvm ctx ~addr:(32 * ps) ~size:ps
          ~prot:Hw.Prot.read_write dst ~offset:0
      in
      let before = (Core.Pvm.stats pvm).Core.Types.n_cow_copies in
      Alcotest.(check char) "shifted COR read" 'q'
        (Bytes.get (Core.Pvm.read pvm ctx ~addr:(32 * ps) ~len:1) 0);
      Alcotest.(check bool) "COR materialised on reference" true
        ((Core.Pvm.stats pvm).n_cow_copies > before))

(* moveBack keeps deferred relationships intact: children of the
   pushed range still read correct values. *)
let test_move_back_with_children () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let a = Core.Cache.create pvm () in
      let _ra =
        Core.Region.create pvm ctx ~addr:0 ~size:(2 * ps)
          ~prot:Hw.Prot.read_write a ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make ps 'm');
      let b = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src:a ~src_off:0 ~dst:b
        ~dst_off:0 ~size:(2 * ps) ();
      let data = Core.Cache.move_back pvm a ~offset:0 ~size:ps in
      Alcotest.(check char) "moveBack returns data" 'm' (Bytes.get data 0);
      (* the cow-protected page was NOT discarded (b depends on it) *)
      Alcotest.(check char) "child still reads the original" 'm'
        (Bytes.get (Core.Cache.copy_back pvm b ~offset:0 ~size:1) 0))

(* The PVM is page-size generic: run the basic flows at 4 KB. *)
let test_alternate_page_size () =
  let ps4 = 4096 in
  let engine = Hw.Engine.create () in
  Hw.Engine.run engine (fun () ->
      let pvm =
        Core.Pvm.create ~page_size:ps4 ~frames:32 ~cost:Hw.Cost.free ~engine ()
      in
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps4)
          ~prot:Hw.Prot.read_write src ~offset:0
      in
      let _r2 =
        Core.Region.create pvm ctx ~addr:(64 * ps4) ~size:(4 * ps4)
          ~prot:Hw.Prot.read_write dst ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:(ps4 - 3) (Bytes.of_string "straddle4k");
      Alcotest.(check string) "4K straddling write" "straddle4k"
        (Bytes.to_string (Core.Pvm.read pvm ctx ~addr:(ps4 - 3) ~len:10));
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(4 * ps4) ();
      Core.Pvm.write pvm ctx ~addr:ps4 (Bytes.of_string "DIVERGE");
      Alcotest.(check string) "4K COW snapshot" "straddle4"
        (Bytes.to_string (Core.Pvm.read pvm ctx ~addr:(64 * ps4 + ps4 - 3) ~len:9));
      Check.Sanitizer.assert_ok ~label:"invariants at 4K" pvm)

(* The calibrated profile must satisfy the paper's §5.3.2
   decomposition identities. *)
let test_cost_decomposition () =
  let p = Hw.Cost.chorus_sun360 in
  let open Hw.Cost in
  (* demand zero-fill structure = 0.27 ms (fault + lookup + alloc +
     map + free at teardown) *)
  Alcotest.(check int) "zero-fill structure is 270us"
    (Hw.Sim_time.us 270)
    (p.t_fault_dispatch + p.t_map_lookup + p.t_frame_alloc + p.t_mmu_map
   + p.t_frame_free);
  Alcotest.(check int) "bcopy/bzero ratio ~1.6" 1
    (p.t_bcopy_page * 10 / p.t_bzero_page / 16);
  (* the Mach baseline must be strictly more expensive per primitive
     class the paper measures *)
  let m = Hw.Cost.mach_sun360 in
  Alcotest.(check bool) "mach region ops dearer" true
    (m.t_region_create > p.t_region_create);
  Alcotest.(check bool) "mach fault structure dearer" true
    (m.t_fault_dispatch + m.t_map_lookup + m.t_frame_alloc + m.t_mmu_map
    > p.t_fault_dispatch + p.t_map_lookup + p.t_frame_alloc + p.t_mmu_map);
  Alcotest.(check bool) "mach copy setup dearer (two shadows)" true
    (2 * m.t_tree_setup > p.t_tree_setup)

(* Inspect renders the live structures (Figure 2) and its accounting
   agrees with the frame pool. *)
let test_inspect () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(2 * ps)
          ~prot:Hw.Prot.read_write src ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make ps 'i');
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(2 * ps) ();
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      let state = Format.asprintf "%a" Core.Inspect.pp_state pvm in
      Alcotest.(check bool) "cache lines present" true (contains state "cache");
      Alcotest.(check bool) "read-protection mark shown" true
        (String.length state > 0
        && String.contains state '*');
      let ctx_view = Format.asprintf "%a" Core.Inspect.pp_context ctx in
      Alcotest.(check bool) "context view mentions the region" true
        (String.length ctx_view > 0);
      Alcotest.(check int) "frame accounting agrees"
        (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm))
        (Core.Inspect.frames_held pvm))

let tests =
  [
    Alcotest.test_case "inspect" `Quick test_inspect;
    Alcotest.test_case "alternate page size (4K)" `Quick
      test_alternate_page_size;
    Alcotest.test_case "cost decomposition identities" `Quick
      test_cost_decomposition;
    Alcotest.test_case "getWriteAccess upcall" `Quick
      test_get_write_access_upcall;
    Alcotest.test_case "region list and status" `Quick
      test_region_list_and_status;
    Alcotest.test_case "context switch" `Quick test_context_switch;
    Alcotest.test_case "cache setProtection" `Quick test_cache_set_protection;
    Alcotest.test_case "error paths" `Quick test_errors;
    Alcotest.test_case "zombie collection" `Quick test_zombie_collection;
    Alcotest.test_case "destroy scales with the dying cache" `Quick
      test_destroy_scales_with_cache;
    Alcotest.test_case "alloc: zero-fill write fault" `Quick
      test_alloc_zero_fill_fault;
    Alcotest.test_case "alloc: borrow read fault" `Quick
      test_alloc_borrow_fault;
    Alcotest.test_case "alloc: history COW write fault" `Quick
      test_alloc_cow_write_fault;
    Alcotest.test_case "alloc: borrow read fault at walk depth 4" `Quick
      test_alloc_borrow_depth;
    Alcotest.test_case "alloc: history COW write fault at walk depth 4" `Quick
      test_alloc_cow_write_depth;
    Alcotest.test_case "alloc: write to a protected source" `Quick
      test_alloc_source_write_fault;
    Alcotest.test_case "alloc: re-map of a resident page" `Quick
      test_alloc_remap_fault;
    Alcotest.test_case "alloc: 8-page per-page copy" `Quick
      test_alloc_per_page_copy;
    Alcotest.test_case "alloc: 8-page per-page copy of a history copy" `Quick
      test_alloc_per_page_copy_of_history;
    Alcotest.test_case "alloc: aligned 8-page move" `Quick test_alloc_move;
    Alcotest.test_case "alloc: unaligned 100-byte eager copy" `Quick
      test_alloc_eager_copy;
    Alcotest.test_case "probes: exact per fault kind" `Quick
      test_fault_probes;
    Alcotest.test_case "No_memory mid-path drops pins" `Quick
      test_no_memory_sequential;
    Alcotest.test_case "No_memory mid-path, 2 CPUs" `Quick
      test_no_memory_parallel;
    Alcotest.test_case "cow_release keeps a concurrent mapping" `Quick
      test_cow_release_keeps_concurrent_mapping;
    Alcotest.test_case "region destroy costs what is mapped" `Quick
      test_region_destroy_costs_what_is_mapped;
    Alcotest.test_case "copy onto a stub ancestor is eager" `Quick
      test_copy_onto_stub_ancestor_is_eager;
    Alcotest.test_case "copy-on-reference shifted" `Quick test_cor_shifted;
    Alcotest.test_case "moveBack with children" `Quick
      test_move_back_with_children;
  ]
