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
      Alcotest.(check (list string)) "invariants with zombie" []
        (Core.Pvm.check_invariant pvm);
      let rc =
        Core.Region.create pvm ctx ~addr:(16 * ps) ~size:(2 * ps)
          ~prot:Hw.Prot.read_write c ~offset:0
      in
      Alcotest.(check char) "c reads through dead b" 'a'
        (Bytes.get (Core.Pvm.read pvm ctx ~addr:(16 * ps) ~len:1) 0);
      (* c dies too: the whole hidden chain must be reclaimed *)
      Core.Region.destroy pvm rc;
      Core.Cache.destroy pvm c;
      Alcotest.(check (list string)) "invariants after collection" []
        (Core.Pvm.check_invariant pvm);
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
      Alcotest.(check (list string)) "invariants after destroy" []
        (Core.Pvm.check_invariant pvm);
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
      Alcotest.(check (list string)) "invariants" []
        (Core.Pvm.check_invariant pvm))

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
      Alcotest.(check (list string)) "invariants at 4K" []
        (Core.Pvm.check_invariant pvm))

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
    Alcotest.test_case "copy onto a stub ancestor is eager" `Quick
      test_copy_onto_stub_ancestor_is_eager;
    Alcotest.test_case "copy-on-reference shifted" `Quick test_cor_shifted;
    Alcotest.test_case "moveBack with children" `Quick
      test_move_back_with_children;
  ]
