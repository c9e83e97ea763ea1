(* Segment-manager tests: capability binding, reference counting,
   retention (segment caching), swap via the default mapper, mapper
   device latency. *)

open Seg

let ps = 8192

let with_env ?(frames = 64) ?(retention_capacity = 4) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      let segd =
        Segment_manager.create ~retention_capacity ~pvm ~default_mapper_port:0
          ()
      in
      let store = Mem_mapper.create ~name:"store" () in
      let port = Segment_manager.register_mapper segd (Mem_mapper.mapper store) in
      Alcotest.(check int) "default mapper gets the expected port" 0 port;
      f ~engine ~pvm ~segd ~store ~port)

(* A mapper read as a fresh copy of the range. *)
let read_range (m : Mapper.t) ~key ~offset ~size =
  let store, pos = m.read ~key ~offset ~size in
  Bytes.sub store pos size

let test_capabilities () =
  let c1 = Capability.mint ~port:3 and c2 = Capability.mint ~port:3 in
  Alcotest.(check bool) "keys are unguessable/distinct" false
    (Capability.equal c1 c2);
  Alcotest.(check bool) "self equal" true (Capability.equal c1 c1);
  Alcotest.(check bool) "hash consistent" true
    (Capability.hash c1 = Capability.hash (Capability.make ~port:3 ~key:c1.key))

let test_bind_roundtrip () =
  with_env (fun ~engine:_ ~pvm ~segd ~store ~port ->
      let key =
        Mem_mapper.create_segment store
          ~initial:(Bytes.of_string "segment contents here") ()
      in
      let cap = Capability.make ~port ~key in
      let cache = Segment_manager.bind segd cap in
      let data = Core.Cache.copy_back pvm cache ~offset:0 ~size:16 in
      Alcotest.(check string) "mapped data pulled from mapper"
        "segment contents" (Bytes.to_string data);
      (* write through a mapping; sync pushes to the mapper *)
      let ctx = Core.Context.create pvm in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make ps 'W');
      Core.Cache.sync pvm cache ~offset:0 ~size:ps;
      Alcotest.(check bool) "mapper saw the write" true
        (Mem_mapper.writes store > 0);
      Core.Context.destroy pvm ctx;
      Segment_manager.unbind segd cap)

let test_refcounting_shares_cache () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let key = Mem_mapper.create_segment store () in
      let cap = Capability.make ~port ~key in
      let c1 = Segment_manager.bind segd cap in
      let c2 = Segment_manager.bind segd cap in
      Alcotest.(check bool) "same local cache for same capability" true
        (c1 == c2);
      Alcotest.(check int) "bind hit counted" 1
        (Segment_manager.stats segd).bind_hits;
      Segment_manager.unbind segd cap;
      Segment_manager.unbind segd cap)

let test_retention_hit () =
  with_env (fun ~engine:_ ~pvm ~segd ~store ~port ->
      let key = Mem_mapper.create_segment store () in
      let cap = Capability.make ~port ~key in
      let c1 = Segment_manager.bind segd cap in
      Core.Cache.fill_up pvm c1 ~offset:0 (Bytes.make ps 'R');
      Segment_manager.unbind segd cap;
      Alcotest.(check int) "cache retained" 1
        (Segment_manager.retained_count segd);
      let reads_before = Mem_mapper.reads store in
      let c2 = Segment_manager.bind segd cap in
      Alcotest.(check bool) "same cache revived" true (c1 == c2);
      Alcotest.(check int) "retention hit counted" 1
        (Segment_manager.stats segd).retention_hits;
      (* the data is still cached: no mapper read needed *)
      let data = Core.Cache.copy_back pvm c2 ~offset:0 ~size:4 in
      Alcotest.(check string) "cached data survives retention" "RRRR"
        (Bytes.to_string data);
      Alcotest.(check int) "no new mapper reads" reads_before
        (Mem_mapper.reads store);
      Segment_manager.unbind segd cap)

let test_retention_eviction_lru () =
  with_env ~retention_capacity:2 (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let caps =
        List.init 4 (fun _ ->
            Capability.make ~port ~key:(Mem_mapper.create_segment store ()))
      in
      List.iter (fun cap -> ignore (Segment_manager.bind segd cap)) caps;
      List.iter (fun cap -> Segment_manager.unbind segd cap) caps;
      Alcotest.(check int) "capacity enforced" 2
        (Segment_manager.retained_count segd);
      Alcotest.(check int) "evictions counted" 2
        (Segment_manager.stats segd).retention_evictions;
      (* most recently unbound survive: rebinding the last two hits *)
      let last_two = List.filteri (fun i _ -> i >= 2) caps in
      List.iter (fun cap -> ignore (Segment_manager.bind segd cap)) last_two;
      Alcotest.(check int) "LRU kept the recent ones" 2
        (Segment_manager.stats segd).retention_hits)

let test_retention_flushes_dirty_data () =
  with_env ~retention_capacity:0 (fun ~engine:_ ~pvm ~segd ~store ~port ->
      let key = Mem_mapper.create_segment store () in
      let cap = Capability.make ~port ~key in
      let ctx = Core.Context.create pvm in
      let cache = Segment_manager.bind segd cap in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 16 'd');
      Core.Context.destroy pvm ctx;
      Segment_manager.unbind segd cap;
      (* retention off: cache destroyed, but data must have been synced *)
      let m = Segment_manager.mapper_of_port segd port in
      let back = read_range m ~key ~offset:0 ~size:16 in
      Alcotest.(check string) "dirty data flushed at drop"
        (String.make 16 'd') (Bytes.to_string back))

let test_swap_allocation_via_default_mapper () =
  with_env ~frames:4 (fun ~engine:_ ~pvm ~segd ~store ~port:_ ->
      let ctx = Core.Context.create pvm in
      let cache = Segment_manager.create_temporary segd in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(16 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      let segments_before = Mem_mapper.segment_count store in
      for page = 0 to 7 do
        Core.Pvm.write pvm ctx ~addr:(page * ps)
          (Bytes.make 8 (Char.chr (65 + page)))
      done;
      Alcotest.(check int) "one swap segment allocated on first pushOut"
        (segments_before + 1)
        (Mem_mapper.segment_count store);
      Alcotest.(check int) "swap allocation recorded" 1
        (Segment_manager.stats segd).swap_segments;
      for page = 0 to 7 do
        Alcotest.(check char)
          (Printf.sprintf "page %d round-trips through swap" page)
          (Char.chr (65 + page))
          (Bytes.get (Core.Pvm.read pvm ctx ~addr:(page * ps) ~len:1) 0)
      done)

let test_device_latency_accounted () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run engine (fun () ->
      let pvm = Core.Pvm.create ~frames:16 ~cost:Hw.Cost.free ~engine () in
      let segd =
        Segment_manager.create ~pvm ~default_mapper_port:0 ()
      in
      let disk =
        Mem_mapper.create
          ~seek_time:(Hw.Sim_time.ms 8)
          ~transfer_time_per_page:(Hw.Sim_time.ms 2)
          ~name:"disk" ()
      in
      let port = Segment_manager.register_mapper segd (Mem_mapper.mapper disk) in
      let key = Mem_mapper.create_segment disk () in
      let cap = Capability.make ~port ~key in
      let ctx = Core.Context.create pvm in
      let cache = Segment_manager.bind segd cap in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_only cache ~offset:0
      in
      let t0 = Hw.Engine.now engine in
      Core.Pvm.touch pvm ctx ~addr:0 ~access:`Read;
      let elapsed = Hw.Engine.now engine - t0 in
      Alcotest.(check int) "one page fault costs seek + one transfer"
        (Hw.Sim_time.ms 10) elapsed)

let test_mapper_truncate_and_size () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let key =
        Mem_mapper.create_segment store ~initial:(Bytes.make (3 * ps) 't') ()
      in
      let m = Segment_manager.mapper_of_port segd port in
      Alcotest.(check int) "segment_size" (3 * ps)
        (m.Mapper.segment_size ~key);
      m.Mapper.truncate ~key ~size:ps;
      Alcotest.(check int) "truncated" ps (m.Mapper.segment_size ~key);
      (* reads past the end are sparse zeroes *)
      Alcotest.(check char) "sparse read beyond extent" '\000'
        (Bytes.get (read_range m ~key ~offset:(2 * ps) ~size:1) 0);
      (* writes grow it back *)
      m.Mapper.write ~key ~offset:(4 * ps) (Bytes.of_string "grow");
      Alcotest.(check int) "grown" ((4 * ps) + 4) (m.Mapper.segment_size ~key);
      m.Mapper.destroy_segment ~key;
      Alcotest.check_raises "destroyed key rejected" Mapper.Bad_capability
        (fun () -> ignore (m.Mapper.segment_size ~key)))

(* Reads straddling or past a segment's end: data up to the end, zeroes
   after it. *)
let test_mapper_read_past_end () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let key =
        Mem_mapper.create_segment store ~initial:(Bytes.make (ps + 100) 'd') ()
      in
      let m = Segment_manager.mapper_of_port segd port in
      Alcotest.(check string) "straddling the end: data, then zeroes"
        (String.make 100 'd' ^ String.make (ps - 100) '\000')
        (Bytes.to_string (read_range m ~key ~offset:ps ~size:ps));
      Alcotest.(check string) "wholly past the end: zeroes"
        (String.make ps '\000')
        (Bytes.to_string (read_range m ~key ~offset:(3 * ps) ~size:ps));
      Alcotest.(check string) "inside the segment: its data"
        (String.make 16 'd')
        (Bytes.to_string (read_range m ~key ~offset:(ps + 84) ~size:16)))

(* A pull-in copies the mapper's store range straight into the frame:
   the fault allocates no page-sized buffer of its own. *)
let test_pull_in_allocates_one_page () =
  with_env (fun ~engine:_ ~pvm ~segd ~store ~port ->
      let key =
        Mem_mapper.create_segment store ~initial:(Bytes.make (2 * ps) 'p') ()
      in
      let cache = Segment_manager.bind segd (Capability.make ~port ~key) in
      let ctx = Core.Context.create pvm in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(2 * ps)
          ~prot:Hw.Prot.read_only cache ~offset:0
      in
      (* the first fault warms the tables up *)
      Core.Pvm.touch pvm ctx ~addr:0 ~access:`Read;
      let before = Gc.allocated_bytes () in
      Core.Pvm.touch pvm ctx ~addr:ps ~access:`Read;
      let words = (Gc.allocated_bytes () -. before) /. float (Sys.word_size / 8) in
      let page_words = ps / (Sys.word_size / 8) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words for one pulled page of %d words" words
           page_words)
        true
        (words < 1.5 *. float page_words);
      Alcotest.(check string) "the frame holds the segment's data"
        (String.make ps 'p')
        (Bytes.to_string (Core.Pvm.read pvm ctx ~addr:ps ~len:ps)))

let word_bytes = float (Sys.word_size / 8)
let page_words = ps / (Sys.word_size / 8)

(* Filling a segment page by page copies O(n) bytes, not O(n^2): the
   store's capacity grows geometrically. *)
let test_mapper_store_growth () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let key = Mem_mapper.create_segment store () in
      let m = Segment_manager.mapper_of_port segd port in
      let page = Bytes.make ps 's' and pages = 64 in
      let before = Gc.allocated_bytes () in
      for i = 0 to pages - 1 do
        m.Mapper.write ~key ~offset:(i * ps) page
      done;
      let words = (Gc.allocated_bytes () -. before) /. word_bytes in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words for %d sequential page writes" words pages)
        true
        (words < float (4 * pages * page_words));
      Alcotest.(check int) "logical size" (pages * ps)
        (m.Mapper.segment_size ~key);
      Alcotest.(check string) "last page written" (Bytes.to_string page)
        (Bytes.to_string (read_range m ~key ~offset:((pages - 1) * ps) ~size:ps)))

(* Spare capacity never leaks old bytes: after a truncate, the bytes a
   later write skips over read as zeroes. *)
let test_mapper_truncate_then_extend () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store ~port ->
      let key = Mem_mapper.create_segment store () in
      let m = Segment_manager.mapper_of_port segd port in
      for i = 0 to 2 do
        m.Mapper.write ~key ~offset:(i * ps) (Bytes.make ps 'a')
      done;
      m.Mapper.truncate ~key ~size:(ps + 100);
      Alcotest.(check int) "truncated" (ps + 100) (m.Mapper.segment_size ~key);
      m.Mapper.write ~key ~offset:((3 * ps) + 50) (Bytes.of_string "tail");
      Alcotest.(check int) "extended" ((3 * ps) + 54)
        (m.Mapper.segment_size ~key);
      Alcotest.(check string) "kept bytes survive"
        (String.make (ps + 100) 'a')
        (Bytes.to_string (read_range m ~key ~offset:0 ~size:(ps + 100)));
      Alcotest.(check string) "skipped bytes read as zeroes"
        (String.make ((2 * ps) - 50) '\000')
        (Bytes.to_string
           (read_range m ~key ~offset:(ps + 100) ~size:((2 * ps) - 50)));
      Alcotest.(check string) "the write landed" "tail"
        (Bytes.to_string (read_range m ~key ~offset:((3 * ps) + 50) ~size:4)))

(* A pull-in fills its frame from a view of the mapper's store.  Here
   allocating that frame evicts a dirty page of the same segment, whose
   pushOut grows the store under the view: the pulled page must still
   hold the store's bytes as they were, and the pushed page its own. *)
let test_pull_in_during_push_out () =
  with_env ~frames:1 (fun ~engine:_ ~pvm ~segd ~store ~port ->
      let key =
        Mem_mapper.create_segment store ~initial:(Bytes.make (2 * ps) 'o') ()
      in
      let cache = Segment_manager.bind segd (Capability.make ~port ~key) in
      let ctx = Core.Context.create pvm in
      let _r =
        Core.Region.create pvm ctx ~addr:0 ~size:(3 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:(2 * ps) (Bytes.make ps 'w');
      let writes = Mem_mapper.writes store in
      Alcotest.(check string) "page 0 holds the original store bytes"
        (String.make ps 'o')
        (Bytes.to_string (Core.Pvm.read pvm ctx ~addr:0 ~len:ps));
      Alcotest.(check int) "page 2 was pushed out during the pull-in"
        (writes + 1) (Mem_mapper.writes store);
      Alcotest.(check int) "the push-out grew the store" (3 * ps)
        ((Segment_manager.mapper_of_port segd port).Mapper.segment_size ~key);
      Alcotest.(check string) "page 2 reads back its written bytes"
        (String.make ps 'w')
        (Bytes.to_string (Core.Pvm.read pvm ctx ~addr:(2 * ps) ~len:ps));
      Core.Context.destroy pvm ctx)

(* fillUp checks its slice before it allocates anything. *)
let test_fill_up_bad_slice () =
  with_env (fun ~engine:_ ~pvm ~segd:_ ~store:_ ~port:_ ->
      let cache = Core.Cache.create pvm () in
      let buf = Bytes.make (2 * ps) 'x' in
      let mem = pvm.Core.Types.mem in
      let free = Hw.Phys_mem.free_frames mem in
      let refused msg f =
        (match f () with
        | () -> Alcotest.failf "%s: accepted" msg
        | exception Invalid_argument _ -> ());
        Alcotest.(check int) (msg ^ ": no frame allocated") free
          (Hw.Phys_mem.free_frames mem)
      in
      refused "negative pos" (fun () ->
          Core.Cache.fill_up pvm cache ~offset:0 ~pos:(-1) ~len:ps buf);
      refused "pos + len past the buffer" (fun () ->
          Core.Cache.fill_up pvm cache ~offset:0 ~pos:ps ~len:(2 * ps) buf))

let test_bad_capability () =
  with_env (fun ~engine:_ ~pvm:_ ~segd ~store:_ ~port ->
      Alcotest.check_raises "unknown key rejected" Mapper.Bad_capability
        (fun () ->
          ignore (Segment_manager.bind segd (Capability.mint ~port)));
      Alcotest.check_raises "unknown port rejected" Mapper.Bad_capability
        (fun () ->
          ignore (Segment_manager.bind segd (Capability.mint ~port:99))))

let () =
  Alcotest.run "seg"
    [
      ( "seg",
        [
          Alcotest.test_case "capabilities" `Quick test_capabilities;
          Alcotest.test_case "bind roundtrip" `Quick test_bind_roundtrip;
          Alcotest.test_case "refcounting shares cache" `Quick
            test_refcounting_shares_cache;
          Alcotest.test_case "retention hit" `Quick test_retention_hit;
          Alcotest.test_case "retention eviction LRU" `Quick
            test_retention_eviction_lru;
          Alcotest.test_case "retention flushes dirty data" `Quick
            test_retention_flushes_dirty_data;
          Alcotest.test_case "swap via default mapper" `Quick
            test_swap_allocation_via_default_mapper;
          Alcotest.test_case "device latency accounted" `Quick
            test_device_latency_accounted;
          Alcotest.test_case "mapper truncate and size" `Quick
            test_mapper_truncate_and_size;
          Alcotest.test_case "mapper read past the end" `Quick
            test_mapper_read_past_end;
          Alcotest.test_case "pull-in allocates one page" `Quick
            test_pull_in_allocates_one_page;
          Alcotest.test_case "mapper store grows geometrically" `Quick
            test_mapper_store_growth;
          Alcotest.test_case "mapper truncate then extend" `Quick
            test_mapper_truncate_then_extend;
          Alcotest.test_case "pull-in during a push-out" `Quick
            test_pull_in_during_push_out;
          Alcotest.test_case "fillUp refuses a bad slice" `Quick
            test_fill_up_bad_slice;
          Alcotest.test_case "bad capability" `Quick test_bad_capability;
        ] );
    ]
