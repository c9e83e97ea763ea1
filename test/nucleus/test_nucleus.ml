(* Nucleus tests: actors, the rgn* operations, ports/IPC over the
   transit segment, and the IPC mapper protocol. *)

open Nucleus

let ps = 8192

let with_site ?(frames = 256) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let site = Site.create ~frames ~cost:Hw.Cost.free ~engine () in
      f site)

let file_store site =
  let files = Seg.Mem_mapper.create ~name:"files" () in
  let port = Site.register_mapper site (Seg.Mem_mapper.mapper files) in
  (files, port)

let test_rgn_allocate_and_free () =
  with_site (fun site ->
      let actor = Actor.create site in
      let m =
        Actor.rgn_allocate actor ~addr:0 ~size:(8 * ps)
          ~prot:Hw.Prot.read_write
      in
      Actor.write actor ~addr:100 (Bytes.of_string "hello");
      Alcotest.(check string) "anonymous memory works" "hello"
        (Bytes.to_string (Actor.read actor ~addr:100 ~len:5));
      Actor.rgn_free actor m;
      Alcotest.check_raises "freed region faults"
        (Core.Gmi.Segmentation_fault 100) (fun () ->
          Actor.touch actor ~addr:100 ~access:`Read);
      Alcotest.(check int) "frames released" 0
        (Hw.Phys_mem.used_frames (Core.Pvm.memory site.Site.pvm));
      Actor.destroy actor)

let test_rgn_map_shares_segment () =
  with_site (fun site ->
      let files, port = file_store site in
      let key =
        Seg.Mem_mapper.create_segment files
          ~initial:(Bytes.make (2 * ps) 'T')
          ()
      in
      let cap = Seg.Capability.make ~port ~key in
      let a1 = Actor.create site and a2 = Actor.create site in
      let _ =
        Actor.rgn_map a1 ~addr:0 ~size:(2 * ps) ~prot:Hw.Prot.read_write cap
          ~offset:0
      in
      let _ =
        Actor.rgn_map a2 ~addr:(16 * ps) ~size:(2 * ps)
          ~prot:Hw.Prot.read_write cap ~offset:0
      in
      Alcotest.(check char) "initial contents" 'T'
        (Bytes.get (Actor.read a1 ~addr:0 ~len:1) 0);
      (* one actor's write is visible to the other: one local cache *)
      Actor.write a1 ~addr:8 (Bytes.of_string "X");
      Alcotest.(check char) "shared local cache" 'X'
        (Bytes.get (Actor.read a2 ~addr:(16 * ps + 8) ~len:1) 0);
      Actor.destroy a1;
      Actor.destroy a2)

let test_rgn_init_is_cow () =
  with_site (fun site ->
      let files, port = file_store site in
      let key =
        Seg.Mem_mapper.create_segment files
          ~initial:(Bytes.make (4 * ps) 'D')
          ()
      in
      let cap = Seg.Capability.make ~port ~key in
      let actor = Actor.create site in
      let _ =
        Actor.rgn_init actor ~addr:0 ~size:(4 * ps) ~prot:Hw.Prot.read_write
          cap ~offset:0
      in
      Alcotest.(check char) "initialised from segment" 'D'
        (Bytes.get (Actor.read actor ~addr:(2 * ps) ~len:1) 0);
      (* writes do not reach the segment *)
      Actor.write actor ~addr:0 (Bytes.make ps 'W');
      let m = Seg.Segment_manager.mapper_of_port site.Site.segd port in
      Alcotest.(check char) "segment untouched by process writes" 'D'
        (let store, pos = m.Seg.Mapper.read ~key ~offset:0 ~size:1 in
         Bytes.get store pos);
      Actor.destroy actor)

let test_rgn_from_actor () =
  with_site (fun site ->
      let parent = Actor.create site in
      let _ =
        Actor.rgn_allocate parent ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write
      in
      Actor.write parent ~addr:0 (Bytes.of_string "shared-or-copied");
      let child = Actor.create site in
      (* shared window *)
      let _ =
        Actor.rgn_map_from_actor child ~addr:0 ~src:parent ~src_addr:0
          ~size:(2 * ps) ~prot:Hw.Prot.read_write
      in
      (* private copy *)
      let _ =
        Actor.rgn_init_from_actor child ~addr:(16 * ps) ~src:parent
          ~src_addr:0 ~size:(4 * ps) ~prot:Hw.Prot.read_write
      in
      Actor.write parent ~addr:0 (Bytes.of_string "UPDATED");
      Alcotest.(check string) "shared mapping sees parent write" "UPDATED"
        (Bytes.to_string (Actor.read child ~addr:0 ~len:7));
      Alcotest.(check string) "copied mapping keeps snapshot" "shared-"
        (Bytes.to_string (Actor.read child ~addr:(16 * ps) ~len:7));
      (* destroying the parent first must not break the child (§4.2.2) *)
      Actor.destroy parent;
      Alcotest.(check string) "child survives parent exit" "shared-or-copied"
        (Bytes.to_string (Actor.read child ~addr:(16 * ps) ~len:16));
      Actor.destroy child)

let test_ports () =
  let engine = Hw.Engine.create () in
  Hw.Engine.enable_watchdog engine ();
  let order = ref [] and report = ref "" in
  Hw.Engine.run engine (fun () ->
      let port = Port.create ~name:"test" () in
      Hw.Engine.spawn engine (fun () ->
          let m1 = Port.receive port in
          order := ("rx:" ^ m1) :: !order;
          let m2 = Port.receive port in
          order := ("rx:" ^ m2) :: !order);
      Hw.Engine.spawn engine (fun () ->
          Hw.Engine.sleep (Hw.Sim_time.ms 5);
          report := Hw.Engine.blocked_report engine;
          order := "tx:a" :: !order;
          Port.send port "a";
          Hw.Engine.sleep (Hw.Sim_time.ms 5);
          order := "tx:b" :: !order;
          Port.send port "b"));
  Alcotest.(check (list string))
    "receive blocks until send"
    [ "rx:b"; "tx:b"; "rx:a"; "tx:a" ]
    !order;
  Alcotest.(check string) "the parked receive names its port"
    "fibre 2 blocked on port:test since 0ns" !report

let test_ipc_roundtrip () =
  with_site (fun site ->
      let transit = Transit.create site ~slots:2 () in
      let sender = Actor.create site and receiver = Actor.create site in
      let _ =
        Actor.rgn_allocate sender ~addr:0 ~size:(16 * ps)
          ~prot:Hw.Prot.read_write
      in
      let _ =
        Actor.rgn_allocate receiver ~addr:0 ~size:(16 * ps)
          ~prot:Hw.Prot.read_write
      in
      let endpoint = Ipc.make_endpoint () in
      (* page-aligned 64 KB message: the fast path *)
      Actor.write sender ~addr:0 (Bytes.make (8 * ps) 'M');
      let moved_before = (Core.Pvm.stats site.Site.pvm).n_moved_pages in
      Ipc.send sender transit ~dst:endpoint ~addr:0 ~len:(8 * ps);
      let len = Ipc.receive receiver transit endpoint ~addr:0 in
      Alcotest.(check int) "full slot received" (8 * ps) len;
      Alcotest.(check string) "payload intact"
        (String.make 16 'M')
        (Bytes.to_string (Actor.read receiver ~addr:0 ~len:16));
      Alcotest.(check bool) "receive moved page frames" true
        ((Core.Pvm.stats site.Site.pvm).n_moved_pages > moved_before);
      Alcotest.(check int) "slot recycled" 2 (Transit.free_slots transit);
      (* sender's pages are untouched by the copy *)
      Alcotest.(check char) "sender kept its data" 'M'
        (Bytes.get (Actor.read sender ~addr:0 ~len:1) 0);
      (* oversized message rejected *)
      Alcotest.check_raises "64 KB limit"
        (Ipc.Message_too_big (9 * ps))
        (fun () ->
          Ipc.send sender transit ~dst:endpoint ~addr:0 ~len:(9 * ps)))

let test_ipc_slot_backpressure () =
  let engine = Hw.Engine.create () in
  let completed = ref 0 in
  Hw.Engine.run engine (fun () ->
      let site = Site.create ~frames:256 ~cost:Hw.Cost.free ~engine () in
      let transit = Transit.create site ~slots:1 () in
      let sender = Actor.create site and receiver = Actor.create site in
      let _ =
        Actor.rgn_allocate sender ~addr:0 ~size:(8 * ps)
          ~prot:Hw.Prot.read_write
      in
      let _ =
        Actor.rgn_allocate receiver ~addr:0 ~size:(8 * ps)
          ~prot:Hw.Prot.read_write
      in
      let endpoint = Ipc.make_endpoint () in
      Hw.Engine.spawn engine (fun () ->
          for _ = 1 to 3 do
            Ipc.send sender transit ~dst:endpoint ~addr:0 ~len:ps;
            incr completed
          done);
      Hw.Engine.spawn engine (fun () ->
          for _ = 1 to 3 do
            Hw.Engine.sleep (Hw.Sim_time.ms 1);
            ignore (Ipc.receive receiver transit endpoint ~addr:0)
          done));
  Alcotest.(check int) "all sends eventually complete" 3 !completed

(* Regression: receiving successive messages into the same window must
   not leave stale borrowed MMU translations from the previous
   message. *)
let test_ipc_reuse_window () =
  with_site (fun site ->
      let transit = Transit.create site ~slots:4 () in
      let sender = Actor.create site and receiver = Actor.create site in
      let _ =
        Actor.rgn_allocate sender ~addr:0 ~size:(64 * ps)
          ~prot:Hw.Prot.read_write
      in
      let _ =
        Actor.rgn_allocate receiver ~addr:0 ~size:(8 * ps)
          ~prot:Hw.Prot.read_write
      in
      let endpoint = Ipc.make_endpoint () in
      for i = 0 to 7 do
        let base = i * 8 * ps in
        Actor.write sender ~addr:base (Bytes.make ps (Char.chr (65 + i)));
        Ipc.send sender transit ~dst:endpoint ~addr:base ~len:ps;
        ignore (Ipc.receive receiver transit endpoint ~addr:0);
        (* read between receives to install borrowed mappings *)
        Alcotest.(check char)
          (Printf.sprintf "message %d visible through reused window" i)
          (Char.chr (65 + i))
          (Bytes.get (Actor.read receiver ~addr:0 ~len:1) 0)
      done)

let test_remote_mapper () =
  with_site (fun site ->
      let files = Seg.Mem_mapper.create ~name:"remote-files" () in
      let key =
        Seg.Mem_mapper.create_segment files ~initial:(Bytes.make ps 'R') ()
      in
      let server =
        Remote_mapper.serve site ~latency:(Hw.Sim_time.ms 3)
          (Seg.Mem_mapper.mapper files)
      in
      let port =
        Site.register_mapper site
          (Remote_mapper.client ~name:"remote-files" server)
      in
      let cap = Seg.Capability.make ~port ~key in
      let actor = Actor.create site in
      let _ =
        Actor.rgn_map actor ~addr:0 ~size:ps ~prot:Hw.Prot.read_write cap
          ~offset:0
      in
      let t0 = Hw.Engine.now site.Site.engine in
      Alcotest.(check char) "data served over IPC" 'R'
        (Bytes.get (Actor.read actor ~addr:0 ~len:1) 0);
      Alcotest.(check bool) "network latency accounted" true
        (Hw.Engine.now site.Site.engine - t0 >= Hw.Sim_time.ms 3);
      Alcotest.(check bool) "server saw requests" true
        (Remote_mapper.requests_served server > 0);
      Actor.destroy actor)

(* Cross-library deadlock: one fibre holds the transit segment's only
   slot (a nucleus resource) and then faults on a fragment whose
   pullIn is in flight — blocking on the core pager's synchronization
   stub; the fibre driving that pullIn is itself blocked in
   Transit.alloc waiting for the slot.  Each library declares only its
   own blocked-on edge (global_map's "transfer", transit's
   "transit-slot"); detecting the cycle requires the watchdog to chase
   the chain across both, which is exactly what the L2 discipline is
   supposed to buy. *)
let test_cross_library_deadlock () =
  let contains ~sub s =
    let n = String.length sub and l = String.length s in
    let rec go i =
      i + n <= l && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let engine = Hw.Engine.create () in
  Hw.Engine.enable_watchdog engine ();
  let diag = ref None in
  (try
     Hw.Engine.run engine (fun () ->
         let site = Site.create ~frames:64 ~cost:Hw.Cost.free ~engine () in
         let transit = Transit.create site ~slots:1 () in
         let pvm = site.Site.pvm in
         let backing =
           {
             Core.Gmi.b_name = "transit-staged";
             b_pull_in =
               (fun ~offset ~size:_ ~prot:_ ~fill_up ->
                 (* stage the incoming page through the transit
                    segment: parks while the slot pool is empty *)
                 let slot = Transit.alloc transit in
                 fill_up ~offset (Bytes.make ps 'T');
                 Transit.release transit slot);
             b_get_write_access = (fun ~offset:_ ~size:_ -> ());
             b_push_out = (fun ~offset:_ ~size:_ ~copy_back:_ -> ());
           }
         in
         let cache = Core.Cache.create pvm ~backing () in
         let ctx = Core.Context.create pvm in
         let _region =
           Core.Region.create pvm ctx ~addr:0 ~size:ps
             ~prot:Hw.Prot.read_write cache ~offset:0
         in
         Hw.Engine.spawn engine ~name:"slot-holder" (fun () ->
             let _slot = Transit.alloc transit in
             Hw.Engine.sleep (Hw.Sim_time.ms 2);
             (* faults on the in-flight fragment: parks on the sync
                stub, whose owner is the puller *)
             Core.Pvm.touch pvm ctx ~addr:0 ~access:`Read);
         Hw.Engine.spawn engine ~name:"puller" (fun () ->
             Hw.Engine.sleep (Hw.Sim_time.ms 1);
             Core.Pvm.touch pvm ctx ~addr:0 ~access:`Read));
     Alcotest.fail "deadlock was not detected"
   with Hw.Engine.Watchdog d -> diag := Some d);
  match !diag with
  | None -> Alcotest.fail "no watchdog diagnostic"
  | Some d ->
    Alcotest.(check bool) "diagnostic names the transit edge" true
      (contains ~sub:"transit-slot" d);
    Alcotest.(check bool) "diagnostic names the transfer edge" true
      (contains ~sub:"transfer" d)

let () =
  Alcotest.run "nucleus"
    [
      ( "nucleus",
        [
          Alcotest.test_case "rgnAllocate/free" `Quick
            test_rgn_allocate_and_free;
          Alcotest.test_case "rgnMap shares segment" `Quick
            test_rgn_map_shares_segment;
          Alcotest.test_case "rgnInit is COW" `Quick test_rgn_init_is_cow;
          Alcotest.test_case "rgn*FromActor" `Quick test_rgn_from_actor;
          Alcotest.test_case "ports" `Quick test_ports;
          Alcotest.test_case "IPC roundtrip" `Quick test_ipc_roundtrip;
          Alcotest.test_case "IPC slot backpressure" `Quick
            test_ipc_slot_backpressure;
          Alcotest.test_case "IPC window reuse" `Quick test_ipc_reuse_window;
          Alcotest.test_case "remote mapper over IPC" `Quick
            test_remote_mapper;
          Alcotest.test_case "cross-library deadlock detected" `Quick
            test_cross_library_deadlock;
        ] );
    ]
