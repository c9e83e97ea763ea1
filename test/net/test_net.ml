(* Multi-site tests: location-transparent IPC and remote mappers
   across the simulated network. *)

let ps = 8192

let with_net ?(sites = 2) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let net = Net.Network.create ~engine () in
      let ids =
        List.init sites (fun _ ->
            let site =
              Nucleus.Site.create ~frames:128 ~cost:Hw.Cost.free ~engine ()
            in
            Net.Network.add_site net site)
      in
      f net (Array.of_list ids))

let make_actor net id =
  let site = Net.Network.site net id in
  let actor = Nucleus.Actor.create site in
  let _ =
    Nucleus.Actor.rgn_allocate actor ~addr:0 ~size:(16 * ps)
      ~prot:Hw.Prot.read_write
  in
  actor

let test_local_send_uses_fast_path () =
  with_net (fun net ids ->
      let a = make_actor net ids.(0) and b = make_actor net ids.(0) in
      let ep = Net.Network.Endpoint.create net ~home:ids.(0) () in
      Nucleus.Actor.write a ~addr:0 (Bytes.make ps 'L');
      let wire_before = Net.Network.messages_sent net in
      Net.Network.Endpoint.send net ~from_site:ids.(0) a ep ~addr:0 ~len:ps;
      let len = Net.Network.Endpoint.receive net b ep ~addr:0 in
      Alcotest.(check int) "length" ps len;
      Alcotest.(check char) "payload" 'L'
        (Bytes.get (Nucleus.Actor.read b ~addr:0 ~len:1) 0);
      Alcotest.(check int) "no wire traffic for local send" wire_before
        (Net.Network.messages_sent net))

let test_remote_send_crosses_wire () =
  with_net (fun net ids ->
      let a = make_actor net ids.(0) and b = make_actor net ids.(1) in
      let ep = Net.Network.Endpoint.create net ~home:ids.(1) () in
      Nucleus.Actor.write a ~addr:0 (Bytes.of_string "over the wire");
      let engine = (Net.Network.site net ids.(0)).Nucleus.Site.engine in
      let t0 = Hw.Engine.now engine in
      Net.Network.Endpoint.send net ~from_site:ids.(0) a ep ~addr:0 ~len:13;
      Alcotest.(check bool) "wire latency charged" true
        (Hw.Engine.now engine - t0 >= Hw.Sim_time.ms 1);
      let len = Net.Network.Endpoint.receive net b ep ~addr:100 in
      Alcotest.(check int) "length" 13 len;
      Alcotest.(check string) "payload" "over the wire"
        (Bytes.to_string (Nucleus.Actor.read b ~addr:100 ~len:13));
      Alcotest.(check int) "one wire message" 1
        (Net.Network.messages_sent net);
      Alcotest.(check int) "bytes counted" 13 (Net.Network.bytes_sent net))

let test_receive_wrong_site_rejected () =
  with_net (fun net ids ->
      let a = make_actor net ids.(0) in
      let ep = Net.Network.Endpoint.create net ~home:ids.(1) () in
      Alcotest.check_raises "receive must run at home"
        (Invalid_argument "Network: receive must run on the endpoint's home site")
        (fun () -> ignore (Net.Network.Endpoint.receive net a ep ~addr:0)))

let test_cross_site_producer_consumer () =
  let engine = Hw.Engine.create () in
  let received = ref [] in
  Hw.Engine.run engine (fun () ->
      let net = Net.Network.create ~engine () in
      let s0 =
        Net.Network.add_site net
          (Nucleus.Site.create ~frames:128 ~cost:Hw.Cost.free ~engine ())
      in
      let s1 =
        Net.Network.add_site net
          (Nucleus.Site.create ~frames:128 ~cost:Hw.Cost.free ~engine ())
      in
      let producer = make_actor net s0 and consumer = make_actor net s1 in
      let ep = Net.Network.Endpoint.create net ~home:s1 () in
      Nucleus.Actor.spawn_thread producer (fun () ->
          for i = 0 to 4 do
            Nucleus.Actor.write producer ~addr:0
              (Bytes.make 64 (Char.chr (97 + i)));
            Net.Network.Endpoint.send net ~from_site:s0 producer ep ~addr:0
              ~len:64
          done);
      Nucleus.Actor.spawn_thread consumer (fun () ->
          for _ = 0 to 4 do
            let len = Net.Network.Endpoint.receive net consumer ep ~addr:0 in
            received :=
              Bytes.get (Nucleus.Actor.read consumer ~addr:0 ~len) 0
              :: !received
          done));
  Alcotest.(check (list char)) "in-order delivery across sites"
    [ 'e'; 'd'; 'c'; 'b'; 'a' ]
    !received

(* A segment whose mapper lives on site 0, mapped and used on site 1:
   pullIn crosses the network (distributed file system shape). *)
let test_remote_mapper_cross_site () =
  with_net (fun net ids ->
      let home = ids.(0) and away = ids.(1) in
      let files = Seg.Mem_mapper.create ~name:"nfs" () in
      let key =
        Seg.Mem_mapper.create_segment files
          ~initial:(Bytes.make (2 * ps) 'N')
          ()
      in
      let remote =
        Net.Network.remote_mapper net ~home (Seg.Mem_mapper.mapper files)
          ~name:"nfs"
      in
      let away_site = Net.Network.site net away in
      let port = Nucleus.Site.register_mapper away_site remote in
      let cap = Seg.Capability.make ~port ~key in
      let actor = Nucleus.Actor.create away_site in
      let _ =
        Nucleus.Actor.rgn_map actor ~addr:0 ~size:(2 * ps)
          ~prot:Hw.Prot.read_write cap ~offset:0
      in
      let engine = away_site.Nucleus.Site.engine in
      let t0 = Hw.Engine.now engine in
      Alcotest.(check char) "remote page readable" 'N'
        (Bytes.get (Nucleus.Actor.read actor ~addr:0 ~len:1) 0);
      Alcotest.(check bool) "round trip latency paid" true
        (Hw.Engine.now engine - t0 >= Hw.Sim_time.ms 2);
      (* cached afterwards: no more wire traffic *)
      let msgs = Net.Network.messages_sent net in
      Alcotest.(check char) "second read local" 'N'
        (Bytes.get (Nucleus.Actor.read actor ~addr:4 ~len:1) 0);
      Alcotest.(check int) "no extra messages" msgs
        (Net.Network.messages_sent net);
      (* writes sync back across the wire *)
      Nucleus.Actor.write actor ~addr:0 (Bytes.of_string "DIRTY");
      Core.Cache.sync_all away_site.Nucleus.Site.pvm
        (Seg.Segment_manager.bind away_site.Nucleus.Site.segd cap);
      let home_mapper = Seg.Mem_mapper.mapper files in
      Alcotest.(check string) "data reached the home site" "DIRTY"
        (let store, pos = home_mapper.Seg.Mapper.read ~key ~offset:0 ~size:5 in
         Bytes.sub_string store pos 5))

let () =
  Alcotest.run "net"
    [
      ( "net",
        [
          Alcotest.test_case "local fast path" `Quick
            test_local_send_uses_fast_path;
          Alcotest.test_case "remote crosses wire" `Quick
            test_remote_send_crosses_wire;
          Alcotest.test_case "receive site check" `Quick
            test_receive_wrong_site_rejected;
          Alcotest.test_case "cross-site producer/consumer" `Quick
            test_cross_site_producer_consumer;
          Alcotest.test_case "remote mapper (distributed FS)" `Quick
            test_remote_mapper_cross_site;
        ] );
    ]
