(* The reclaim queue: a resident page costs what it keeps, and victims
   are elected oldest first.

   The queue links the frames of resident pages through two int arrays,
   so installing, mapping, unmapping and removing one page, and evicting
   one, allocate the same words whatever the number of other resident
   pages.  A small page size keeps 8,192 resident pages cheap.
   [Gc.minor_words] is exact. *)

let ps = 64

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A segment that serves zeros and drops what is pushed to it: pages
   it fills are clean, so they are evicted without a pushOut. *)
let zeros =
  {
    Core.Gmi.b_name = "zeros";
    b_pull_in =
      (fun ~offset ~size ~prot:_ ~fill_up ->
        fill_up ~offset (Bytes.make size '\000'));
    b_get_write_access = (fun ~offset:_ ~size:_ -> ());
    b_push_out = (fun ~offset:_ ~size:_ ~copy_back:_ -> ());
  }

(* With [resident] clean, unmapped pages filling the pool, one in each
   of [resident] caches (so no cache's own page list grows with
   [resident]), the words of: removing the oldest page; installing,
   mapping, unmapping and removing one page; and one fault that must
   evict. *)
let resident_words ~resident =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm =
        Core.Pvm.create ~page_size:ps ~frames:resident ~cost:Hw.Cost.free
          ~engine ()
      in
      let filled =
        Array.init resident (fun _ ->
            let c = Core.Cache.create pvm ~backing:zeros () in
            Core.Cache.fill_up pvm c ~offset:0 (Bytes.make ps '\000');
            c)
      in
      let own = Core.Cache.create pvm () and ctx = Core.Context.create pvm in
      ignore
        (Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
           ~prot:Hw.Prot.read_write own ~offset:0);
      let touch p () = Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Read in
      let oldest =
        words (fun () ->
            Core.Cache.invalidate pvm filled.(0) ~offset:0 ~size:ps)
      in
      let cycle =
        words (fun () ->
            touch 0 ();
            Core.Cache.invalidate pvm own ~offset:0 ~size:ps)
      in
      touch 0 ();
      let evict = words (touch 1) in
      Alcotest.(check int)
        "one eviction" 1 (Core.Pvm.stats pvm).Core.Types.n_evictions;
      Check.Sanitizer.assert_ok pvm;
      (oldest, cycle, evict))

let test_resident_page_costs_what_it_keeps () =
  let o0, c0, e0 = resident_words ~resident:64 in
  let o, c, e = resident_words ~resident:8192 in
  List.iter
    (fun (what, w, w0) ->
      Printf.printf "%s: %.0f words (64 resident), %.0f (8192)\n" what w0 w;
      if Float.abs (w -. w0) > 8. then
        Alcotest.failf "%s allocated %.0f words with 8192 resident pages, %.0f \
                        with 64"
          what w w0)
    [
      ("removing the oldest page", o, o0);
      ("a page's install, map, unmap and remove", c, c0);
      ("a fault that evicts", e, e0);
    ]

(* Victims are the oldest evictable pages: a wired page and a page in
   transit (a sync's pushOut in progress) are passed over, and the
   queue keeps everything else in install order. *)
let test_victim_order () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pushed = ref [] and stall = ref true in
      let backing =
        {
          Core.Gmi.b_name = "log";
          b_pull_in =
            (fun ~offset ~size ~prot:_ ~fill_up ->
              fill_up ~offset (Bytes.make size '\000'));
          b_get_write_access = (fun ~offset:_ ~size:_ -> ());
          b_push_out =
            (fun ~offset ~size ~copy_back ->
              pushed := (offset / ps) :: !pushed;
              if !stall then begin
                stall := false;
                Hw.Engine.sleep (Hw.Sim_time.ms 10)
              end;
              ignore (copy_back ~offset ~size));
        }
      in
      let pvm =
        Core.Pvm.create ~page_size:ps ~frames:6 ~cost:Hw.Cost.free ~engine ()
      in
      let cache = Core.Cache.create pvm ~backing () in
      let ctx = Core.Context.create pvm in
      let wired =
        Core.Region.create pvm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
          cache ~offset:0
      in
      ignore
        (Core.Region.create pvm ctx ~addr:ps ~size:(15 * ps)
           ~prot:Hw.Prot.read_write cache ~offset:ps);
      let write p = Core.Pvm.write pvm ctx ~addr:(p * ps) (Bytes.make 8 'x') in
      for p = 0 to 5 do
        write p
      done;
      Core.Region.lock_in_memory pvm wired;
      (* page 1 goes in transit: its sync stalls inside the pushOut *)
      Hw.Engine.spawn engine ~name:"sync" (fun () ->
          Core.Cache.sync pvm cache ~offset:ps ~size:ps);
      Hw.Engine.sleep (Hw.Sim_time.us 1);
      write 6;
      write 7;
      Alcotest.(check (list int))
        "page 1 in transit, then pages 2 and 3 evicted" [ 1; 2; 3 ]
        (List.rev !pushed);
      let q = pvm.Core.Types.reclaim in
      let rec queued i acc =
        if i < 0 then List.rev acc
        else
          match pvm.Core.Types.page_of_frame.(i) with
          | Some p -> queued (Core.Reclaim.newer q i) ((p.p_offset / ps) :: acc)
          | None -> Alcotest.failf "queued frame %d holds no page" i
      in
      Alcotest.(check (list int))
        "the queue, oldest first" [ 0; 1; 4; 5; 6; 7 ]
        (queued (Core.Reclaim.oldest q) []);
      Core.Region.unlock pvm wired;
      Hw.Engine.sleep (Hw.Sim_time.ms 20);
      Check.Sanitizer.assert_ok pvm)

let tests =
  [
    Alcotest.test_case "a resident page costs what it keeps" `Quick
      test_resident_page_costs_what_it_keeps;
    Alcotest.test_case "victims oldest first, wired and in transit skipped"
      `Quick test_victim_order;
  ]
