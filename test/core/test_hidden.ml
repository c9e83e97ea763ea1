(* Hidden caches (§4.2.5), through the public GMI only.  A destroyed
   cache that descendants still read lingers hidden: no GMI call
   accepts it any more, and it is collected as soon as no visible cache
   reads it — also when two hidden caches read each other through a
   per-page stub that [Cache.move] carried, and also when the last
   visible reader goes by a purge rather than a destroy. *)

let ps = 8192

let with_pvm f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      f (Core.Pvm.create ~frames:64 ~cost:Hw.Cost.free ~engine ()))

(* The strict sweep is clean and none of [caches] is still alive. *)
let expect_collected pvm caches =
  (match Check.Sanitizer.run pvm with
  | [] -> ()
  | vs ->
    Alcotest.failf "%d violation(s): %s" (List.length vs)
      (String.concat "; "
         (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) vs)));
  Alcotest.(check bool) "the pair is collected" false
    (List.exists (fun (c : Core.Types.cache) -> c.c_alive) caches)

(* [Scenario.orphan_pair], keeping the pair.  While it is visible,
   lookups through the cycle [move] closed terminate: [a] at page 4
   reads [b]'s written first page, as [b] does. *)
let orphan_pair pvm =
  let pair = ref [] in
  let expected = Bytes.cat (Bytes.make 8 'b') (Bytes.make (ps - 8) 'a') in
  let d =
    Check.Scenario.orphan_pair pvm ~on_cycle:(fun a b ->
        pair := [ a; b ];
        Alcotest.(check bytes) "a at page 4" expected
          (Core.Cache.copy_back pvm a ~offset:(4 * ps) ~size:ps);
        Alcotest.(check bytes) "b at page 0" expected
          (Core.Cache.copy_back pvm b ~offset:0 ~size:ps))
  in
  (!pair, d)

let test_destroy_collects_pair () =
  with_pvm (fun pvm ->
      let pair, d = orphan_pair pvm in
      Core.Cache.destroy pvm d;
      expect_collected pvm pair)

let test_purge_collects_pair () =
  with_pvm (fun pvm ->
      let pair, d = orphan_pair pvm in
      let e = Core.Cache.create pvm () in
      Core.Cache.copy pvm ~strategy:`History ~src:e ~src_off:0 ~dst:d
        ~dst_off:0 ~size:(2 * ps) ();
      expect_collected pvm pair)

(* [h], written, destroyed while its history child [v] reads it. *)
let hidden pvm =
  let h = Core.Cache.create pvm () and v = Core.Cache.create pvm () in
  Core.Cache.write_through pvm h ~offset:0 (Bytes.make ps 'h');
  Core.Cache.copy pvm ~strategy:`History ~src:h ~src_off:0 ~dst:v ~dst_off:0
    ~size:ps ();
  Core.Cache.destroy pvm h;
  (h, v)

let test_destroyed_is_not_alive () =
  with_pvm (fun pvm ->
      let h, v = hidden pvm in
      Alcotest.(check bool) "h is not alive" false (Core.Cache.is_alive h);
      Alcotest.(check bool) "v is alive" true (Core.Cache.is_alive v);
      Alcotest.(check bytes) "v still reads through h" (Bytes.make ps 'h')
        (Core.Cache.copy_back pvm v ~offset:0 ~size:ps))

(* One case per GMI call a hidden cache must refuse; the refusal leaves
   the state clean. *)
let rejects (name, error, op) =
  Alcotest.test_case ("a hidden cache refuses " ^ name) `Quick (fun () ->
      with_pvm (fun pvm ->
          let h, v = hidden pvm in
          Alcotest.check_raises name (Invalid_argument error) (fun () ->
              op pvm h v);
          Check.Sanitizer.assert_ok pvm))

let destroyed = "GMI: cache destroyed"
let page = Bytes.make ps 'x'

let rejected =
  [
    ( "copy from it",
      destroyed,
      fun pvm h v ->
        Core.Cache.copy pvm ~src:h ~src_off:0 ~dst:v ~dst_off:ps ~size:ps () );
    ( "copy onto it",
      destroyed,
      fun pvm h v ->
        Core.Cache.copy pvm ~src:v ~src_off:0 ~dst:h ~dst_off:ps ~size:ps () );
    ( "move from it",
      destroyed,
      fun pvm h v ->
        Core.Cache.move pvm ~src:h ~src_off:0 ~dst:v ~dst_off:ps ~size:ps () );
    ( "move onto it",
      destroyed,
      fun pvm h v ->
        Core.Cache.move pvm ~src:v ~src_off:0 ~dst:h ~dst_off:ps ~size:ps () );
    ( "write_through",
      destroyed,
      fun pvm h _ -> Core.Cache.write_through pvm h ~offset:0 page );
    ("fill_up", destroyed, fun pvm h _ -> Core.Cache.fill_up pvm h ~offset:0 page);
    ( "copy_back",
      destroyed,
      fun pvm h _ -> ignore (Core.Cache.copy_back pvm h ~offset:0 ~size:ps) );
    ( "move_back",
      destroyed,
      fun pvm h _ -> ignore (Core.Cache.move_back pvm h ~offset:0 ~size:ps) );
    ("sync", destroyed, fun pvm h _ -> Core.Cache.sync pvm h ~offset:0 ~size:ps);
    ("sync_all", destroyed, fun pvm h _ -> Core.Cache.sync_all pvm h);
    ("flush", destroyed, fun pvm h _ -> Core.Cache.flush pvm h ~offset:0 ~size:ps);
    ( "invalidate",
      destroyed,
      fun pvm h _ -> Core.Cache.invalidate pvm h ~offset:0 ~size:ps );
    ( "set_protection",
      destroyed,
      fun pvm h _ ->
        Core.Cache.set_protection pvm h ~offset:0 ~size:ps Hw.Prot.read_only );
    ("a second destroy", destroyed, fun pvm h _ -> Core.Cache.destroy pvm h);
    (* the message a dead cache gets from every GMI implementation *)
    ( "Region.create",
      "regionCreate: cache destroyed",
      fun pvm h _ ->
        ignore
          (Core.Region.create pvm (Core.Context.create pvm) ~addr:0 ~size:ps
             ~prot:Hw.Prot.read_write h ~offset:0) );
  ]

let tests =
  [
    Alcotest.test_case "destroying the last reader collects a move cycle"
      `Quick test_destroy_collects_pair;
    Alcotest.test_case "purging the last reader collects a move cycle" `Quick
      test_purge_collects_pair;
    Alcotest.test_case "a destroyed cache is not alive" `Quick
      test_destroyed_is_not_alive;
  ]
  @ List.map rejects rejected
