(* History-object scenarios, directly following Figure 3 of the paper
   (§4.2), plus the successive-copy complication of §4.2.3 and the
   source-deleted-first case of §4.2.2. *)

let ps = 8192

let with_pvm ?(frames = 512) f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      f pvm)

(* A mapped view of a cache so we can "run programs" against it. *)
let map_view pvm ctx ~addr cache ~pages =
  Core.Region.create pvm ctx ~addr ~size:(pages * ps)
    ~prot:Hw.Prot.read_write cache ~offset:0

let page_bytes c = Bytes.make ps c

let write_page pvm ctx ~base ~page c =
  Core.Pvm.write pvm ctx ~addr:(base + (page * ps)) (page_bytes c)

let read_byte pvm ctx ~base ~page =
  Bytes.get (Core.Pvm.read pvm ctx ~addr:(base + (page * ps)) ~len:1) 0

let hist_copy pvm ~src ~dst ~pages =
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
    ~size:(pages * ps) ()

(* Figure 3.a: cpy1 is a copy-on-write of pages 1-3 of src.  Page 2 is
   updated in src, page 3 in cpy1.  A cache miss on page 1 in cpy1 is
   resolved by looking it up in src. *)
let test_fig3a () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy1 = Core.Cache.create pvm () in
      let src_base = 0 and cpy_base = 1024 * ps in
      let _vs = map_view pvm ctx ~addr:src_base src ~pages:4 in
      let _vc = map_view pvm ctx ~addr:cpy_base cpy1 ~pages:4 in
      (* pages 1..3 of src hold '1' '2' '3' *)
      List.iter
        (fun (p, c) -> write_page pvm ctx ~base:src_base ~page:p c)
        [ (1, '1'); (2, '2'); (3, '3') ];
      hist_copy pvm ~src ~dst:cpy1 ~pages:4;
      Check.Sanitizer.assert_ok pvm;
      (* page 2 updated in src *)
      write_page pvm ctx ~base:src_base ~page:2 'X';
      (* page 3 updated in cpy1 *)
      write_page pvm ctx ~base:cpy_base ~page:3 'Y';
      (* cpy1 sees original page 2, its own page 3, and src's page 1 *)
      Alcotest.(check char) "cpy1 page 1 read through src" '1'
        (read_byte pvm ctx ~base:cpy_base ~page:1);
      Alcotest.(check char) "cpy1 page 2 is the original" '2'
        (read_byte pvm ctx ~base:cpy_base ~page:2);
      Alcotest.(check char) "cpy1 page 3 is its own" 'Y'
        (read_byte pvm ctx ~base:cpy_base ~page:3);
      (* src sees its own update *)
      Alcotest.(check char) "src page 2 updated" 'X'
        (read_byte pvm ctx ~base:src_base ~page:2);
      Alcotest.(check char) "src page 3 untouched" '3'
        (read_byte pvm ctx ~base:src_base ~page:3);
      Check.Sanitizer.assert_ok pvm)

(* Figure 3.b: src pages 1-3 copied to cpy1; src page 2 modified; then
   cpy1 copied to copyOfCpy1; page 3 of cpy1 modified -> copyOfCpy1
   must get a frame with the original value (taken logically from
   src). *)
let test_fig3b () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy1 = Core.Cache.create pvm () in
      let cpy1_of = Core.Cache.create pvm () in
      let b0 = 0 and b1 = 1024 * ps and b2 = 2048 * ps in
      let _ = map_view pvm ctx ~addr:b0 src ~pages:4 in
      let _ = map_view pvm ctx ~addr:b1 cpy1 ~pages:4 in
      let _ = map_view pvm ctx ~addr:b2 cpy1_of ~pages:4 in
      List.iter
        (fun (p, c) -> write_page pvm ctx ~base:b0 ~page:p c)
        [ (1, '1'); (2, '2'); (3, '3') ];
      hist_copy pvm ~src ~dst:cpy1 ~pages:4;
      write_page pvm ctx ~base:b0 ~page:2 'M';
      hist_copy pvm ~src:cpy1 ~dst:cpy1_of ~pages:4;
      Check.Sanitizer.assert_ok pvm;
      (* page 3 of cpy1 modified: copyOfCpy1 must still see '3' *)
      write_page pvm ctx ~base:b1 ~page:3 'Z';
      Alcotest.(check char) "copyOfCpy1 page 3 keeps original" '3'
        (read_byte pvm ctx ~base:b2 ~page:3);
      Alcotest.(check char) "cpy1 page 3 diverged" 'Z'
        (read_byte pvm ctx ~base:b1 ~page:3);
      (* page 1 of both copies read from src *)
      Alcotest.(check char) "cpy1 page 1 from src" '1'
        (read_byte pvm ctx ~base:b1 ~page:1);
      Alcotest.(check char) "copyOfCpy1 page 1 from src" '1'
        (read_byte pvm ctx ~base:b2 ~page:1);
      (* page 2 of copyOfCpy1 read from cpy1 (the original of src) *)
      Alcotest.(check char) "copyOfCpy1 page 2 via cpy1" '2'
        (read_byte pvm ctx ~base:b2 ~page:2);
      Check.Sanitizer.assert_ok pvm)

(* Figure 3.c: src copied twice (cpy1, cpy2); a working history object
   w1 is inserted.  Pages modified afterwards: src page 3, cpy1 page
   3, cpy2 page 4. *)
let test_fig3c () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy1 = Core.Cache.create pvm () in
      let cpy2 = Core.Cache.create pvm () in
      let b0 = 0 and b1 = 1024 * ps and b2 = 2048 * ps in
      let _ = map_view pvm ctx ~addr:b0 src ~pages:5 in
      let _ = map_view pvm ctx ~addr:b1 cpy1 ~pages:5 in
      let _ = map_view pvm ctx ~addr:b2 cpy2 ~pages:5 in
      List.iter
        (fun (p, c) -> write_page pvm ctx ~base:b0 ~page:p c)
        [ (1, '1'); (2, '2'); (3, '3'); (4, '4') ];
      hist_copy pvm ~src ~dst:cpy1 ~pages:5;
      hist_copy pvm ~src ~dst:cpy2 ~pages:5;
      Alcotest.(check int)
        "a working history object was created" 1
        (Core.Pvm.stats pvm).n_history_created;
      Check.Sanitizer.assert_ok pvm;
      write_page pvm ctx ~base:b0 ~page:3 'S';
      write_page pvm ctx ~base:b1 ~page:3 'C';
      write_page pvm ctx ~base:b2 ~page:4 'D';
      (* cpy1 and cpy2 keep the originals of everything they did not
         write *)
      Alcotest.(check char) "cpy1 page 1" '1' (read_byte pvm ctx ~base:b1 ~page:1);
      Alcotest.(check char) "cpy1 page 3 own" 'C'
        (read_byte pvm ctx ~base:b1 ~page:3);
      Alcotest.(check char) "cpy1 page 4 via src" '4'
        (read_byte pvm ctx ~base:b1 ~page:4);
      Alcotest.(check char) "cpy2 page 3 original via w1" '3'
        (read_byte pvm ctx ~base:b2 ~page:3);
      Alcotest.(check char) "cpy2 page 4 own" 'D'
        (read_byte pvm ctx ~base:b2 ~page:4);
      Alcotest.(check char) "src page 3 diverged" 'S'
        (read_byte pvm ctx ~base:b0 ~page:3);
      Check.Sanitizer.assert_ok pvm)

(* Figure 3.d: a third copy inserts a second working object. *)
let test_fig3d () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let mk () = Core.Cache.create pvm () in
      let cpy1 = mk () and cpy2 = mk () and cpy3 = mk () in
      let b0 = 0 in
      let bases = [ (cpy1, 1024 * ps); (cpy2, 2048 * ps); (cpy3, 3072 * ps) ] in
      let _ = map_view pvm ctx ~addr:b0 src ~pages:5 in
      List.iter (fun (c, b) -> ignore (map_view pvm ctx ~addr:b c ~pages:5)) bases;
      List.iter
        (fun (p, c) -> write_page pvm ctx ~base:b0 ~page:p c)
        [ (1, '1'); (2, '2'); (3, '3'); (4, '4') ];
      hist_copy pvm ~src ~dst:cpy1 ~pages:5;
      write_page pvm ctx ~base:b0 ~page:1 'a';
      hist_copy pvm ~src ~dst:cpy2 ~pages:5;
      write_page pvm ctx ~base:b0 ~page:2 'b';
      hist_copy pvm ~src ~dst:cpy3 ~pages:5;
      write_page pvm ctx ~base:b0 ~page:3 'c';
      Alcotest.(check int)
        "two working history objects" 2
        (Core.Pvm.stats pvm).n_history_created;
      Check.Sanitizer.assert_ok pvm;
      (* snapshots: cpy1 at t0, cpy2 after 'a', cpy3 after 'b' *)
      Alcotest.(check char) "cpy1 page1 snapshot" '1'
        (read_byte pvm ctx ~base:(List.assq cpy1 bases) ~page:1);
      Alcotest.(check char) "cpy2 page1 sees first update" 'a'
        (read_byte pvm ctx ~base:(List.assq cpy2 bases) ~page:1);
      Alcotest.(check char) "cpy2 page2 snapshot" '2'
        (read_byte pvm ctx ~base:(List.assq cpy2 bases) ~page:2);
      Alcotest.(check char) "cpy3 page2 sees second update" 'b'
        (read_byte pvm ctx ~base:(List.assq cpy3 bases) ~page:2);
      Alcotest.(check char) "cpy3 page3 snapshot" '3'
        (read_byte pvm ctx ~base:(List.assq cpy3 bases) ~page:3);
      Alcotest.(check char) "src sees all updates" 'c'
        (read_byte pvm ctx ~base:b0 ~page:3);
      Check.Sanitizer.assert_ok pvm)

(* §4.2.2: the copy deleted first (child exits) — simply discarded. *)
let test_copy_deleted_first () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy = Core.Cache.create pvm () in
      let _ = map_view pvm ctx ~addr:0 src ~pages:4 in
      let v = map_view pvm ctx ~addr:(1024 * ps) cpy ~pages:4 in
      write_page pvm ctx ~base:0 ~page:0 'o';
      hist_copy pvm ~src ~dst:cpy ~pages:4;
      write_page pvm ctx ~base:(1024 * ps) ~page:0 'n';
      Core.Region.destroy pvm v;
      Core.Cache.destroy pvm cpy;
      Check.Sanitizer.assert_ok pvm;
      (* src intact, and a write no longer pays a history push *)
      Alcotest.(check char) "src keeps its value" 'o'
        (read_byte pvm ctx ~base:0 ~page:0);
      let before = (Core.Pvm.stats pvm).n_cow_copies in
      write_page pvm ctx ~base:0 ~page:0 'p';
      Alcotest.(check int)
        "no original pushed after copy deleted" before
        (Core.Pvm.stats pvm).n_cow_copies)

(* §4.2.2: the source deleted first (parent exits while child
   continues): remaining unmodified source data must be kept until the
   copy is deleted. *)
let test_source_deleted_first () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy = Core.Cache.create pvm () in
      let vs = map_view pvm ctx ~addr:0 src ~pages:4 in
      let _vc = map_view pvm ctx ~addr:(1024 * ps) cpy ~pages:4 in
      write_page pvm ctx ~base:0 ~page:1 'k';
      hist_copy pvm ~src ~dst:cpy ~pages:4;
      Core.Region.destroy pvm vs;
      Core.Cache.destroy pvm src;
      (* child still reads the parent's data *)
      Alcotest.(check char) "child reads dead parent's data" 'k'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:1);
      Check.Sanitizer.assert_ok pvm)

(* Copy-on-reference: the copy materialises its pages on first read. *)
let test_copy_on_reference () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let cpy = Core.Cache.create pvm () in
      let _ = map_view pvm ctx ~addr:0 src ~pages:4 in
      let _ = map_view pvm ctx ~addr:(1024 * ps) cpy ~pages:4 in
      write_page pvm ctx ~base:0 ~page:0 'r';
      Core.Cache.copy pvm ~strategy:`History ~policy:`Copy_on_reference
        ~src ~src_off:0 ~dst:cpy ~dst_off:0 ~size:(4 * ps) ();
      let before = (Core.Pvm.stats pvm).n_cow_copies in
      Alcotest.(check char) "read sees source value" 'r'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:0);
      Alcotest.(check bool) "read materialised a private copy" true
        ((Core.Pvm.stats pvm).n_cow_copies > before);
      (* source divergence no longer affects the copy *)
      write_page pvm ctx ~base:0 ~page:0 's';
      Alcotest.(check char) "copy keeps its materialised value" 'r'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:0);
      Check.Sanitizer.assert_ok pvm)

(* Shifted copy (src_off <> dst_off) must still be correct: it takes
   the working-cache path. *)
let test_shifted_copy () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _ = map_view pvm ctx ~addr:0 src ~pages:8 in
      let _rd =
        Core.Region.create pvm ctx ~addr:(1024 * ps) ~size:(8 * ps)
          ~prot:Hw.Prot.read_write dst ~offset:0
      in
      write_page pvm ctx ~base:0 ~page:2 'w';
      (* copy src pages [0..4) to dst pages [4..8) *)
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
        ~dst_off:(4 * ps) ~size:(4 * ps) ();
      Check.Sanitizer.assert_ok pvm;
      Alcotest.(check char) "shifted read sees source page" 'w'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:6);
      (* divergence both sides *)
      write_page pvm ctx ~base:0 ~page:2 'W';
      Alcotest.(check char) "copy keeps snapshot after src write" 'w'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:6);
      write_page pvm ctx ~base:(1024 * ps) ~page:6 'V';
      Alcotest.(check char) "src unaffected by copy write" 'W'
        (read_byte pvm ctx ~base:0 ~page:2);
      Check.Sanitizer.assert_ok pvm)

(* Deep chains: fork-like chains of copies keep lookup correct. *)
let test_chain_of_copies () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let depth = 6 in
      let caches = Array.init depth (fun _ -> Core.Cache.create pvm ()) in
      Array.iteri
        (fun i c -> ignore (map_view pvm ctx ~addr:(i * 1024 * ps) c ~pages:2))
        caches;
      write_page pvm ctx ~base:0 ~page:0 '0';
      for i = 1 to depth - 1 do
        hist_copy pvm ~src:caches.(i - 1) ~dst:caches.(i) ~pages:2
      done;
      Check.Sanitizer.assert_ok pvm;
      (* the deepest copy still reads the root's page *)
      Alcotest.(check char) "deep chain lookup" '0'
        (read_byte pvm ctx ~base:((depth - 1) * 1024 * ps) ~page:0);
      (* each level diverges; snapshots remain intact *)
      for i = 0 to depth - 1 do
        write_page pvm ctx ~base:(i * 1024 * ps) ~page:0
          (Char.chr (Char.code 'A' + i))
      done;
      for i = 0 to depth - 1 do
        Alcotest.(check char)
          (Printf.sprintf "level %d keeps its own value" i)
          (Char.chr (Char.code 'A' + i))
          (read_byte pvm ctx ~base:(i * 1024 * ps) ~page:0)
      done;
      Check.Sanitizer.assert_ok pvm)

(* Partial-range copies at several offsets from one source: each frag
   gets its own snapshot; writes in uncopied ranges never push
   originals. *)
let test_partial_ranges () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _ = map_view pvm ctx ~addr:0 src ~pages:8 in
      let _ =
        Core.Region.create pvm ctx ~addr:(1024 * ps) ~size:(8 * ps)
          ~prot:Hw.Prot.read_write dst ~offset:0
      in
      for p = 0 to 7 do
        write_page pvm ctx ~base:0 ~page:p (Char.chr (Char.code 'a' + p))
      done;
      (* copy src pages [0..2) to dst [0..2) and src [4..6) to dst [4..6) *)
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(2 * ps) ();
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:(4 * ps) ~dst
        ~dst_off:(4 * ps) ~size:(2 * ps) ();
      Check.Sanitizer.assert_ok pvm;
      (* writes inside the copied ranges push originals; outside they
         do not *)
      let before = (Core.Pvm.stats pvm).Core.Types.n_cow_copies in
      write_page pvm ctx ~base:0 ~page:3 'X' (* uncopied *);
      Alcotest.(check int) "no original for uncopied page" before
        (Core.Pvm.stats pvm).n_cow_copies;
      write_page pvm ctx ~base:0 ~page:0 'Y' (* copied *);
      Alcotest.(check int) "original pushed for copied page" (before + 1)
        (Core.Pvm.stats pvm).n_cow_copies;
      (* the snapshots read right; dst pages outside the copies are
         its own zero-fill *)
      Alcotest.(check char) "dst page 0 snapshot" 'a'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:0);
      Alcotest.(check char) "dst page 4 snapshot" 'e'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:4);
      Alcotest.(check char) "dst page 3 is its own zero" '\000'
        (read_byte pvm ctx ~base:(1024 * ps) ~page:3);
      Check.Sanitizer.assert_ok pvm)

(* Four generations of successive copies with interleaved source
   writes: every generation keeps its own snapshot (fork of fork of
   fork with a mutating ancestor). *)
let test_generations () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let gens = 4 in
      let caches = Array.init (gens + 1) (fun _ -> Core.Cache.create pvm ()) in
      Array.iteri
        (fun i c -> ignore (map_view pvm ctx ~addr:(i * 1024 * ps) c ~pages:2))
        caches;
      write_page pvm ctx ~base:0 ~page:0 '0';
      for g = 1 to gens do
        hist_copy pvm ~src:caches.(0) ~dst:caches.(g) ~pages:2;
        (* the root mutates after each copy *)
        write_page pvm ctx ~base:0 ~page:0 (Char.chr (Char.code '0' + g))
      done;
      Check.Sanitizer.assert_ok pvm;
      (* generation g snapshot = root's value after g-1 writes *)
      for g = 1 to gens do
        Alcotest.(check char)
          (Printf.sprintf "generation %d snapshot" g)
          (Char.chr (Char.code '0' + g - 1))
          (read_byte pvm ctx ~base:(g * 1024 * ps) ~page:0)
      done;
      Alcotest.(check char) "root has the last write"
        (Char.chr (Char.code '0' + gens))
        (read_byte pvm ctx ~base:0 ~page:0);
      Alcotest.(check int)
        "working caches interposed for the repeated copies" (gens - 1)
        (Core.Pvm.stats pvm).Core.Types.n_history_created)

(* A copy onto part of a history object whose own copy still reads
   it: the purged page's old contents move to a zombie, but the history
   keeps reading its source over the other pages, so it must go on
   receiving the source's originals there.  A working cache is
   interposed that both read; the source's writes save into it. *)
let test_split_keeps_history_role () =
  with_pvm (fun pvm ->
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let dst2 = Core.Cache.create pvm () in
      let other = Core.Cache.create pvm () in
      let _ = map_view pvm ctx ~addr:0 src ~pages:4 in
      for p = 0 to 3 do
        write_page pvm ctx ~base:0 ~page:p 'a'
      done;
      Core.Cache.fill_up pvm other ~offset:0 (page_bytes 'o');
      hist_copy pvm ~src ~dst ~pages:4;
      hist_copy pvm ~src:dst ~dst:dst2 ~pages:4;
      Core.Cache.copy pvm ~src:other ~src_off:0 ~dst ~dst_off:0 ~size:ps ();
      write_page pvm ctx ~base:0 ~page:2 'W';
      let byte cache =
        Bytes.get (Core.Cache.copy_back pvm cache ~offset:(2 * ps) ~size:ps) 0
      in
      Alcotest.(check char) "dst page 2 keeps the original" 'a' (byte dst);
      Alcotest.(check char) "dst2 page 2 keeps the original" 'a' (byte dst2);
      Alcotest.(check char) "src page 2 written" 'W' (byte src);
      Alcotest.(check char) "dst page 0 copied over" 'o'
        (Bytes.get (Core.Cache.copy_back pvm dst ~offset:0 ~size:ps) 0);
      Alcotest.(check char) "dst2 page 0 keeps dst's old value" 'a'
        (Bytes.get (Core.Cache.copy_back pvm dst2 ~offset:0 ~size:ps) 0);
      Check.Sanitizer.assert_ok pvm)

let tests =
  [
    Alcotest.test_case "split keeps the history role" `Quick
      test_split_keeps_history_role;
    Alcotest.test_case "partial ranges" `Quick test_partial_ranges;
    Alcotest.test_case "generations" `Quick test_generations;
    Alcotest.test_case "figure 3.a" `Quick test_fig3a;
    Alcotest.test_case "figure 3.b" `Quick test_fig3b;
    Alcotest.test_case "figure 3.c" `Quick test_fig3c;
    Alcotest.test_case "figure 3.d" `Quick test_fig3d;
    Alcotest.test_case "copy deleted first" `Quick test_copy_deleted_first;
    Alcotest.test_case "source deleted first" `Quick test_source_deleted_first;
    Alcotest.test_case "copy-on-reference" `Quick test_copy_on_reference;
    Alcotest.test_case "shifted copy" `Quick test_shifted_copy;
    Alcotest.test_case "chain of copies" `Quick test_chain_of_copies;
  ]
