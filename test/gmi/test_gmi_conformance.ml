(* GMI conformance: identical semantics tests run over both memory
   managers — the demand-paged PVM and the minimal real-time
   implementation — through the Gmi.S signature.  This is the paper's
   replaceability claim (§5.2): "the MM implementation is the only
   difference between these Nucleus versions". *)

let ps = 8192

module Make (M : Core.Gmi.S) = struct
  let with_mm ?(frames = 256) f =
    let engine = Hw.Engine.create () in
    Hw.Engine.run_fn engine (fun () ->
        let mm = M.create ~frames ~cost:Hw.Cost.free ~engine () in
        f mm)

  let mem_backing ?(size = 64 * ps) () =
    let store = Bytes.make size '\000' in
    ( {
        Core.Gmi.b_name = "conf-seg";
        b_pull_in =
          (fun ~offset ~size ~prot:_ ~fill_up ->
            fill_up ~offset ~pos:offset ~len:size store);
        b_get_write_access = (fun ~offset:_ ~size:_ -> ());
        b_push_out =
          (fun ~offset ~size ~copy_back ->
            Bytes.blit (copy_back ~offset ~size) 0 store offset size);
      },
      store )

  let test_zero_fill () =
    with_mm (fun mm ->
        let ctx = M.context_create mm in
        let cache = M.cache_create mm () in
        let _r =
          M.region_create mm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        Alcotest.(check bytes) "anonymous memory zero"
          (Bytes.make 64 '\000')
          (M.read mm ctx ~addr:(2 * ps) ~len:64))

  let test_write_read () =
    with_mm (fun mm ->
        let ctx = M.context_create mm in
        let cache = M.cache_create mm () in
        let _r =
          M.region_create mm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        M.write mm ctx ~addr:(ps - 7) (Bytes.of_string "straddle");
        Alcotest.(check string) "page-straddling write" "straddle"
          (Bytes.to_string (M.read mm ctx ~addr:(ps - 7) ~len:8)))

  let test_faults () =
    with_mm (fun mm ->
        let ctx = M.context_create mm in
        Alcotest.check_raises "segfault outside regions"
          (Core.Gmi.Segmentation_fault 0) (fun () ->
            M.touch mm ctx ~addr:0 ~access:`Read);
        let cache = M.cache_create mm () in
        let r =
          M.region_create mm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_only
            cache ~offset:0
        in
        M.touch mm ctx ~addr:0 ~access:`Read;
        Alcotest.check_raises "protection fault on read-only region"
          (Core.Gmi.Protection_fault 0) (fun () ->
            M.touch mm ctx ~addr:0 ~access:`Write);
        M.region_set_protection mm r Hw.Prot.read_write;
        M.touch mm ctx ~addr:0 ~access:`Write)

  let test_shared_cache () =
    with_mm (fun mm ->
        let ctx1 = M.context_create mm and ctx2 = M.context_create mm in
        let cache = M.cache_create mm () in
        let _r1 =
          M.region_create mm ctx1 ~addr:0 ~size:(2 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        let _r2 =
          M.region_create mm ctx2 ~addr:(8 * ps) ~size:(2 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        M.write mm ctx1 ~addr:5 (Bytes.of_string "shared");
        Alcotest.(check string) "one cache, two contexts" "shared"
          (Bytes.to_string (M.read mm ctx2 ~addr:(8 * ps + 5) ~len:6)))

  let test_copy_semantics () =
    List.iter
      (fun strategy ->
        with_mm (fun mm ->
            let ctx = M.context_create mm in
            let src = M.cache_create mm () in
            let dst = M.cache_create mm () in
            let _r =
              M.region_create mm ctx ~addr:0 ~size:(4 * ps)
                ~prot:Hw.Prot.read_write src ~offset:0
            in
            let _r2 =
              M.region_create mm ctx ~addr:(64 * ps) ~size:(4 * ps)
                ~prot:Hw.Prot.read_write dst ~offset:0
            in
            M.write mm ctx ~addr:0 (Bytes.make ps 'S');
            M.copy mm ~strategy ~src ~src_off:0 ~dst ~dst_off:0
              ~size:(4 * ps) ();
            (* snapshot semantics regardless of implementation *)
            M.write mm ctx ~addr:0 (Bytes.make ps 'T');
            Alcotest.(check char)
              (Format.asprintf "copy is a snapshot (%a)" Core.Gmi.pp_strategy
                 strategy)
              'S'
              (Bytes.get (M.read mm ctx ~addr:(64 * ps) ~len:1) 0);
            M.write mm ctx ~addr:(64 * ps) (Bytes.make ps 'U');
            Alcotest.(check char) "source unaffected by copy write" 'T'
              (Bytes.get (M.read mm ctx ~addr:0 ~len:1) 0)))
      [ `Auto; `Eager ]

  let test_backed_cache () =
    with_mm (fun mm ->
        let backing, store = mem_backing () in
        Bytes.blit_string "from the segment" 0 store 0 16;
        let cache = M.cache_create mm ~backing () in
        let ctx = M.context_create mm in
        let _r =
          M.region_create mm ctx ~addr:0 ~size:(2 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        Alcotest.(check string) "segment data visible" "from the segment"
          (Bytes.to_string (M.read mm ctx ~addr:0 ~len:16));
        M.write mm ctx ~addr:0 (Bytes.of_string "MODIFIED");
        M.sync mm cache ~offset:0 ~size:(2 * ps);
        Alcotest.(check string) "sync wrote back" "MODIFIED"
          (Bytes.sub_string store 0 8))

  let test_fill_copy_back () =
    with_mm (fun mm ->
        let cache = M.cache_create mm () in
        M.fill_up mm cache ~offset:0 (Bytes.make (2 * ps) 'f');
        Alcotest.(check bytes) "fillUp then copyBack"
          (Bytes.make 32 'f')
          (M.copy_back mm cache ~offset:ps ~size:32))

  (* fillUp delivers the slice it names, and refuses one that strays
     outside its buffer. *)
  let test_fill_slice () =
    with_mm (fun mm ->
        let cache = M.cache_create mm () in
        let buf =
          Bytes.concat Bytes.empty
            [ Bytes.make ps 'a'; Bytes.make ps 'b'; Bytes.make ps 'c' ]
        in
        M.fill_up mm cache ~offset:ps ~pos:ps ~len:ps buf;
        Alcotest.(check bytes) "the slice's page, at the offset"
          (Bytes.make 32 'b')
          (M.copy_back mm cache ~offset:ps ~size:32);
        let refused msg f =
          match f () with
          | () -> Alcotest.failf "%s: accepted" msg
          | exception Invalid_argument _ -> ()
        in
        refused "negative pos" (fun () ->
            M.fill_up mm cache ~offset:0 ~pos:(-ps) ~len:ps buf);
        refused "slice past the end" (fun () ->
            M.fill_up mm cache ~offset:0 ~pos:(2 * ps) ~len:(2 * ps) buf);
        refused "partial page" (fun () ->
            M.fill_up mm cache ~offset:0 ~pos:0 ~len:100 buf))

  let test_lock_no_faults () =
    with_mm (fun mm ->
        let ctx = M.context_create mm in
        let cache = M.cache_create mm () in
        let r =
          M.region_create mm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        M.region_lock mm r;
        (* every access must now succeed without going through the
           fault path: spot-check via direct writes *)
        for p = 0 to 3 do
          M.write mm ctx ~addr:(p * ps) (Bytes.of_string "L")
        done;
        M.region_unlock mm r)

  let test_region_destroy_unmaps () =
    with_mm (fun mm ->
        let ctx = M.context_create mm in
        let cache = M.cache_create mm () in
        let r =
          M.region_create mm ctx ~addr:0 ~size:ps ~prot:Hw.Prot.read_write
            cache ~offset:0
        in
        M.write mm ctx ~addr:0 (Bytes.of_string "x");
        M.region_destroy mm r;
        Alcotest.check_raises "destroyed region faults"
          (Core.Gmi.Segmentation_fault 0) (fun () ->
            M.touch mm ctx ~addr:0 ~access:`Read))

  (* Randomised oracle: write/copy sequences behave like byte
     arrays, whatever the implementation defers. *)
  let prop_oracle =
    let n_caches = 3 and n_pages = 3 in
    let gen =
      QCheck.Gen.(
        list_size (int_range 1 20)
          (frequency
             [
               ( 3,
                 map3
                   (fun c p ch -> `Write (c, p, ch))
                   (int_bound (n_caches - 1))
                   (int_bound (n_pages - 1))
                   (map Char.chr (int_range 65 90)) );
               ( 1,
                 map2
                   (fun s d ->
                     `Copy (s, if d = s then (d + 1) mod n_caches else d))
                   (int_bound (n_caches - 1))
                   (int_bound (n_caches - 1)) );
             ]))
    in
    let print ops =
      String.concat ";"
        (List.map
           (function
             | `Write (c, p, ch) -> Printf.sprintf "W(%d,%d,%c)" c p ch
             | `Copy (s, d) -> Printf.sprintf "C(%d->%d)" s d)
           ops)
    in
    QCheck.Test.make ~count:100
      ~name:(Printf.sprintf "oracle conformance: %s" M.name)
      (QCheck.make ~print gen)
      (fun ops ->
        with_mm ~frames:128 (fun mm ->
            let ctx = M.context_create mm in
            let caches = Array.init n_caches (fun _ -> M.cache_create mm ()) in
            Array.iteri
              (fun i cache ->
                ignore
                  (M.region_create mm ctx ~addr:(i * 64 * ps)
                     ~size:(n_pages * ps) ~prot:Hw.Prot.read_write cache
                     ~offset:0))
              caches;
            let model =
              Array.init n_caches (fun _ -> Bytes.make (n_pages * ps) '\000')
            in
            List.iter
              (fun op ->
                match op with
                | `Write (c, p, ch) ->
                  let data = Bytes.make 48 ch in
                  Bytes.blit data 0 model.(c) ((p * ps) + 9) 48;
                  M.write mm ctx ~addr:((c * 64 * ps) + (p * ps) + 9) data
                | `Copy (s, d) ->
                  Bytes.blit model.(s) 0 model.(d) 0 (n_pages * ps);
                  M.copy mm ~src:caches.(s) ~src_off:0 ~dst:caches.(d)
                    ~dst_off:0 ~size:(n_pages * ps) ())
              ops;
            Array.iteri
              (fun i _ ->
                let actual =
                  M.read mm ctx ~addr:(i * 64 * ps) ~len:(n_pages * ps)
                in
                if not (Bytes.equal actual model.(i)) then
                  QCheck.Test.fail_reportf "%s: cache %d diverged on [%s]"
                    M.name i (print ops))
              caches;
            true))

  let tests =
    [
      Alcotest.test_case "zero fill" `Quick test_zero_fill;
      Alcotest.test_case "write/read" `Quick test_write_read;
      Alcotest.test_case "faults" `Quick test_faults;
      Alcotest.test_case "shared cache" `Quick test_shared_cache;
      Alcotest.test_case "copy semantics" `Quick test_copy_semantics;
      Alcotest.test_case "backed cache" `Quick test_backed_cache;
      Alcotest.test_case "fillUp/copyBack" `Quick test_fill_copy_back;
      Alcotest.test_case "fillUp slice" `Quick test_fill_slice;
      Alcotest.test_case "lock: no faults" `Quick test_lock_no_faults;
      Alcotest.test_case "region destroy unmaps" `Quick
        test_region_destroy_unmaps;
      QCheck_alcotest.to_alcotest prop_oracle;
    ]
end

module Pvm_suite = Make (Core.Pvm_gmi)
module Minimal_suite = Make (Minimal.Minimal_gmi)
module Simulator_suite = Make (Simulator.Sim_gmi)

(* Real-time property specific to the minimal implementation: after
   region_create, memory is fully resident. *)
let test_minimal_is_eager () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run engine (fun () ->
      let mm =
        Minimal.Minimal_gmi.create ~frames:32 ~cost:Hw.Cost.free ~engine ()
      in
      let ctx = Minimal.Minimal_gmi.context_create mm in
      let cache = Minimal.Minimal_gmi.cache_create mm () in
      let _r =
        Minimal.Minimal_gmi.region_create mm ctx ~addr:0 ~size:(8 * ps)
          ~prot:Hw.Prot.read_write cache ~offset:0
      in
      Alcotest.(check int) "all frames resident up front" 8
        (Minimal.Minimal_gmi.frames_in_use mm))

let () =
  Alcotest.run "gmi-conformance"
    [
      ("pvm", Pvm_suite.tests);
      ("minimal", Minimal_suite.tests);
      ("simulator", Simulator_suite.tests);
      ( "minimal-specific",
        [ Alcotest.test_case "eager residency" `Quick test_minimal_is_eager ]
      );
    ]
