(* Reproduction regression: the paper's Table 6 and Table 7 cells must
   come out of the simulation within tolerance of the published
   values, for both the PVM and the Mach baseline — so `dune runtest`
   guards the headline result, not just the plumbing.

   Tolerances are deliberately loose (15% except the documented
   Table 7 "0 copied / 256 Kb" cell; EXPERIMENTS.md discusses it):
   this is a shape check, not a calibration assertion. *)

let ps = 8192
let kb n = n * 1024

module S = Check.Scenario

let check_close name ~paper ~tolerance measured =
  let dev = Float.abs (measured -. paper) /. paper in
  if dev > tolerance then
    Alcotest.failf "%s: measured %.2f ms vs paper %.2f ms (%.0f%% off)" name
      measured paper (dev *. 100.)

(* One Chorus cell on a fresh 600-frame PVM: [cell pvm ctx] sets up
   untimed and returns the step, which is timed with the shared
   teardown.  The structural sweep runs
   after every engine event, as the checkers' slow mode does; the strict
   sweeps run only at the phase boundaries, since a strict sweep
   mid-fault sees frames in flight.  The sweeps charge nothing, so they
   do not perturb the measured cell. *)
let chorus_cell ~label cell =
  let engine = Hw.Engine.create () in
  let pvm = ref None and sweeps = ref 0 in
  Hw.Engine.set_event_hook engine (fun () ->
      Option.iter
        (fun pvm ->
          incr sweeps;
          Check.Sanitizer.assert_ok ~strict:false ~label:"per-event sweep" pvm)
        !pvm);
  let ms =
    Hw.Engine.run_fn engine (fun () ->
        let p = Core.Pvm.create ~frames:600 ~engine () in
        pvm := Some p;
        let ctx = Core.Context.create p in
        let step = cell p ctx in
        let t0 = Hw.Engine.now engine in
        let made = step () in
        Check.Sanitizer.assert_ok ~label:(label ^ " populated") p;
        S.teardown p made;
        Check.Sanitizer.assert_ok ~label:(label ^ " torn down") p;
        float_of_int (Hw.Engine.now engine - t0) /. 1e6)
  in
  if !sweeps = 0 then Alcotest.failf "%s: the per-event sweep never ran" label;
  ms

(* One Table 6 cell: region of [size], touch [pages], destroy. *)
let zero_fill_pvm ~size ~pages =
  chorus_cell ~label:"table6" (fun pvm ctx () ->
      S.zero_fill pvm ctx ~size ~pages)

let zero_fill_mach ~size ~pages =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let vm = Shadow.Shadow_vm.create ~frames:600 ~engine () in
      let sp = Shadow.Shadow_vm.space_create vm in
      let t0 = Hw.Engine.now engine in
      Shadow.Shadow_vm.entry_destroy vm (S.mach_zero_fill vm sp ~size ~pages);
      float_of_int (Hw.Engine.now engine - t0) /. 1e6)

let test_table6 () =
  List.iter
    (fun (size, pages, paper) ->
      check_close
        (Printf.sprintf "Table6 Chorus %dKb/%dpg" (size / 1024) pages)
        ~paper ~tolerance:0.15
        (zero_fill_pvm ~size ~pages))
    [
      (kb 8, 0, 0.350);
      (kb 8, 1, 1.50);
      (kb 256, 32, 36.6);
      (kb 1024, 128, 145.9);
    ];
  List.iter
    (fun (size, pages, paper) ->
      check_close
        (Printf.sprintf "Table6 Mach %dKb/%dpg" (size / 1024) pages)
        ~paper ~tolerance:0.15
        (zero_fill_mach ~size ~pages))
    [ (kb 8, 0, 1.57); (kb 8, 1, 3.12); (kb 1024, 128, 180.8) ]

(* One Table 7 cell: source allocated outside the measurement; copy it,
   write [pages] source pages, destroy the copy. *)
let cow_pvm ~size ~pages =
  chorus_cell ~label:"table7" (fun pvm ctx ->
      let src, _ = S.zero_fill pvm ctx ~size ~pages:(size / ps) in
      fun () -> S.diverge pvm ctx ~src ~size ~pages)

let test_table7 () =
  List.iter
    (fun (size, pages, paper, tolerance) ->
      check_close
        (Printf.sprintf "Table7 Chorus %dKb/%dpg" (size / 1024) pages)
        ~paper ~tolerance
        (cow_pvm ~size ~pages))
    [
      (kb 8, 0, 0.4, 0.15);
      (kb 8, 1, 2.10, 0.15);
      (kb 256, 0, 0.7, 0.40) (* documented deviation, see EXPERIMENTS.md *);
      (kb 256, 32, 55.7, 0.15);
      (kb 1024, 128, 221.9, 0.15);
    ]

(* §5.3.2 derived quantities, straight from the formulas. *)
let test_derived_overheads () =
  let bzero = 0.87 and bcopy = 1.4 in
  let demand =
    ((zero_fill_pvm ~size:(kb 1024) ~pages:128
     -. zero_fill_pvm ~size:(kb 1024) ~pages:0)
    /. 128.)
    -. bzero
  in
  check_close "on-demand allocation structure" ~paper:0.27 ~tolerance:0.1
    demand;
  let cow =
    ((cow_pvm ~size:(kb 1024) ~pages:128 -. cow_pvm ~size:(kb 1024) ~pages:0)
    /. 128.)
    -. bcopy
  in
  check_close "COW resolution structure" ~paper:0.31 ~tolerance:0.1 cow

(* Structural claims: region creation is size-independent (paper:
   "only 10%" between 1 and 128 pages of span). *)
let test_region_create_size_independent () =
  let small = zero_fill_pvm ~size:(kb 8) ~pages:0 in
  let large = zero_fill_pvm ~size:(kb 1024) ~pages:0 in
  Alcotest.(check bool)
    (Printf.sprintf "create/destroy roughly size-independent (%.2f vs %.2f)"
       small large)
    true
    (large /. small < 1.25)

let () =
  Alcotest.run "repro"
    [
      ( "paper",
        [
          Alcotest.test_case "Table 6 cells" `Quick test_table6;
          Alcotest.test_case "Table 7 cells" `Quick test_table7;
          Alcotest.test_case "derived overheads (§5.3.2)" `Quick
            test_derived_overheads;
          Alcotest.test_case "region create size-independent" `Quick
            test_region_create_size_independent;
        ] );
    ]
