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

(* The PVM under the sanitizer.  The structural sweep runs after every
   engine event, as the checkers' slow mode does; the strict sweeps run
   only after each step, since a strict sweep mid-fault sees frames in
   flight.  The sweeps charge nothing, so they do not perturb the
   measured cell. *)
module Swept = struct
  include S.Chorus

  let sweeps = ref 0

  let create ~frames engine =
    let ((pvm, _) as vm) = create ~frames engine in
    sweeps := 0;
    Hw.Engine.set_event_hook engine (fun () ->
        incr sweeps;
        Check.Sanitizer.assert_ok ~strict:false ~label:"per-event sweep" pvm);
    vm

  let zero_fill ((pvm, _) as vm) ~size ~pages =
    let made = zero_fill vm ~size ~pages in
    Check.Sanitizer.assert_ok ~label:"zero_fill" pvm;
    made

  let diverge ((pvm, _) as vm) ~src ~size ~pages =
    let made = diverge vm ~src ~size ~pages in
    Check.Sanitizer.assert_ok ~label:"diverge" pvm;
    made

  let teardown ((pvm, _) as vm) made =
    teardown vm made;
    Check.Sanitizer.assert_ok ~label:"teardown" pvm;
    if !sweeps = 0 then Alcotest.fail "the per-event sweep never ran"
end

let vms : (module S.Vm) list = [ (module Swept); (module S.Mach) ]

(* Simulated ms of [cycle], run on a fresh engine after [setup]. *)
let timed setup cycle =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let ready = setup engine in
      let t0 = Hw.Engine.now engine in
      cycle ready;
      float_of_int (Hw.Engine.now engine - t0) /. 1e6)

(* One Table 6 cell: region of [size], touch [pages], destroy. *)
let zero_fill (module V : S.Vm) ~size ~pages =
  timed (V.create ~frames:600) (fun vm ->
      V.teardown vm (V.zero_fill vm ~size ~pages))

(* One Table 7 cell: source allocated outside the measurement; copy it,
   write [pages] source pages, destroy the copy. *)
let cow (module V : S.Vm) ~size ~pages =
  timed
    (fun engine ->
      let vm = V.create ~frames:900 engine in
      (vm, V.zero_fill vm ~size ~pages:(size / ps)))
    (fun (vm, src) -> V.teardown vm (V.diverge vm ~src ~size ~pages))

(* Each cell as ((region Kb, pages), tolerance), on each VM. *)
let check_cells ~table ~paper ~measure cells =
  List.iter
    (fun ((module V : S.Vm) as vm) ->
      List.iter
        (fun (((size_kb, pages) as cell), tolerance) ->
          check_close
            (Printf.sprintf "%s %s %dKb/%dpg" table V.label size_kb pages)
            ~paper:(List.assoc cell (paper vm)) ~tolerance
            (measure vm ~size:(kb size_kb) ~pages))
        cells)
    vms

let test_table6 () =
  check_cells ~table:"Table6" ~measure:zero_fill
    ~paper:(fun (module V : S.Vm) -> V.paper_table6)
    [ ((8, 0), 0.15); ((8, 1), 0.15); ((256, 32), 0.15); ((1024, 128), 0.15) ]

(* The 256 Kb / 0-page tolerance is the documented deviation of the
   Chorus cell; the Mach one shares the bound. *)
let test_table7 () =
  check_cells ~table:"Table7" ~measure:cow
    ~paper:(fun (module V : S.Vm) -> V.paper_table7)
    [
      ((8, 0), 0.15);
      ((8, 1), 0.15);
      ((256, 0), 0.40);
      ((256, 32), 0.15);
      ((1024, 128), 0.15);
    ]

(* §5.3.2 derived quantities, straight from the formulas. *)
let test_derived_overheads () =
  List.iter
    (fun ((module V : S.Vm) as vm) ->
      (* (t(1024 Kb, 128) - t(1024 Kb, 0)) / 128, less the page's bzero
         or bcopy *)
      let structure name measure fixed_ns =
        let per_page =
          (measure vm ~size:(kb 1024) ~pages:128
          -. measure vm ~size:(kb 1024) ~pages:0)
          /. 128.
        in
        check_close
          (Printf.sprintf "%s %s structure" V.label name)
          ~paper:(List.assoc name V.paper_decomp) ~tolerance:0.1
          (per_page -. (float_of_int fixed_ns /. 1e6))
      in
      structure "demand-alloc" zero_fill V.profile.Hw.Cost.t_bzero_page;
      structure "cow" cow V.profile.Hw.Cost.t_bcopy_page)
    vms

(* Structural claims: region creation is size-independent (paper:
   "only 10%" between 1 and 128 pages of span). *)
let test_region_create_size_independent () =
  let small = zero_fill (module Swept) ~size:(kb 8) ~pages:0 in
  let large = zero_fill (module Swept) ~size:(kb 1024) ~pages:0 in
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
