(* Reproduction of the paper's evaluation tables (§5.3).

   Table 6: zero-filled memory allocation — create a region, demand
   some real memory by touching pages, deallocate — for Chorus (PVM)
   and for the Mach-style shadow baseline.

   Table 7: copy-on-write — a fully allocated source region is copied
   (deferred); writes to the source force real copies; the copy is
   destroyed.

   Times are simulated milliseconds from the calibrated cost profiles;
   the numbers in parentheses are the paper's measurements on the
   Sun-3/60. *)

open Util

let region_sizes = [ kb 8; kb 256; kb 1024 ]
let row_labels = [ "8 Kb"; "256 Kb"; "1024 Kb" ]
let col_pages = [ 0; 1; 32; 128 ]
let col_labels = [ "0 Kb/0 pg"; "8 Kb/1 pg"; "256 Kb/32"; "1024 Kb/128" ]

(* Paper Table 6 (ms). *)
let paper_zero_chorus =
  [| [| Some 0.350; Some 1.50; None; None |];
     [| Some 0.352; Some 1.60; Some 36.6; None |];
     [| Some 0.390; Some 1.63; Some 37.7; Some 145.9 |] |]

let paper_zero_mach =
  [| [| Some 1.57; Some 3.12; None; None |];
     [| Some 1.81; Some 3.19; Some 46.8; None |];
     [| Some 1.89; Some 3.26; Some 47.0; Some 180.8 |] |]

(* Paper Table 7 (ms). *)
let paper_cow_chorus =
  [| [| Some 0.4; Some 2.10; None; None |];
     [| Some 0.7; Some 2.47; Some 55.7; None |];
     [| Some 2.4; Some 4.2; Some 57.2; Some 221.9 |] |]

let paper_cow_mach =
  [| [| Some 2.7; Some 4.82; None; None |];
     [| Some 2.9; Some 5.12; Some 66.4; None |];
     [| Some 3.08; Some 5.18; Some 67.0; Some 256.41 |] |]

module S = Check.Scenario

(* --- Table 6: zero-filled allocation ------------------------------ *)

let zero_fill_chorus ~size ~pages =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:600 ~engine () in
      let ctx = Core.Context.create pvm in
      mean_cycle engine (fun () ->
          S.teardown pvm (S.zero_fill pvm ctx ~size ~pages)))

let zero_fill_mach ~size ~pages =
  in_sim (fun engine ->
      let vm = Shadow.Shadow_vm.create ~frames:600 ~engine () in
      let sp = Shadow.Shadow_vm.space_create vm in
      mean_cycle engine (fun () ->
          Shadow.Shadow_vm.entry_destroy vm
            (S.mach_zero_fill vm sp ~size ~pages)))

let table6 () =
  let cell ~f ~paper ri ci =
    let size = List.nth region_sizes ri and pages = List.nth col_pages ci in
    if pages * ps > size then None
    else Some (f ~size ~pages, Option.value ~default:nan paper.(ri).(ci))
  in
  print_matrix
    ~title:
      "Table 6 -- Chorus: zero-filled memory allocation (region create, \
       demand-allocate N pages, destroy)"
    ~rows:row_labels ~cols:col_labels
    ~cell:(cell ~f:zero_fill_chorus ~paper:paper_zero_chorus);
  print_matrix ~title:"Table 6 -- Mach baseline: zero-filled memory allocation"
    ~rows:row_labels ~cols:col_labels
    ~cell:(cell ~f:zero_fill_mach ~paper:paper_zero_mach)

(* --- Table 7: copy-on-write --------------------------------------- *)

(* The source region is created and entirely allocated before the
   measurement starts. *)
let cow_chorus ~size ~pages =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:600 ~engine () in
      let ctx = Core.Context.create pvm in
      let src, _ = S.zero_fill pvm ctx ~size ~pages:(size / ps) in
      mean_cycle engine (fun () ->
          S.teardown pvm (S.diverge pvm ctx ~src ~size ~pages)))

let cow_mach ~size ~pages =
  in_sim (fun engine ->
      let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
      let sp = Shadow.Shadow_vm.space_create vm in
      let src = S.mach_zero_fill vm sp ~size ~pages:(size / ps) in
      mean_cycle engine (fun () ->
          Shadow.Shadow_vm.entry_destroy vm
            (S.mach_diverge vm sp ~src ~pages)))

let table7 () =
  let cell ~f ~paper ri ci =
    let size = List.nth region_sizes ri and pages = List.nth col_pages ci in
    if pages * ps > size then None
    else Some (f ~size ~pages, Option.value ~default:nan paper.(ri).(ci))
  in
  print_matrix
    ~title:
      "Table 7 -- Chorus: copy-on-write (deferred copy of an allocated \
       region; N source pages then really copied)"
    ~rows:row_labels ~cols:col_labels
    ~cell:(cell ~f:cow_chorus ~paper:paper_cow_chorus);
  print_matrix ~title:"Table 7 -- Mach baseline: copy-on-write"
    ~rows:row_labels ~cols:col_labels
    ~cell:(cell ~f:cow_mach ~paper:paper_cow_mach)

(* --- §5.3 preliminaries -------------------------------------------- *)

let prelim () =
  Printf.printf "\n§5.3 preliminaries (simulated, Sun-3/60 profile)\n";
  let profile = Hw.Cost.chorus_sun360 in
  Printf.printf "  bcopy of 8 Kbytes: %.2f ms   (paper: 1.40 ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bcopy_page);
  Printf.printf "  bzero of 8 Kbytes: %.2f ms   (paper: 0.87 ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bzero_page)

(* --- §5.3.2 derived overheads -------------------------------------- *)

(* Recompute the paper's formulas from our measured matrices, for
   both implementations; every value is also recorded in {!Report}
   under "derived", which diff.exe gates on. *)
let derived () =
  Printf.printf "\n§5.3.2 derived overheads (measured vs paper)\n";
  let record impl measured =
    List.iter
      (fun (i, name, paper) ->
        if i = impl then
          Report.add_derived ~impl ~name ~measured:(List.assoc name measured)
            ~paper)
      S.paper_decomp
  in
  let z size pages = zero_fill_chorus ~size ~pages in
  let c size pages = cow_chorus ~size ~pages in
  let bzero = ms_of_ns Hw.Cost.chorus_sun360.Hw.Cost.t_bzero_page in
  let bcopy = ms_of_ns Hw.Cost.chorus_sun360.Hw.Cost.t_bcopy_page in
  (* simple on-demand page allocation: (t(128 pages) - t(0)) / 128 - bzero *)
  let demand =
    ((z (kb 1024) 128 -. z (kb 1024) 0) /. 128.) -. bzero
  in
  Printf.printf
    "  on-demand page allocation structure: %.3f ms/page (paper 0.27)\n"
    demand;
  (* per-page protection at deferred-copy time *)
  let protect = (c (kb 1024) 0 -. c (kb 8) 0) /. 127. in
  Printf.printf
    "  deferred-copy source protection:     %.3f ms/page (paper ~0.016)\n"
    protect;
  (* history tree setup *)
  let tree = c (kb 8) 0 -. z (kb 8) 0 -. protect in
  Printf.printf
    "  history tree management:             %.3f ms/copy (paper 0.03)\n" tree;
  (* COW resolution overhead *)
  let cow = ((c (kb 1024) 128 -. c (kb 1024) 0) /. 128.) -. bcopy in
  Printf.printf
    "  copy-on-write resolution structure:  %.3f ms/page (paper 0.31)\n" cow;
  record "chorus"
    [ ("demand-alloc", demand); ("protect", protect); ("tree-setup", tree);
      ("cow", cow) ];
  (* the same formulas over the Mach baseline's matrices (paper values
     recomputed from its Tables 6/7 cells) *)
  let zm size pages = zero_fill_mach ~size ~pages in
  let cm size pages = cow_mach ~size ~pages in
  let bzero_m = ms_of_ns Hw.Cost.mach_sun360.Hw.Cost.t_bzero_page in
  let bcopy_m = ms_of_ns Hw.Cost.mach_sun360.Hw.Cost.t_bcopy_page in
  let demand_m = ((zm (kb 1024) 128 -. zm (kb 1024) 0) /. 128.) -. bzero_m in
  let protect_m = (cm (kb 1024) 0 -. cm (kb 8) 0) /. 127. in
  let tree_m = cm (kb 8) 0 -. zm (kb 8) 0 -. protect_m in
  let cow_m = ((cm (kb 1024) 128 -. cm (kb 1024) 0) /. 128.) -. bcopy_m in
  Printf.printf
    "  Mach: demand %.3f (0.528)  protect %.4f (0.003)  shadow setup %.3f \
     (1.13)  cow %.3f (0.579)  [ms]\n"
    demand_m protect_m tree_m cow_m;
  record "mach"
    [ ("demand-alloc", demand_m); ("protect", protect_m);
      ("tree-setup", tree_m); ("cow", cow_m) ]

(* --- per-primitive attribution ------------------------------------- *)

(* The registry's decomp and its Mach twin — one 1024 Kb / 128-page
   zero-fill cycle plus one deferred-copy + COW cycle per
   implementation; the always-on metrics registry supplies
   the per-primitive counts and simulated time.  Recorded into
   {!Report} under "primitives" (informational: diff.exe warns on
   drift but does not fail). *)
let primitives () =
  let chorus_report =
    let pvms, _ = S.exec (sim_engine ()) S.decomp in
    Obs.Metrics.prim_report (Core.Pvm.metrics (List.hd pvms))
  in
  let mach_report =
    let vm = S.decomp_mach (sim_engine ()) in
    Obs.Metrics.prim_report (Shadow.Shadow_vm.metrics vm)
  in
  Printf.printf
    "\nPer-primitive attribution (1024 Kb / 128-page zero-fill + COW cycle)\n";
  let print label report =
    Printf.printf "  %s:\n" label;
    List.iter
      (fun (prim, count, ns) ->
        if count > 0 then
          Printf.printf "    %-18s %6d  %10.3f ms\n" prim count
            (ms_of_ns ns))
      report
  in
  print "chorus" chorus_report;
  print "mach" mach_report;
  Report.add_prims ~impl:"chorus" chorus_report;
  Report.add_prims ~impl:"mach" mach_report

(* --- Table 5: component sizes -------------------------------------- *)

let table5 () =
  Printf.printf
    "\nTable 5 -- component sizes (paper: C++ lines; ours: OCaml lines)\n";
  Printf.printf "  paper machine-independent: Nucleus MM 1820, PVM 1980 \
     (total 3700 lines C++, 15.3 Kb object)\n";
  Printf.printf "  paper machine-dependent:   Sun 790+150asm, PMMU 1120+30, \
     iAPX386 980+200\n\n";
  let components =
    [
      ("lib/hw (simulated machine: MMU, frames, clock)", "lib/hw");
      ("lib/core (GMI + PVM, history objects)", "lib/core");
      ("lib/shadow (Mach-style baseline)", "lib/shadow");
      ("lib/seg (segment manager, mappers)", "lib/seg");
      ("lib/nucleus (actors, IPC, rgn ops)", "lib/nucleus");
      ("lib/mix (Unix process manager, VFS)", "lib/mix");
      ("lib/dsm (distributed coherence)", "lib/dsm");
      ("lib/minimal (real-time GMI implementation)", "lib/minimal");
      ("lib/simulator (reference GMI implementation)", "lib/simulator");
      ("lib/net (network of sites)", "lib/net");
    ]
  in
  List.iter
    (fun (label, dir) ->
      match List.assoc_opt dir Loc.counts with
      | Some n -> Printf.printf "  %-50s %6d lines\n" label n
      | None -> Printf.printf "  %-50s %6s\n" label "(sources not found)")
    components
