(* Reproduction of the paper's evaluation tables (§5.3).

   Table 6: zero-filled memory allocation — create a region, demand
   some real memory by touching pages, deallocate — for Chorus (PVM)
   and for the Mach-style shadow baseline.

   Table 7: copy-on-write — a fully allocated source region is copied
   (deferred); writes to the source force real copies; the copy is
   destroyed.

   Times are simulated milliseconds from the calibrated cost profiles;
   the numbers in parentheses are the paper's measurements on the
   Sun-3/60, as each memory manager's [Check.Scenario.Vm] lists them. *)

open Util

let region_sizes = [ kb 8; kb 256; kb 1024 ]
let row_labels = [ "8 Kb"; "256 Kb"; "1024 Kb" ]
let col_pages = [ 0; 1; 32; 128 ]
let col_labels = [ "0 Kb/0 pg"; "8 Kb/1 pg"; "256 Kb/32"; "1024 Kb/128" ]

module S = Check.Scenario

(* One Table 6 cell: region create, demand-allocate [pages], destroy. *)
let zero_fill (module V : S.Vm) ~size ~pages =
  in_sim (fun engine ->
      let vm = V.create ~frames:600 engine in
      mean_cycle engine (fun () -> V.teardown vm (V.zero_fill vm ~size ~pages)))

(* One Table 7 cell.  The source region is created and entirely
   allocated before the measurement starts. *)
let cow (module V : S.Vm) ~size ~pages =
  in_sim (fun engine ->
      let vm = V.create ~frames:900 engine in
      let src = V.zero_fill vm ~size ~pages:(size / ps) in
      mean_cycle engine (fun () ->
          V.teardown vm (V.diverge vm ~src ~size ~pages)))

(* One matrix per memory manager, the first titled with the cycle it
   times; a cell the paper leaves empty is not run. *)
let table ~n ~what ~cycle ~cell ~paper =
  List.iteri
    (fun i ((module V : S.Vm) as vm) ->
      print_matrix
        ~title:
          (Printf.sprintf "Table %d -- %s: %s%s" n V.label what
             (if i = 0 then cycle else ""))
        ~rows:row_labels ~cols:col_labels
        ~cell:(fun ri ci ->
          let size = List.nth region_sizes ri
          and pages = List.nth col_pages ci in
          Option.map
            (fun paper -> (cell vm ~size ~pages, paper))
            (List.assoc_opt (size / 1024, pages) (paper vm))))
    S.vms

(* --- Table 6: zero-filled allocation ------------------------------ *)

let table6 () =
  table ~n:6 ~what:"zero-filled memory allocation"
    ~cycle:" (region create, demand-allocate N pages, destroy)"
    ~cell:zero_fill
    ~paper:(fun (module V : S.Vm) -> V.paper_table6)

(* --- Table 7: copy-on-write --------------------------------------- *)

let table7 () =
  table ~n:7 ~what:"copy-on-write"
    ~cycle:
      " (deferred copy of an allocated region; N source pages then really \
       copied)"
    ~cell:cow
    ~paper:(fun (module V : S.Vm) -> V.paper_table7)

(* --- §5.3 preliminaries -------------------------------------------- *)

let prelim () =
  Printf.printf "\n§5.3 preliminaries (simulated, Sun-3/60 profile)\n";
  let profile = Hw.Cost.chorus_sun360 in
  Printf.printf "  bcopy of 8 Kbytes: %.2f ms   (paper: 1.40 ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bcopy_page);
  Printf.printf "  bzero of 8 Kbytes: %.2f ms   (paper: 0.87 ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bzero_page)

(* --- §5.3.2 derived overheads -------------------------------------- *)

(* The paper's formulas over one memory manager's measured cells. *)
let overheads ((module V : S.Vm) as vm) =
  let z size pages = zero_fill vm ~size ~pages in
  let c size pages = cow vm ~size ~pages in
  (* simple on-demand page allocation: (t(128 pages) - t(0)) / 128 - bzero *)
  let demand =
    ((z (kb 1024) 128 -. z (kb 1024) 0) /. 128.)
    -. ms_of_ns V.profile.Hw.Cost.t_bzero_page
  in
  (* per-page protection at deferred-copy time *)
  let protect = (c (kb 1024) 0 -. c (kb 8) 0) /. 127. in
  (* history tree (or shadow object) setup *)
  let tree = c (kb 8) 0 -. z (kb 8) 0 -. protect in
  (* COW resolution overhead *)
  let cow =
    ((c (kb 1024) 128 -. c (kb 1024) 0) /. 128.)
    -. ms_of_ns V.profile.Hw.Cost.t_bcopy_page
  in
  ( V.impl,
    [ ("demand-alloc", demand); ("protect", protect); ("tree-setup", tree);
      ("cow", cow) ] )

(* Every value is also recorded in {!Report} under "derived", which
   diff.exe gates on. *)
let derived () =
  Printf.printf "\n§5.3.2 derived overheads (measured vs paper)\n";
  let measured = List.map overheads S.vms in
  let v impl name = List.assoc name (List.assoc impl measured) in
  Printf.printf
    "  on-demand page allocation structure: %.3f ms/page (paper 0.27)\n"
    (v "chorus" "demand-alloc");
  Printf.printf
    "  deferred-copy source protection:     %.3f ms/page (paper ~0.016)\n"
    (v "chorus" "protect");
  Printf.printf
    "  history tree management:             %.3f ms/copy (paper 0.03)\n"
    (v "chorus" "tree-setup");
  Printf.printf
    "  copy-on-write resolution structure:  %.3f ms/page (paper 0.31)\n"
    (v "chorus" "cow");
  Printf.printf
    "  Mach: demand %.3f (0.528)  protect %.4f (0.003)  shadow setup %.3f \
     (1.13)  cow %.3f (0.579)  [ms]\n"
    (v "mach" "demand-alloc") (v "mach" "protect") (v "mach" "tree-setup")
    (v "mach" "cow");
  List.iter
    (fun (module V : S.Vm) ->
      List.iter
        (fun (name, paper) ->
          Report.add_derived ~impl:V.impl ~name ~measured:(v V.impl name)
            ~paper)
        V.paper_decomp)
    S.vms

(* --- per-primitive attribution ------------------------------------- *)

(* {!S.decomp}'s steps on each memory manager — one 1024 Kb / 128-page
   zero-fill cycle plus one deferred-copy + COW cycle; the always-on
   metrics registry supplies the per-primitive counts and simulated
   time.  Recorded into {!Report} under "primitives" (informational:
   diff.exe warns on drift but does not fail). *)
let primitives () =
  Printf.printf
    "\nPer-primitive attribution (1024 Kb / 128-page zero-fill + COW cycle)\n";
  List.iter
    (fun ((module V : S.Vm) as vm) ->
      let report =
        Obs.Metrics.prim_report (S.decomp_on vm (sim_engine ()))
      in
      Printf.printf "  %s:\n" V.impl;
      List.iter
        (fun (prim, count, ns) ->
          if count > 0 then
            Printf.printf "    %-18s %6d  %10.3f ms\n" prim count
              (ms_of_ns ns))
        report;
      Report.add_prims ~impl:V.impl report)
    S.vms

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
