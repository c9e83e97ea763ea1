(* Ablations for the design points DESIGN.md calls out, each timing
   steps of the scenario registry (the registry entry named in
   parentheses runs the same body under the checkers).

   A. §4.2.5 — history trees vs shadow chains under the fork-heavy
      shell pattern: structure counts and lookup depths ([chains]).
   B. §5.1.3 — segment caching: repeated exec of the same image with
      the retention capacity on and off ([segcache]).
   C. §4.3   — deferred-copy technique crossover: history object vs
      per-virtual-page stubs vs eager copy, by copy size ([pervpage]).
   D. §5.1.6 — IPC through the transit segment ([ipc]).
   E. §3.3.3 — DSM sharing patterns ([dsm]). *)

open Util
module S = Check.Scenario

(* --- A: chain growth under fork/exit ------------------------------- *)

let ablation_chains () =
  Printf.printf
    "\nAblation A -- fork-modify-exit x N (the shell pattern, §4.2.5)\n";
  Printf.printf
    "%6s  %28s  %28s\n" "forks" "PVM history objects" "Mach shadow chains";
  Printf.printf
    "%6s  %9s %9s %8s  %9s %9s %8s\n" "" "objects" "lookups" "sim-ms"
    "shadows" "collapses" "sim-ms";
  let size = 16 * ps in
  List.iter
    (fun n ->
      let pvm_objects, pvm_lookups, pvm_ms =
        in_sim (fun engine ->
            let pvm = Core.Pvm.create ~frames:900 ~engine () in
            let ctx = Core.Context.create pvm in
            let src, _ = S.zero_fill pvm ctx ~size ~pages:16 in
            Core.Pvm.reset_stats pvm;
            let elapsed =
              sim_time engine (fun () ->
                  for _ = 1 to n do
                    S.fork_cycle pvm ctx ~src ~size
                  done)
            in
            let stats = Core.Pvm.stats pvm in
            (stats.Core.Types.n_history_created, stats.n_tree_lookups,
             ms_of_ns elapsed))
      in
      let shadows, collapses, mach_ms =
        in_sim (fun engine ->
            let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
            let sp = Shadow.Shadow_vm.space_create vm in
            let src = S.mach_zero_fill vm sp ~size ~pages:16 in
            Shadow.Shadow_vm.reset_stats vm;
            let elapsed =
              sim_time engine (fun () ->
                  for _ = 1 to n do
                    S.mach_fork_cycle vm sp ~src
                  done)
            in
            let stats = Shadow.Shadow_vm.stats vm in
            (stats.Shadow.Shadow_vm.n_shadows_created, stats.n_collapses,
             ms_of_ns elapsed))
      in
      Printf.printf "%6d  %9d %9d %8.2f  %9d %9d %8.2f\n" n pvm_objects
        pvm_lookups pvm_ms shadows collapses mach_ms)
    [ 1; 4; 16; 64 ];
  Printf.printf
    "  (history objects: no per-fork garbage collection; Mach must \
     collapse chains)\n"

(* --- B: segment caching -------------------------------------------- *)

let exec_workload ~retention =
  in_sim (fun engine ->
      let site = S.segcache_setup engine ~register:ignore ~retention in
      let elapsed = sim_time engine (fun () -> S.exec_loop site ~execs:10) in
      (ms_of_ns elapsed, Mix.Image.mapper_reads site.images))

let ablation_segcache () =
  Printf.printf
    "\nAblation B -- segment caching on repeated exec (§5.1.3, a 'large \
     make')\n";
  let with_ms, with_reads = exec_workload ~retention:64 in
  let without_ms, without_reads = exec_workload ~retention:0 in
  Printf.printf "  retention on :  %8.2f sim-ms, %4d file-mapper reads\n"
    with_ms with_reads;
  Printf.printf "  retention off:  %8.2f sim-ms, %4d file-mapper reads\n"
    without_ms without_reads;
  Printf.printf "  speedup: %.1fx, reads avoided: %d\n"
    (without_ms /. with_ms)
    (without_reads - with_reads)

(* --- E: DSM sharing patterns --------------------------------------- *)

(* The coherence mapper of §3.3.3 behaves very differently by sharing
   pattern: read-mostly data is cheap (pages replicate), partitioned
   writers never interfere, and write-shared (ping-pong) pages pay a
   protocol round per ownership change. *)
let ablation_dsm () =
  Printf.printf
    "\nAblation E -- DSM sharing patterns (2 sites, 2 ms links, 50 rounds)\n";
  Printf.printf "%14s  %10s  %10s  %13s\n" "pattern" "sim-ms" "transfers"
    "invalidations";
  List.iter
    (fun (label, pattern) ->
      in_sim (fun engine ->
          let d =
            S.dsm_setup ~cost:Hw.Cost.free engine ~register:ignore ~pages:8
          in
          let elapsed =
            sim_time engine (fun () -> S.dsm_rounds d ~pattern ~rounds:50)
          in
          let stats = Dsm.Coherent.stats d.seg in
          Printf.printf "%14s  %10.1f  %10d  %13d\n" label (ms_of_ns elapsed)
            stats.Dsm.Coherent.page_transfers stats.invalidations))
    [
      ("read-mostly", `Read_mostly);
      ("partitioned", `Partitioned);
      ("ping-pong", `Ping_pong);
    ];
  Printf.printf
    "  (replicated readers are free after the first transfer; write \
     sharing pays a protocol round per ownership change)\n"

(* --- D: IPC transport ---------------------------------------------- *)

(* §5.1.6: an IPC send is a cache.copy into a transit slot (per-page
   deferred when alignment allows, bcopy otherwise); a receive is a
   cache.move (frame reassignment).  Compare the aligned fast path
   against byte-misaligned payloads of the same size. *)
let ablation_ipc () =
  Printf.printf
    "\nAblation D -- IPC through the transit segment (§5.1.6): send + \
     receive round\n";
  Printf.printf "%10s  %14s  %14s   (sim-ms)\n" "size" "page-aligned"
    "misaligned";
  let round ~addr ~len =
    in_sim (fun engine ->
        let p = S.ipc_setup engine ~register:ignore ~addr ~len in
        mean_cycle engine (fun () -> S.ipc_round p))
  in
  List.iter
    (fun pages ->
      let len = pages * ps in
      Printf.printf "%7d KB  %14.2f  %14.2f\n" (len / 1024)
        (round ~addr:0 ~len) (round ~addr:13 ~len))
    [ 1; 2; 4; 8 ];
  Printf.printf
    "  (aligned messages defer the send per page and move frames on \
     receive; misaligned ones are bcopy'd)\n"

(* --- C: copy-technique crossover ----------------------------------- *)

let ablation_pervpage () =
  Printf.printf
    "\nAblation C -- deferred-copy technique crossover (§4.3): copy N \
     pages, write 25%% of the copy\n";
  Printf.printf "%8s  %10s  %10s  %10s   (sim-ms)\n" "pages" "history"
    "per-page" "eager";
  let copy_once ~strategy ~pages =
    in_sim (fun engine ->
        let pvm = Core.Pvm.create ~frames:900 ~engine () in
        let ctx = Core.Context.create pvm in
        let size = pages * ps in
        let src, _ = S.zero_fill pvm ctx ~size ~pages in
        mean_cycle engine (fun () ->
            S.teardown pvm
              (S.diverge ~strategy ~writer:`Copy pvm ctx ~src ~size
                 ~pages:(max 1 (pages / 4)))))
  in
  List.iter
    (fun pages ->
      Printf.printf "%8d  %10.2f  %10.2f  %10.2f\n" pages
        (copy_once ~strategy:`History ~pages)
        (copy_once ~strategy:`Per_page ~pages)
        (copy_once ~strategy:`Eager ~pages))
    [ 1; 2; 4; 8; 16; 32; 64; 128 ];
  Printf.printf
    "  (paper: history objects for large data, per-virtual-page for small \
     IPC-sized copies)\n"
