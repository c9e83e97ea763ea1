(* Macro-benchmark: the whole stack under a Unix workload, the
   scenario registry's [make].

   A "make" process forks compiler children that exec `cc`, read their
   whole text, scribble over data and heap, pipe an "object file" back
   to make, and exit.  This exercises fork's history objects, exec's
   rgnMap/rgnInit, segment caching, demand paging, the transit segment
   and the pager in one run — the workload §5.1.5's design targets.
   Stats are reset after set-up and simulated time covers the jobs
   alone, with segment caching (retention 64) and without (0). *)

open Util

let run ~retention =
  in_sim (fun engine ->
      let site = Check.Scenario.make_setup engine ~register:ignore ~retention in
      Core.Pvm.reset_stats site.pvm;
      let elapsed = sim_time engine (fun () -> Check.Scenario.make_jobs site) in
      (elapsed, Core.Pvm.stats site.pvm))

let macro () =
  Printf.printf
    "\nMacro: make -j2, 12 compiles (fork + exec + compile + pipe + exit)\n";
  let elapsed, stats = run ~retention:64 in
  Printf.printf "  simulated time: %.1f ms\n" (ms_of_ns elapsed);
  Printf.printf
    "  faults: %d   zero-fills: %d   pages really copied: %d   pages moved \
     (IPC): %d\n"
    stats.Core.Types.n_faults stats.n_zero_fills stats.n_cow_copies
    stats.n_moved_pages;
  Printf.printf
    "  pull-ins: %d   history objects created: %d   stub resolves: %d\n"
    stats.n_pull_ins stats.n_history_created stats.n_stub_resolves;
  let forked_pages = 12 * (2 + 16 + 1) in
  Printf.printf
    "  (naive fork would have copied ~%d pages eagerly; deferred copies \
     left %d real copies)\n"
    forked_pages stats.n_cow_copies;
  let cold, _ = run ~retention:0 in
  Printf.printf "  without segment caching: %.1f ms (%.2fx slower)\n"
    (ms_of_ns cold)
    (ms_of_ns cold /. ms_of_ns elapsed)
