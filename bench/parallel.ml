(* Contended fault-throughput sweep over N simulated CPUs.

   The workload is Check.Scenario's storm scaled up: many
   contexts, each demand-zero-faulting a private working set and
   reading a shared cache, workers in distinct affinity classes so
   their lanes overlap in simulated time.

   Throughput is reported in SIMULATED time, like every other section
   of this harness.  The engine models an N-CPU machine: each
   simulated CPU carries a clock, so a run's horizon is the
   list-scheduling makespan of the workload on N CPUs.  The speedup
   column is therefore fault throughput relative to the 1-CPU run —
   the uniprocessor executing the same contended workload.  The
   sequential engine is NOT that uniprocessor: as a pure discrete-event
   simulator it overlaps every runnable fibre's charges (an
   infinite-CPU idealisation), so its row reports the idealisation
   ceiling.  Host time is perfbench's to measure, not this harness's.
   What is checked hard: the observable digest of every run on
   simulated CPUs must equal the sequential digest — the oracle-twin contract holds
   at benchmark scale too. *)

let workers = 16
let pages = 256
let rounds = 2

let run_once ~domains scen =
  let engine = Util.engine ~domains () in
  let pvms, _ = Check.Scenario.exec engine scen in
  let faults =
    List.fold_left
      (fun acc pvm -> acc + (Core.Pvm.stats pvm).Core.Types.n_faults)
      0 pvms
  in
  ( faults,
    Hw.Engine.now engine,
    Check.Scenario.digest pvms,
    Hw.Engine.cpu_busy engine )

let sweep ?(domains_list = [ 1; 2; 4 ]) () =
  let scen = Check.Scenario.storm ~workers ~pages ~rounds () in
  Printf.printf
    "\nParallel fault throughput (storm: %d workers x %d pages x %d rounds)\n\
     (simulated time; speedup vs the 1-domain uniprocessor model — the \
     sequential engine row is the\n\
     infinite-CPU discrete-event idealisation and the digest oracle)\n"
    workers pages rounds;
  Printf.printf "%-12s  %10s  %10s  %14s  %8s  %s\n" "engine" "faults"
    "sim ms" "faults/sim-s" "speedup" "digest";
  let seq_faults, seq_sim, seq_digest, _ = run_once ~domains:0 scen in
  (* The uniprocessor reference is always measured, whether or not the
     requested sweep includes 1. *)
  let uni_faults, uni_sim, uni_digest, uni_busy = run_once ~domains:1 scen in
  let throughput faults sim =
    float_of_int faults /. Hw.Sim_time.to_ms_float sim *. 1e3
  in
  let uni_tp = throughput uni_faults uni_sim in
  let row label faults sim digest_ok =
    Printf.printf "%-12s  %10d  %10.1f  %14.0f  %7.2fx  %s\n" label faults
      (Hw.Sim_time.to_ms_float sim)
      (throughput faults sim)
      (throughput faults sim /. uni_tp)
      (if digest_ok then "ok" else "DIVERGED")
  in
  row "sequential" seq_faults seq_sim true;
  let diverged = ref false in
  (* Per-CPU utilization of each parallel run against its makespan,
     printed after the throughput table (collected in sweep order). *)
  let utilizations = ref [] in
  let emit domains faults sim digest busy =
    let ok = String.equal digest seq_digest in
    if not ok then diverged := true;
    row (Printf.sprintf "%d domain(s)" domains) faults sim ok;
    utilizations := (domains, busy, sim) :: !utilizations
  in
  emit 1 uni_faults uni_sim uni_digest uni_busy;
  List.iter
    (fun domains ->
      if domains <> 1 then begin
        let faults, sim, digest, busy = run_once ~domains scen in
        emit domains faults sim digest busy
      end)
    domains_list;
  List.iter
    (fun (domains, busy, sim) ->
      Format.printf "\n%d domain(s):@\n%a" domains
        (fun ppf () -> Obs.Profile.pp_utilization ppf ~busy ~makespan:sim)
        ())
    (List.rev !utilizations);
  if !diverged then begin
    Printf.eprintf
      "bench parallel: a parallel run diverged from the sequential digest\n";
    exit 1
  end
