(* Stress tests of the domain-aware observability layer: exact atomic
   counter totals under real multi-domain hammering, exact lock
   accounting and the spin-then-block fallback of Lockstat, merged-trace
   well-formedness after 2- and 4-domain storm runs, summed drop
   accounting across shards, sequential-vs-parallel span-count
   agreement (the oracle-twin contract extended to traces), and the
   fail-fast rejection of the serial-only checkers on a parallel
   engine. *)

(* ------------------------------------------------------------------ *)
(* Shared machinery *)

(* Run the registry's storm on a fresh engine with an enabled tracer
   attached; [domains = 0] selects the sequential engine. *)
let traced_storm ?(capacity = 262144) ~domains () =
  let tr = Obs.Trace.create ~capacity () in
  Obs.Trace.enable tr;
  let engine =
    Hw.Engine.create ?domains:(if domains = 0 then None else Some domains) ()
  in
  Hw.Engine.set_tracer engine tr;
  let pvms, _ = Check.Scenario.exec engine (Check.Scenario.storm ()) in
  (tr, engine, pvms)

let total_faults pvms =
  List.fold_left
    (fun acc pvm -> acc + (Core.Pvm.stats pvm).Core.Types.n_faults)
    0 pvms

(* ------------------------------------------------------------------ *)
(* Exact counter totals under parallel storms *)

(* The PVM's event counters are atomic cells: a parallel storm must
   report exactly the sequential total, and at least the analytic
   lower bound (one demand-zero fault per private page). *)
let test_storm_counters domains () =
  let seq =
    total_faults
      (fst (Check.Scenario.exec (Hw.Engine.create ()) (Check.Scenario.storm ())))
  in
  let _, _, pvms = traced_storm ~domains () in
  let par = total_faults pvms in
  Alcotest.(check int) "parallel faults = sequential faults" seq par;
  let floor = Check.Scenario.storm_faults ~workers:8 ~pages:16 in
  Alcotest.(check bool)
    (Printf.sprintf "faults >= %d" floor)
    true (par >= floor)

(* Hammer one metrics counter and one histogram from several real
   domains at once: totals must come out exact, not approximately. *)
let test_counter_hammer () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "hammer" in
  let h = Obs.Metrics.histogram m "hammer.lat" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.incr c;
              Obs.Metrics.observe h ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int)
    "counter total exact"
    (domains * per_domain)
    (Obs.Metrics.value c);
  let st = Obs.Metrics.histogram_stats h in
  Alcotest.(check int) "histogram count exact" (domains * per_domain) st.count;
  Alcotest.(check int) "histogram min" 1 st.Obs.Metrics.min;
  Alcotest.(check int) "histogram max" (domains * per_domain) st.Obs.Metrics.max

(* ------------------------------------------------------------------ *)
(* Lockstat: counts guarded by the lock they count *)

(* Two domains hammer one instrumented mutex, bumping a plain counter
   inside each critical section.  The Lockstat counts are plain ints
   updated under that same mutex, so at quiescence they must be exact:
   one acquisition per critical section, and no more waits than
   acquisitions. *)
let test_lockstat_hammer () =
  let st = Obs.Lockstat.create "test/hammer" and m = Mutex.create () in
  let per_domain = 50_000 and inside = ref 0 in
  let worker () =
    for _ = 1 to per_domain do
      Obs.Lockstat.lock st m;
      incr inside;
      Obs.Lockstat.unlock st m
    done
  in
  List.init 2 (fun _ -> Domain.spawn worker) |> List.iter Domain.join;
  let s = Obs.Lockstat.snapshot st in
  Alcotest.(check int) "critical sections" (2 * per_domain) !inside;
  Alcotest.(check int) "acquires exact" (2 * per_domain) s.acquires;
  Alcotest.(check bool) "waits <= acquires" true (s.waits <= s.acquires)

(* A holder keeps the lock far longer than the bounded spin, so the
   waiter's spin runs out and it falls back to blocking: it must stay
   shut out while the lock is held, get the lock once the holder lets
   go, and be counted exactly once as a wait. *)
let test_lockstat_spin_then_block () =
  let st = Obs.Lockstat.create "test/long-hold" and m = Mutex.create () in
  let held = Atomic.make false
  and release = Atomic.make false
  and trying = Atomic.make false
  and got_it = Atomic.make false in
  let rec await flag =
    if not (Atomic.get flag) then begin
      Domain.cpu_relax ();
      await flag
    end
  in
  let holder =
    Domain.spawn (fun () ->
        Obs.Lockstat.lock st m;
        Atomic.set held true;
        await release;
        Obs.Lockstat.unlock st m)
  in
  await held;
  let waiter =
    Domain.spawn (fun () ->
        Atomic.set trying true;
        Obs.Lockstat.lock st m;
        Atomic.set got_it true;
        Obs.Lockstat.unlock st m)
  in
  await trying;
  (* tens of milliseconds: orders of magnitude past the spin bound *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "waiter still shut out while held" false
    (Atomic.get got_it);
  Atomic.set release true;
  Domain.join holder;
  Domain.join waiter;
  Alcotest.(check bool) "waiter got the lock" true (Atomic.get got_it);
  Alcotest.(check int) "both acquisitions counted" 2
    (Obs.Lockstat.acquires st);
  Alcotest.(check int) "the waiter counted once" 1 (Obs.Lockstat.waits st)

(* ------------------------------------------------------------------ *)
(* Merged-trace well-formedness *)

(* After a [domains]-domain storm the merged timeline must be
   well-formed: nothing dropped at default capacity, every span
   balanced (non-negative extent inside the run's horizon), the
   per-CPU slice tracks covering exactly the simulated CPUs with
   non-overlapping, time-ordered slices. *)
let test_trace_wellformed domains () =
  let tr, engine, _ = traced_storm ~domains () in
  let makespan = Hw.Engine.now engine in
  Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped tr);
  let events = Obs.Trace.events tr in
  Alcotest.(check bool) "trace is non-empty" true (events <> []);
  let cpu_slices = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Obs.Trace.Span { cat; ts; dur; fib; _ } ->
        Alcotest.(check bool) "span begins inside run" true (ts >= 0);
        Alcotest.(check bool) "span duration non-negative" true (dur >= 0);
        Alcotest.(check bool)
          "span ends inside run" true
          (ts + dur <= makespan);
        if String.equal cat "cpu" then begin
          Alcotest.(check bool)
            "slice track is a simulated CPU" true
            (fib >= 0 && fib < domains);
          let prev = try Hashtbl.find cpu_slices fib with Not_found -> [] in
          Hashtbl.replace cpu_slices fib ((ts, dur) :: prev)
        end
      | Obs.Trace.Instant { ts; _ } | Obs.Trace.Counter { ts; _ } ->
        Alcotest.(check bool)
          "instant inside run" true
          (ts >= 0 && ts <= makespan))
    events;
  Alcotest.(check bool) "some CPU track exists" true
    (Hashtbl.length cpu_slices > 0);
  Hashtbl.iter
    (fun cpu slices ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> compare a b) (List.rev slices)
      in
      ignore
        (List.fold_left
           (fun horizon (ts, dur) ->
             Alcotest.(check bool)
               (Printf.sprintf "cpu %d slices do not overlap" cpu)
               true (ts >= horizon);
             ts + dur)
           0 sorted))
    cpu_slices

(* A deliberately tiny ring must drop events, and the merged [dropped]
   count must surface the loss (summed across the per-domain shards)
   while the surviving events still merge into complete records. *)
let test_drops_summed () =
  let tr, _, _ = traced_storm ~capacity:32 ~domains:2 () in
  Alcotest.(check bool) "drops counted" true (Obs.Trace.dropped tr > 0);
  List.iter
    (function
      | Obs.Trace.Span { dur; _ } ->
        Alcotest.(check bool) "surviving span balanced" true (dur >= 0)
      | _ -> ())
    (Obs.Trace.events tr)

(* Oracle-twin contract for traces: the storm's instrumentation spans
   are a pure function of the workload, so the sequential run and the
   1-domain parallel run must agree on the number of spans per
   (name, category) — the per-CPU slice track (category "cpu") is the
   one track that exists only on the parallel engine. *)
let test_seq_vs_par_span_counts () =
  let span_census tr =
    let tbl = Hashtbl.create 32 in
    List.iter
      (function
        | Obs.Trace.Span { name; cat; _ } when not (String.equal cat "cpu") ->
          let key = (name, cat) in
          let n = try Hashtbl.find tbl key with Not_found -> 0 in
          Hashtbl.replace tbl key (n + 1)
        | _ -> ())
      (Obs.Trace.events tr);
    List.sort compare
      (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
  in
  let tr_seq, _, _ = traced_storm ~domains:0 () in
  let tr_par, _, _ = traced_storm ~domains:1 () in
  let seq = span_census tr_seq and par = span_census tr_par in
  Alcotest.(check int) "same number of span kinds" (List.length seq)
    (List.length par);
  List.iter2
    (fun ((name, cat), n_seq) ((name', cat'), n_par) ->
      Alcotest.(check string) "span name" name name';
      Alcotest.(check string) "span category" cat cat';
      Alcotest.(check int)
        (Printf.sprintf "count of %s/%s" cat name)
        n_seq n_par)
    seq par

(* ------------------------------------------------------------------ *)
(* Fail-fast rejection of the serial-only checkers *)

(* --- order witnesses under reclaim --------------------------------- *)

(* Lockstat's witness matrix must (a) record the mm->shard nesting the
   reclaim path really performs — victim election under the mm lock
   probes the global map's shard locks — and (b) contain no pair
   outside the hierarchy chorus-lint declares in Lint.Lock_order.
   Zero-fill READ faults over a frame pool smaller than the working
   set force eviction every round; the pages stay clean, so reclaim
   needs no backing store. *)
let test_order_witnesses () =
  Obs.Lockstat.reset_witnesses ();
  Obs.Lockstat.enable_witnessing ();
  let engine = Hw.Engine.create ~domains:2 () in
  let ps = 8192 in
  let workers = 4 and pages = 16 and rounds = 3 in
  ignore
    (Hw.Engine.run_fn engine (fun () ->
         let pvm = Core.Pvm.create ~frames:(pages / 2) ~engine () in
         let ctxs =
           Array.init workers (fun _ ->
               let ctx = Core.Context.create pvm in
               let cache = Core.Cache.create pvm () in
               let _ =
                 Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
                   ~prot:Hw.Prot.read_only cache ~offset:0
               in
               ctx)
         in
         for w = 0 to workers - 1 do
           Hw.Engine.spawn engine
             ~name:(Printf.sprintf "witness-%d" w)
             ~affinity:(w + 1)
             (fun () ->
               for r = 0 to rounds - 1 do
                 for i = 0 to pages - 1 do
                   let p = (i + w + r) mod pages in
                   ignore (Core.Pvm.read pvm ctxs.(w) ~addr:(p * ps) ~len:8)
                 done
               done)
         done;
         [ pvm ]));
  Obs.Lockstat.disable_witnessing ();
  let pairs = Obs.Lockstat.witness_pairs () in
  List.iter
    (fun (h, a, n) ->
      let ok =
        match (Lint.Lock_order.of_name h, Lint.Lock_order.of_name a) with
        | Some held, Some acq -> Lint.Lock_order.allows ~held ~acq
        | _ -> false
      in
      if not ok then
        Alcotest.failf
          "witnessed %s-while-holding-%s (%d time(s)), outside the declared \
           hierarchy"
          a h n)
    pairs;
  Alcotest.(check bool)
    "reclaim nests a shard probe under the mm lock" true
    (List.exists (fun (h, a, _) -> h = "mm" && a = "shard") pairs)

let rejects what f =
  match f () with
  | () -> Alcotest.failf "%s accepted on the parallel engine" what
  | exception Invalid_argument _ -> ()

let test_fail_fast () =
  let engine = Hw.Engine.create ~domains:2 () in
  rejects "set_scheduler" (fun () ->
      Hw.Engine.set_scheduler engine Hw.Engine.fifo_scheduler);
  rejects "enable_watchdog" (fun () -> Hw.Engine.enable_watchdog engine ())

let () =
  Alcotest.run "obs-domains"
    [
      ( "counters",
        [
          Alcotest.test_case "storm totals exact (2 domains)" `Quick
            (test_storm_counters 2);
          Alcotest.test_case "storm totals exact (4 domains)" `Quick
            (test_storm_counters 4);
          Alcotest.test_case "multi-domain hammer exact" `Quick
            test_counter_hammer;
        ] );
      ( "lockstat",
        [
          Alcotest.test_case "2-domain lock hammer exact" `Quick
            test_lockstat_hammer;
          Alcotest.test_case "long hold: spin, then block" `Quick
            test_lockstat_spin_then_block;
        ] );
      ( "merged-trace",
        [
          Alcotest.test_case "well-formed (2 domains)" `Quick
            (test_trace_wellformed 2);
          Alcotest.test_case "well-formed (4 domains)" `Quick
            (test_trace_wellformed 4);
          Alcotest.test_case "drops summed across shards" `Quick
            test_drops_summed;
          Alcotest.test_case "sequential vs 1-domain span counts" `Quick
            test_seq_vs_par_span_counts;
        ] );
      ( "order-witnesses",
        [
          Alcotest.test_case "reclaim storm stays inside the hierarchy"
            `Quick test_order_witnesses;
        ] );
      ( "fail-fast",
        [
          Alcotest.test_case "serial-only checkers rejected" `Quick
            test_fail_fast;
        ] );
    ]
