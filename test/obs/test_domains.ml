(* Observability on simulated CPUs: exact and deterministic counter
   totals after 2- and 4-CPU storm runs, trace well-formedness with
   per-CPU slice tracks, drop accounting of a tiny ring, and
   sequential-vs-lanes span-count agreement (the oracle-twin contract
   extended to traces). *)

(* ------------------------------------------------------------------ *)
(* Shared machinery *)

(* Run the registry's storm on a fresh engine with an enabled tracer
   attached; [domains] simulated CPUs, 0 for the sequential engine. *)
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
(* Exact, deterministic totals on simulated CPUs *)

(* Counters by fault kind: the PVM's fault-latency histogram counts. *)
let fault_kinds pvms =
  List.concat_map
    (fun pvm ->
      List.filter_map
        (fun (name, (s : Obs.Metrics.hstats)) ->
          if String.starts_with ~prefix:"fault." name then Some (name, s.count)
          else None)
        (Obs.Metrics.histograms (Core.Pvm.metrics pvm)))
    pvms

(* A storm on [domains] simulated CPUs must report exactly the
   sequential fault total, and at least the analytic lower bound (one
   demand-zero fault per private page).  The lanes run on one OS domain
   in a fixed order, so a second run must agree with the first to the
   byte: makespan, per-CPU busy time, faults by kind and the Chrome
   trace. *)
let test_storm_counters domains () =
  let seq =
    total_faults
      (fst (Check.Scenario.exec (Hw.Engine.create ()) (Check.Scenario.storm ())))
  in
  let tr, engine, pvms = traced_storm ~domains () in
  let par = total_faults pvms in
  Alcotest.(check int) "simulated-CPU faults = sequential faults" seq par;
  let floor = Check.Scenario.storm_faults ~workers:8 ~pages:16 in
  Alcotest.(check bool)
    (Printf.sprintf "faults >= %d" floor)
    true (par >= floor);
  let tr', engine', pvms' = traced_storm ~domains () in
  Alcotest.(check int) "same makespan" (Hw.Engine.now engine)
    (Hw.Engine.now engine');
  Alcotest.(check (array int)) "same per-CPU busy time"
    (Hw.Engine.cpu_busy engine) (Hw.Engine.cpu_busy engine');
  Alcotest.(check (list (pair string int))) "same faults by kind"
    (fault_kinds pvms) (fault_kinds pvms');
  Alcotest.(check bool) "same Chrome trace bytes" true
    (String.equal (Obs.Trace.to_chrome_json tr) (Obs.Trace.to_chrome_json tr'))

(* ------------------------------------------------------------------ *)
(* Trace well-formedness *)

(* After a [domains]-CPU storm the timeline must be well-formed:
   nothing dropped at default capacity, every span balanced
   (non-negative extent inside the run's horizon), the
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

(* A deliberately tiny ring must drop events, and [dropped] must
   surface the loss, while the surviving spans stay balanced. *)
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
   1-CPU run must agree on the number of spans per (name, category) —
   the per-CPU slice track (category "cpu") is the one track that
   exists only with simulated CPUs. *)
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

let () =
  Alcotest.run "obs-domains"
    [
      ( "counters",
        [
          Alcotest.test_case "storm totals exact (2 domains)" `Quick
            (test_storm_counters 2);
          Alcotest.test_case "storm totals exact (4 domains)" `Quick
            (test_storm_counters 4);
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
    ]
