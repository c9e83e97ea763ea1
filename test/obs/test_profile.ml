(* Golden tests for the cost-attribution profiler: the §5.3.2 overhead
   decomposition *derived from measured charges* must land within 5%
   of the paper's published numbers, for the Chorus PVM and for the
   Mach-style shadow baseline alike; attribution totals must agree
   with the Table 6 cells; and the export surfaces (folded stacks,
   JSON, dropped-event accounting) must stay coherent. *)

let size = 1024 * 1024 (* the 1024 Kb / 128-page cells *)
let pages = 128

(* Run [run] (which drives the engine itself) on a fresh traced engine. *)
let run_traced run =
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  run engine;
  (Hw.Engine.now engine, Obs.Profile.of_trace tr)

module S = Check.Scenario

(* One Table-6 zero-fill cycle on a fresh 600-frame VM. *)
let zero_fill (module V : S.Vm) engine =
  Hw.Engine.run_fn engine (fun () ->
      let vm = V.create ~frames:600 engine in
      V.teardown vm (V.zero_fill vm ~size ~pages))

(* The registry's decomp steps: a zero-fill cycle followed by a Table-7
   deferred-copy + COW cycle. *)
let decomp vm engine = ignore (S.decomp_on vm engine)

let check_pct ~msg ~paper_ms measured_ns =
  match measured_ns with
  | None -> Alcotest.failf "%s: not exercised by the workload" msg
  | Some ns ->
    let ms = ns /. 1e6 in
    let dev = Float.abs ((ms -. paper_ms) /. paper_ms) *. 100. in
    if dev > 5.0 then
      Alcotest.failf "%s: derived %.4f ms vs paper %.4f ms (%.1f%% > 5%%)" msg
        ms paper_ms dev

(* ------------------------------------------------------------------ *)
(* The §5.3.2 decomposition, derived from charges, vs the paper's
   values (each VM's [paper_decomp]; the Mach ones recomputed from its
   Table 6/7 cells by the paper's own formulas). *)

let test_derived ((module V : S.Vm) as vm) () =
  let _, prof = run_traced (decomp vm) in
  let d = Obs.Profile.derive prof in
  Alcotest.(check int)
    "zero-fill faults" (2 * pages) d.Obs.Profile.zero_fill_faults;
  Alcotest.(check int) "COW faults" pages d.cow_faults;
  Alcotest.(check int) "copies" 1 d.copies;
  List.iter
    (fun (name, paper_ms) ->
      check_pct ~msg:name ~paper_ms
        (match name with
        | "demand-alloc" -> d.demand_ns
        | "cow" -> d.cow_ns
        | "tree-setup" -> d.tree_setup_ns
        | "protect" -> d.protect_ns
        | _ -> Alcotest.failf "unknown §5.3.2 value %s" name))
    V.paper_decomp

(* ------------------------------------------------------------------ *)
(* Attribution totals: in these device-free workloads every advance of
   the simulated clock is a primitive charge, so the profiler's total
   must equal elapsed sim time exactly — and the elapsed time is the
   Table 6 (1024 Kb, 128 pg) cell, within 5% of the paper. *)

let test_attribution_total ((module V : S.Vm) as vm) () =
  let elapsed, prof = run_traced (zero_fill vm) in
  Alcotest.(check int)
    "every simulated ns attributed" elapsed prof.Obs.Profile.total_charge_ns;
  let ms = float_of_int elapsed /. 1e6 in
  let paper = List.assoc (1024, pages) V.paper_table6 in
  if Float.abs ((ms -. paper) /. paper) > 0.05 then
    Alcotest.failf "Table 6 %s cell drifted: %.2f ms vs paper %.2f" V.label ms
      paper

(* ------------------------------------------------------------------ *)
(* Export surfaces. *)

let test_folded_output () =
  let _, prof = run_traced (decomp (module S.Chorus)) in
  let folded = Obs.Profile.to_folded prof in
  let lines =
    String.split_on_char '\n' folded |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has stacks" true (List.length lines > 0);
  let total = ref 0 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed folded line: %s" line
      | Some i -> (
        let path = String.sub line 0 i in
        let ns = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool) "nonempty path" true (String.length path > 0);
        match int_of_string_opt ns with
        | Some n -> total := !total + n
        | None -> Alcotest.failf "bad sample count in: %s" line))
    lines;
  Alcotest.(check int)
    "folded stacks conserve total attribution" prof.Obs.Profile.total_charge_ns
    !total;
  let has_zero_fill =
    List.exists
      (fun l ->
        String.length l >= 15 && String.sub l 0 15 = "fault:zero-fill")
      lines
  in
  Alcotest.(check bool) "zero-fill stacks present" true has_zero_fill

let test_dropped_surfaces () =
  let tr = Obs.Trace.create ~capacity:16 () in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  zero_fill (module S.Chorus) engine;
  Alcotest.(check bool) "ring overflowed" true (Obs.Trace.dropped tr > 0);
  let prof = Obs.Profile.of_trace tr in
  Alcotest.(check int)
    "profile surfaces the dropped count" (Obs.Trace.dropped tr)
    prof.Obs.Profile.n_dropped;
  let report = Format.asprintf "%a" Obs.Profile.pp prof in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "text report warns" true (contains ~sub:"WARNING" report);
  (* the Chrome export carries it as metadata, parseable JSON *)
  let chrome = Obs.Json.parse (Obs.Trace.to_chrome_json tr) in
  match
    Obs.Json.(get_num (member "droppedEvents"
                         (Option.value ~default:Obs.Json.Null
                            (member "otherData" chrome))))
  with
  | Some n ->
    Alcotest.(check int)
      "droppedEvents metadata" (Obs.Trace.dropped tr) (int_of_float n)
  | None -> Alcotest.fail "no otherData.droppedEvents in Chrome export"

let test_json_roundtrip () =
  let _, prof = run_traced (decomp (module S.Chorus)) in
  let j = Obs.Profile.to_json prof in
  let reparsed = Obs.Json.parse (Obs.Json.to_string j) in
  Alcotest.(check string)
    "print/parse/print fixpoint"
    (Obs.Json.to_string j)
    (Obs.Json.to_string reparsed);
  Alcotest.(check (option string))
    "schema tag" (Some "chorus-profile/1")
    Obs.Json.(get_str (member "schema" reparsed));
  match Obs.Json.(get_num (member "total_charge_ns" reparsed)) with
  | Some total ->
    Alcotest.(check int)
      "totals survive the roundtrip" prof.Obs.Profile.total_charge_ns
      (int_of_float total)
  | None -> Alcotest.fail "no total_charge_ns field"

(* The per-CPU report of a real 2-domain run: three workers in
   distinct affinity classes sleep 1, 2x2 and 3x3 ms, so the CPUs end
   unevenly loaded.  Every row must add up to the makespan and the
   footer's efficiency must be total busy over CPUs x makespan. *)
let test_utilization () =
  let engine = Hw.Engine.create ~domains:2 () in
  Hw.Engine.run engine (fun () ->
      for w = 1 to 3 do
        Hw.Engine.spawn engine ~affinity:w (fun () ->
            for _ = 1 to w do
              Hw.Engine.sleep (w * 1_000_000)
            done)
      done);
  let busy = Hw.Engine.cpu_busy engine and makespan = Hw.Engine.now engine in
  let report ~busy =
    Format.asprintf "%a"
      (fun ppf () -> Obs.Profile.pp_utilization ppf ~busy ~makespan)
      ()
  in
  let lines = String.split_on_char '\n' (report ~busy) in
  let ms = float_of_int makespan /. 1e6 in
  let close = Alcotest.(check (float 0.0005)) in
  let rows =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l " %d %f %f %f%%" (fun i b d _ -> (i, b, d)))
      lines
  in
  Alcotest.(check (list int))
    "one row per CPU" [ 0; 1 ]
    (List.map (fun (i, _, _) -> i) rows);
  List.iter
    (fun (i, b, idle) ->
      close (Printf.sprintf "cpu%d busy" i) (float_of_int busy.(i) /. 1e6) b;
      close (Printf.sprintf "cpu%d busy + idle = makespan" i) ms (b +. idle))
    rows;
  let total = Array.fold_left ( + ) 0 busy in
  Alcotest.(check bool) "CPUs unevenly loaded" true (total < 2 * makespan);
  (match
     List.find_map
       (fun l ->
         Scanf.sscanf_opt l " makespan %f ms; parallel efficiency %f%%"
           (fun m e -> (m, e)))
       lines
   with
  | Some (m, eff) ->
    close "footer makespan" ms m;
    Alcotest.(check (float 0.05))
      "efficiency = total busy / (CPUs x makespan)"
      (100. *. float_of_int total /. float_of_int (2 * makespan))
      eff
  | None -> Alcotest.fail "no parallel-efficiency footer");
  Alcotest.(check string)
    "sequential run"
    "per-CPU utilization (simulated time):\n\
    \  (no simulated CPUs: sequential run)\n"
    (report ~busy:[||])

let () =
  Alcotest.run "profile"
    [
      ( "derived",
        List.map
          (fun ((module V : S.Vm) as vm) ->
            Alcotest.test_case (V.impl ^ " within 5% of paper") `Quick
              (test_derived vm))
          S.vms );
      ( "attribution",
        List.map
          (fun ((module V : S.Vm) as vm) ->
            Alcotest.test_case
              (V.impl ^ " total = sim time = Table 6 cell")
              `Quick (test_attribution_total vm))
          S.vms );
      ( "export",
        [
          Alcotest.test_case "folded stacks conserve charges" `Quick
            test_folded_output;
          Alcotest.test_case "dropped events surface everywhere" `Quick
            test_dropped_surfaces;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "rows sum to makespan, footer efficiency" `Quick
            test_utilization;
        ] );
    ]
