(* Tests of the benchmark itself, at sizes that take seconds: the metric
   catalogue matches BENCHMARK.json, the workloads' checks pass (and
   catch the one known failure), simulated statistics repeat for a
   seed, and traced spans nest with non-negative self times. *)

open Pvmbench

let workloads = Runner.[ ("storm", Storm); ("make", Make); ("ipc", Ipc) ]

let opts ?(trace = false) ?(reuse_addr = false) ?(seed = 11) workload =
  { Runner.workload; seed; seconds = 0.2; trace; quick = true; reuse_addr }

(* (name, unit) of every metric BENCHMARK.json declares. *)
let declared =
  lazy
    (let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
     let key = "{\"name\": \"" in
     let rec scan from acc =
       match String.index_from_opt text from '{' with
       | None -> List.rev acc
       | Some i ->
         let acc =
           if i + String.length key <= String.length text
              && String.sub text i (String.length key) = key
           then
             try
               Scanf.sscanf
                 (String.sub text i (String.length text - i))
                 "{\"name\": %S, \"unit\": %S" (fun n u -> (n, u) :: acc)
             with Scanf.Scan_failure _ | End_of_file -> acc
           else acc
         in
         scan (i + 1) acc
     in
     scan 0 [])

let emitted metrics = List.map (fun m -> (m.Runner.name, m.Runner.unit_)) metrics

let test_catalogue () =
  let declared = Lazy.force declared in
  List.iter
    (fun (label, w) ->
      let e2e, samples = Runner.end_to_end (Runner.run (opts w)) in
      Alcotest.(check bool) (label ^ " has latency samples") true (samples > 0);
      let layer = Runner.per_layer (Runner.run (opts ~trace:true w)) in
      let all = emitted e2e @ emitted layer in
      Alcotest.(check (list (pair string string)))
        (label ^ " emits exactly the declared metrics")
        (List.sort compare declared) (List.sort compare all);
      List.iter
        (fun m ->
          if not (Float.is_finite m.Runner.value) then
            Alcotest.failf "%s: %s is not finite" label m.name)
        (e2e @ layer))
    workloads

let test_checks_pass () =
  List.iter
    (fun (label, w) ->
      List.iter
        (fun trace ->
          let res = Runner.run (opts ~trace w) in
          Alcotest.(check int) (label ^ " failed ops") 0 res.failed;
          Alcotest.(check bool) (label ^ " attempted ops") true (res.attempted > 0))
        [ false; true ])
    workloads

(* The known failure: a sub-page message received where an aligned
   message was received and read comes back stale through the mapping.
   Counted, not hidden; when the PVM is fixed this expectation flips. *)
let test_ipc_stale_borrow_counted () =
  let res = Runner.run (opts ~reuse_addr:true Runner.Ipc) in
  Alcotest.(check bool) "stale reads are counted as failed ops" true
    (res.failed > 0)

let test_same_seed_same_sim () =
  List.iter
    (fun (label, w) ->
      let a = Runner.run (opts w) and b = Runner.run (opts w) in
      Alcotest.(check (list string)) (label ^ " simulated statistics")
        a.fingerprints b.fingerprints;
      let c = Runner.run (opts ~seed:12 w) in
      Alcotest.(check bool) (label ^ " another seed differs") true
        (c.fingerprints <> a.fingerprints))
    [ ("make", Runner.Make); ("ipc", Runner.Ipc) ]

let test_spans_nest () =
  List.iter
    (fun (label, w) ->
      let res = Runner.run (opts ~trace:true w) in
      let spans = res.last_spans in
      Alcotest.(check bool) (label ^ " recorded spans") true (Array.length spans > 0);
      let by_id = Hashtbl.create 1024 in
      Array.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
      Array.iter
        (fun (s : Span.span) ->
          if s.h1 < s.h0 || s.s1 < s.s0 then
            Alcotest.failf "%s: span %s ends before it starts" label
              Span.names.(s.name);
          if s.parent >= 0 then
            match Hashtbl.find_opt by_id s.parent with
            | None -> Alcotest.failf "%s: span %s lost its parent" label Span.names.(s.name)
            | Some p ->
              if s.h0 < p.Span.h0 || s.h1 > p.h1 || s.s0 < p.s0 || s.s1 > p.s1 then
                Alcotest.failf "%s: %s is not inside its parent %s" label
                  Span.names.(s.name) Span.names.(p.name))
        spans;
      Array.iter
        (fun ((s : Span.span), self) ->
          if self < 0 then
            Alcotest.failf "%s: %s has negative self time" label Span.names.(s.name))
        (Span.self_times spans))
    workloads

let () =
  Alcotest.run "pvmbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "metric catalogue" `Slow test_catalogue;
          Alcotest.test_case "checks pass" `Slow test_checks_pass;
          Alcotest.test_case "ipc stale borrow counted" `Quick
            test_ipc_stale_borrow_counted;
          Alcotest.test_case "same seed same simulated stats" `Quick
            test_same_seed_same_sim;
          Alcotest.test_case "traced spans nest" `Quick test_spans_nest;
        ] );
    ]
