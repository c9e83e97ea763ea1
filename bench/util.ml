(* Shared helpers for the benchmark harness. *)

let ps = 8192
let kb n = n * 1024

(* Schedule perturbation for determinism checks (--tie-seed): when
   seeded, every engine runs under [Hw.Engine.seeded_scheduler],
   legally reordering equal-time fibres.
   Table cells must come out byte-identical regardless — CI compares
   the outputs. *)
let tie_seed = ref None

(* A fresh engine with [domains] simulated CPUs (default 0), honouring
   --tie-seed. *)
let engine ?domains () =
  let engine = Hw.Engine.create ?domains () in
  Option.iter
    (fun seed -> Hw.Engine.set_scheduler engine (Hw.Engine.seeded_scheduler seed))
    !tie_seed;
  engine

(* Engine selection for every section (--domains with one value): the
   table scenarios spawn only serial-class fibres, so by the engine's
   determinism contract their cells must come out byte-identical at
   any simulated CPU count — CI compares [--domains 1]
   output against the sequential run. *)
let domains = ref None

(* Zero-cost-when-disabled check (--tracer): when set, every engine
   carries a real tracer that is never enabled.  Every instrumentation
   entry point must short-circuit on the enabled check, so CI asserts
   the bench output stays byte-identical with the tracer attached. *)
let tracer_on = ref false

(* A fresh engine for a section, honouring --domains and --tracer. *)
let sim_engine () =
  let engine = engine ?domains:!domains () in
  if !tracer_on then Hw.Engine.set_tracer engine (Obs.Trace.create ());
  engine

(* Run [f] in a fresh discrete-event engine and return its result. *)
let in_sim f =
  let engine = sim_engine () in
  Hw.Engine.run_fn engine (fun () -> f engine)

(* Simulated time consumed by [f], in nanoseconds. *)
let sim_time engine f =
  let t0 = Hw.Engine.now engine in
  f ();
  Hw.Engine.now engine - t0

let ms_of_ns ns = float_of_int ns /. 1e6

(* Print a paper-style matrix: rows = region sizes, columns = actual
   amounts.  [cell row col] returns [Some (measured_ms, paper_ms)].
   Every printed cell is also recorded in {!Report} for the optional
   machine-readable metrics report. *)
let print_matrix ~title ~rows ~cols ~cell =
  Printf.printf "\n%s\n" title;
  Printf.printf "%-12s" "region";
  List.iter (fun c -> Printf.printf "  %16s" c) cols;
  print_newline ();
  List.iteri
    (fun ri r ->
      Printf.printf "%-12s" r;
      List.iteri
        (fun ci c ->
          match cell ri ci with
          | None -> Printf.printf "  %16s" "-"
          | Some (measured, paper) ->
            Report.add ~table:title ~row:r ~col:c ~measured ~paper;
            Printf.printf "  %7.2f (%6.2f)" measured paper)
        cols;
      print_newline ())
    rows;
  Printf.printf "%-12s  [cells: measured ms (paper ms)]\n" ""

(* Mean simulated ms of ten back-to-back runs of [cycle]. *)
let mean_cycle engine cycle =
  let samples = List.init 10 (fun _ -> float_of_int (sim_time engine cycle)) in
  ms_of_ns (int_of_float (List.fold_left ( +. ) 0. samples /. 10.))
