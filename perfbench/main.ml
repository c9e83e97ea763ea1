(* Command-line entry point of the wall-clock PVM benchmark.

     main.exe --workload storm|make|ipc --seed N --seconds S --trace 0|1
              [--spans-out FILE]

   Prints a human-readable summary, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Untraced
   runs report the end-to-end metrics; traced runs the per-layer ones. *)

open Pvmbench

let usage () =
  prerr_endline
    "usage: main.exe --workload storm|make|ipc --seed N --seconds S \
     --trace 0|1 [--spans-out FILE]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.
  and trace = ref false and spans_out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Runner.workload_of_string w;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s > 0. -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--spans-out" :: f :: rest ->
      spans_out := Some f;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some workload, Some seed ->
    let o =
      { Runner.workload; seed; seconds = !seconds; trace = !trace;
        quick = false; reuse_addr = false }
    in
    let res = Runner.run o in
    let metrics =
      if o.trace then Runner.per_layer res
      else begin
        let e2e, samples = Runner.end_to_end res in
        Printf.printf "samples: %d ops in untraced rounds (op_p99_us has %d beyond it)\n"
          samples (samples / 100);
        e2e
      end
    in
    Printf.printf "seed %d, %d rounds, %d ops attempted, %d failed\n" seed
      (List.length res.rounds) res.attempted res.failed;
    List.iter
      (fun x -> Printf.printf "  %-36s %14.4f %s\n" x.Runner.name x.value x.unit_)
      metrics;
    Option.iter
      (fun f -> Out_channel.with_open_text f (Runner.spans_json res.last_spans))
      !spans_out;
    print_endline (Runner.json_result res metrics)
  | _ -> usage ()
