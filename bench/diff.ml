(* bench-diff: trajectory regression gate over two chorus-bench/1
   reports.

   Usage: diff.exe OLD.json NEW.json [--tolerance PCT]

   Gated (failures, exit 1):
   - every table cell of OLD must exist in NEW, with measured_ms
     within PCT percent (default 5) of the old value;
   - every "derived" §5.3.2 overhead of OLD must exist in NEW within
     the same tolerance.

   Warn-only:
   - per-primitive count / total_ns drift (instrumentation changes
     legitimately move these);
   - cells or derived values present only in NEW (coverage grew).

   CI regenerates NEW from the current tree and runs this against the
   committed baseline (BENCH_pr4.json), so a change that silently
   shifts the simulated evaluation — a cost-model edit, an extra
   charge on a hot path, a fault-path restructure — fails the build
   instead of drifting the reproduction away from the paper. *)

let usage () =
  prerr_endline "usage: diff.exe OLD.json NEW.json [--tolerance PCT]";
  exit 2

let fail_count = ref 0
let warn_count = ref 0

let fail fmt =
  incr fail_count;
  Printf.ksprintf (fun s -> Printf.printf "FAIL %s\n" s) fmt

let warn fmt =
  incr warn_count;
  Printf.ksprintf (fun s -> Printf.printf "warn %s\n" s) fmt

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "bench-diff: %s\n" msg;
    exit 2
  | text -> (
    match Obs.Json.parse text with
    | j -> j
    | exception Obs.Json.Parse_error msg ->
      Printf.eprintf "bench-diff: %s: %s\n" file msg;
      exit 2)

open Obs.Json

let str_field name j = get_str (member name j)
let num_field name j = get_num (member name j)

(* (table, row, col) -> measured_ms *)
let cells_of j =
  member "tables" j |> get_list |> Option.value ~default:[]
  |> List.concat_map (fun table ->
         let tname = Option.value ~default:"?" (str_field "name" table) in
         member "cells" table |> get_list |> Option.value ~default:[]
         |> List.filter_map (fun cell ->
                match
                  ( str_field "row" cell,
                    str_field "col" cell,
                    num_field "measured_ms" cell )
                with
                | Some row, Some col, Some ms -> Some ((tname, row, col), ms)
                | _ -> None))

(* (impl, name) -> measured_ms *)
let derived_of j =
  member "derived" j |> get_list |> Option.value ~default:[]
  |> List.filter_map (fun d ->
         match
           (str_field "impl" d, str_field "name" d, num_field "measured_ms" d)
         with
         | Some impl, Some name, Some ms -> Some ((impl, name), ms)
         | _ -> None)

(* (impl, prim) -> (count, total_ns) *)
let prims_of j =
  member "primitives" j |> get_list |> Option.value ~default:[]
  |> List.filter_map (fun p ->
         match
           ( str_field "impl" p,
             str_field "prim" p,
             num_field "count" p,
             num_field "total_ns" p )
         with
         | Some impl, Some prim, Some count, Some ns ->
           Some ((impl, prim), (count, ns))
         | _ -> None)

let pct_delta old_v new_v =
  if Float.abs old_v < 1e-9 then if Float.abs new_v < 1e-9 then 0.0 else infinity
  else (new_v -. old_v) /. Float.abs old_v *. 100.

let () =
  let rec parse tolerance positional = function
    | [] -> (tolerance, List.rev positional)
    | "--tolerance" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some t when t > 0.0 -> parse t positional rest
      | _ -> usage ())
    | [ "--tolerance" ] -> usage ()
    | arg :: rest -> parse tolerance (arg :: positional) rest
  in
  let tolerance, files =
    parse 5.0 [] (List.tl (Array.to_list Sys.argv))
  in
  let old_file, new_file =
    match files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let old_j = load old_file and new_j = load new_file in
  (match (str_field "schema" old_j, str_field "schema" new_j) with
  | Some "chorus-bench/1", Some "chorus-bench/1" -> ()
  | old_s, new_s ->
    Printf.eprintf
      "bench-diff: expected schema chorus-bench/1 in both reports (old: %s, \
       new: %s)\n"
      (Option.value ~default:"missing" old_s)
      (Option.value ~default:"missing" new_s);
    exit 2);
  Printf.printf "bench-diff: %s -> %s (tolerance %.1f%%)\n" old_file new_file
    tolerance;

  let old_cells = cells_of old_j and new_cells = cells_of new_j in
  List.iter
    (fun ((key, old_ms) : (string * string * string) * float) ->
      let table, row, col = key in
      match List.assoc_opt key new_cells with
      | None -> fail "cell missing: %s [%s, %s]" table row col
      | Some new_ms ->
        let d = pct_delta old_ms new_ms in
        if Float.abs d > tolerance then
          fail "cell %s [%s, %s]: %.3f -> %.3f ms (%+.1f%%)" table row col
            old_ms new_ms d)
    old_cells;
  List.iter
    (fun ((table, row, col), _) ->
      if not (List.mem_assoc (table, row, col) old_cells) then
        warn "new cell (not in baseline): %s [%s, %s]" table row col)
    new_cells;

  let old_derived = derived_of old_j and new_derived = derived_of new_j in
  List.iter
    (fun ((key, old_ms) : (string * string) * float) ->
      let impl, name = key in
      match List.assoc_opt key new_derived with
      | None -> fail "derived overhead missing: %s %s" impl name
      | Some new_ms ->
        let d = pct_delta old_ms new_ms in
        if Float.abs d > tolerance then
          fail "derived %s %s: %.4f -> %.4f ms (%+.1f%%)" impl name old_ms
            new_ms d)
    old_derived;
  List.iter
    (fun ((impl, name), _) ->
      if not (List.mem_assoc (impl, name) old_derived) then
        warn "new derived overhead (not in baseline): %s %s" impl name)
    new_derived;

  let old_prims = prims_of old_j and new_prims = prims_of new_j in
  List.iter
    (fun ((key, (old_count, old_ns)) : (string * string) * (float * float)) ->
      let impl, prim = key in
      match List.assoc_opt key new_prims with
      | None -> warn "primitive gone: %s %s" impl prim
      | Some (new_count, new_ns) ->
        if new_count <> old_count then
          warn "primitive %s %s: count %.0f -> %.0f" impl prim old_count
            new_count
        else if Float.abs (pct_delta old_ns new_ns) > tolerance then
          warn "primitive %s %s: %.0f -> %.0f ns total" impl prim old_ns
            new_ns)
    old_prims;
  List.iter
    (fun ((impl, prim), _) ->
      if not (List.mem_assoc (impl, prim) old_prims) then
        warn "new primitive: %s %s" impl prim)
    new_prims;

  Printf.printf
    "bench-diff: %d gated value(s) checked, %d failure(s), %d warning(s)\n"
    (List.length old_cells + List.length old_derived)
    !fail_count !warn_count;
  if !fail_count > 0 then exit 1
