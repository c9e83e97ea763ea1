(* Machine-readable mirror of the matrices the harness prints.

   Every cell that goes through Util.print_matrix is also recorded
   here; when the harness was invoked with [--metrics-out FILE] the
   accumulated cells are written as JSON at exit, so CI (or a plotting
   script) can compare measured against paper values without scraping
   the text tables.

   Schema "chorus-bench/1":
     { "schema": "chorus-bench/1",
       "tables": [ { "name", "cells": [ {row, col, measured_ms,
                     paper_ms} ] } ],
       "derived": [ {impl, name, measured_ms, paper_ms} ],
       "primitives": [ {impl, prim, count, total_ns} ] }

   [tables] and [derived] are the regression surface diff.exe gates
   on; [primitives] is informational (counts shift legitimately when
   instrumentation is added) and only produces warnings.  Every value
   is simulated time: host time is perfbench's to measure. *)

type cell = {
  table : string;
  row : string;
  col : string;
  measured_ms : float;
  paper_ms : float;
}

type derived_entry = {
  d_impl : string; (* "chorus" | "mach" *)
  d_name : string; (* "demand-alloc" | "cow" | "tree-setup" | "protect" *)
  d_measured_ms : float;
  d_paper_ms : float;
}

type prim_entry = {
  p_impl : string;
  p_prim : string;
  p_count : int;
  p_total_ns : int;
}

let cells : cell list ref = ref []
let derived_entries : derived_entry list ref = ref []
let prim_entries : prim_entry list ref = ref []
let out : string option ref = ref None

let add ~table ~row ~col ~measured ~paper =
  cells := { table; row; col; measured_ms = measured; paper_ms = paper } :: !cells

let add_derived ~impl ~name ~measured ~paper =
  derived_entries :=
    { d_impl = impl; d_name = name; d_measured_ms = measured; d_paper_ms = paper }
    :: !derived_entries

(* Record one implementation's per-primitive attribution table
   ({!Obs.Metrics.prim_report} shape); zero-count slots are elided. *)
let add_prims ~impl report =
  List.iter
    (fun (prim, count, total_ns) ->
      if count > 0 then
        prim_entries :=
          { p_impl = impl; p_prim = prim; p_count = count; p_total_ns = total_ns }
          :: !prim_entries)
    report

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Tables in first-recorded order, each with its cells in recording
   order. *)
let to_json () =
  let recorded = List.rev !cells in
  let tables =
    List.fold_left
      (fun acc c -> if List.mem c.table acc then acc else acc @ [ c.table ])
      [] recorded
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\":\"chorus-bench/1\",\"tables\":[";
  List.iteri
    (fun ti t ->
      if ti > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\",\"cells\":[" (escape t));
      let mine = List.filter (fun c -> c.table = t) recorded in
      List.iteri
        (fun ci c ->
          if ci > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"row\":\"%s\",\"col\":\"%s\",\"measured_ms\":%.3f,\"paper_ms\":%.3f}"
               (escape c.row) (escape c.col) c.measured_ms c.paper_ms))
        mine;
      Buffer.add_string b "]}")
    tables;
  Buffer.add_string b "],\"derived\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"impl\":\"%s\",\"name\":\"%s\",\"measured_ms\":%.4f,\"paper_ms\":%.4f}"
           (escape d.d_impl) (escape d.d_name) d.d_measured_ms d.d_paper_ms))
    (List.rev !derived_entries);
  Buffer.add_string b "],\"primitives\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"impl\":\"%s\",\"prim\":\"%s\",\"count\":%d,\"total_ns\":%d}"
           (escape p.p_impl) (escape p.p_prim) p.p_count p.p_total_ns))
    (List.rev !prim_entries);
  Buffer.add_string b "]}";
  Buffer.contents b

let write () =
  match !out with
  | None -> ()
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (to_json ());
        output_char oc '\n');
    Printf.printf
      "\nwrote metrics report: %s (%d cells, %d derived, %d primitive rows)\n"
      file (List.length !cells)
      (List.length !derived_entries)
      (List.length !prim_entries)
