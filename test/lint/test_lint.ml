(* Golden suite for chorus-lint: one positive (rule fires) and one
   negative (satisfier or waiver clears it) fixture per rule, plus the
   mutation test — a sandbox copy of lib/core/types.ml with the
   note_access call deleted from note_frag must fail the lint at
   exactly that binding, and the unmutated copy must stay clean.

   Fixtures are self-contained sources compiled here with
   [ocamlc -bin-annot]; the analyzer recognises satisfiers by name and
   shared fields by (type name, field name), so a fixture defining its
   own [pvm] record and [note_access] stub exercises the same code
   paths as the real tree. *)

let compile ?(includes = []) ?(flags = "") src =
  let ml = Filename.temp_file "lint_fixture" ".ml" in
  let oc = open_out ml in
  output_string oc src;
  close_out oc;
  let cmd =
    Printf.sprintf "ocamlc -bin-annot -w -a -c %s %s %s"
      (String.concat " "
         (List.map (fun d -> "-I " ^ Filename.quote d) includes))
      flags (Filename.quote ml)
  in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture did not compile: %s" cmd;
  Filename.chop_suffix ml ".ml" ^ ".cmt"

let lint ?includes ?flags ~rules src =
  Lint.Analyze.cmt ~file:"fixture.ml" ~rules (compile ?includes ?flags src)

(* (rule, detail) pairs, the stable part of each finding. *)
let keys fs =
  List.map
    (fun (f : Lint.Finding.t) -> (Lint.Finding.rule_name f.rule, f.detail))
    fs

let check_keys msg expected fs =
  Alcotest.(check (list (pair string string))) msg expected (keys fs)

let l1 = [ Lint.Finding.L1 ]
let l2 = [ Lint.Finding.L2 ]
let l3 = [ Lint.Finding.L3 ]
let l4 = [ Lint.Finding.L4 ]
let l5 = [ Lint.Finding.L5 ]

(* --- L1: footprint soundness -------------------------------------- *)

let test_l1_positive () =
  let fs =
    lint ~rules:l1
      "type pvm = { mutable gmap : int }\n\
       let bad (p : pvm) = p.gmap\n\
       let bad2 (p : pvm) = p.gmap <- 1\n"
  in
  check_keys "unnoted read and write fire"
    [ ("L1", "read-gmap"); ("L1", "write-gmap") ]
    fs

let test_l1_negative () =
  let fs =
    lint ~rules:l1
      "type pvm = { mutable gmap : int }\n\
       let note_access _ _ = ()\n\
       let note_frag () = note_access 0 0\n\
       let good_any (p : pvm) = note_access 0 0; p.gmap\n\
       let good_class (p : pvm) = note_frag (); p.gmap <- 2\n\
       let good_waived (p : pvm) = (p.gmap [@chorus.noted \"fixture\"])\n"
  in
  check_keys "noted accesses are clean" [] fs

let test_l1_file_waiver () =
  let fs =
    lint ~rules:l1
      "[@@@chorus.noted \"fixture: whole file out of scope\"]\n\
       type pvm = { mutable gmap : int }\n\
       let bad (p : pvm) = p.gmap\n"
  in
  check_keys "file-level waiver covers every binding" [] fs

let test_l1_malformed_waiver () =
  let fs =
    lint ~rules:l1
      "type pvm = { mutable gmap : int }\n\
       let bad (p : pvm) = (p.gmap [@chorus.noted])\n"
  in
  check_keys "a waiver without a reason is itself a finding"
    [ ("L1", "malformed-waiver") ]
    fs

let test_l1_wrapper_integrity () =
  let fs = lint ~rules:l1 "let note_frag () = ()\n" in
  check_keys "a note wrapper that stops noting fires"
    [ ("L1", "wrapper-note_frag") ]
    fs

(* --- L2: blocking discipline -------------------------------------- *)

let test_l2_positive () =
  let fs =
    lint ~rules:l2
      "module Cond = struct let wait () = () end\n\
       let bad () = Cond.wait ()\n"
  in
  check_keys "undeclared park fires" [ ("L2", "wait-wait") ] fs

let test_l2_negative () =
  let fs =
    lint ~rules:l2
      "module Cond = struct let wait () = () end\n\
       let declare_wait () = ()\n\
       let good () = declare_wait (); Cond.wait ()\n\
       let good_waived () = (Cond.wait () [@chorus.declared \"fixture\"])\n"
  in
  check_keys "declared parks are clean" [] fs

(* --- L3: charge discipline ---------------------------------------- *)

let test_l3_positive () =
  let fs =
    lint ~rules:l3 "let charge () = ()\nlet bad () = charge ()\n"
  in
  check_keys "unspanned charge fires" [ ("L3", "charge-charge") ] fs

let test_l3_negative () =
  let fs =
    lint ~rules:l3
      "let charge () = ()\n\
       let with_span () = ()\n\
       let good () = with_span (); charge ()\n\
       let[@chorus.spanned \"fixture\"] good_waived () = charge ()\n"
  in
  check_keys "spanned charges are clean" [] fs

(* --- L4: hot-path allocation -------------------------------------- *)

let test_l4_positive () =
  let fs =
    lint ~rules:l4
      "let g a b = a + b\n\
       let[@chorus.hot] bad x = let f y = x + y in f\n\
       let[@chorus.hot] bad2 x = (x, x)\n\
       let[@chorus.hot] bad3 x = Some x\n\
       let[@chorus.hot] bad4 x = g x\n"
  in
  check_keys "closure, tuple, boxed constructor, partial application fire"
    [
      ("L4", "closure");
      ("L4", "tuple");
      ("L4", "construct-Some");
      ("L4", "partial-application");
    ]
    fs

let test_l4_negative () =
  let fs =
    lint ~rules:l4
      "let ok_cold x = (x, x)\n\
       let[@chorus.hot] ok_static () = Some 1\n\
       let[@chorus.hot] ok_spine x y = x + y\n\
       let[@chorus.hot] [@chorus.alloc_ok \"fixture\"] ok_waived x = (x, x)\n"
  in
  check_keys
    "cold bindings, static constants, the parameter spine and waived \
     allocations are clean"
    [] fs

(* --- L5: sanitizer purity ----------------------------------------- *)

let test_l5_positive () =
  let fs =
    lint ~rules:l5
      "type cache = { mutable c_refs : int }\n\
       module Pmap = struct let unmap_all () () = () end\n\
       module Frag_map = struct let add_if_absent () () = () end\n\
       let bad tbl = Hashtbl.replace tbl 0 0\n\
       let bad2 (c : cache) = c.c_refs <- 1\n\
       let bad3 () = Pmap.unmap_all () ()\n\
       let bad4 () = Frag_map.add_if_absent () ()\n"
  in
  check_keys "mutating calls and core-record mutation fire"
    [
      ("L5", "calls-replace");
      ("L5", "sets-c_refs");
      ("L5", "calls-unmap_all");
      ("L5", "calls-add_if_absent");
    ]
    fs

let test_l5_negative () =
  let fs =
    lint ~rules:l5
      "type cache = { mutable c_refs : int }\n\
       let ok tbl = (Hashtbl.replace tbl 0 0 [@chorus.impure_ok \"fixture\"])\n\
       let ok2 tbl = Hashtbl.find_opt tbl 0\n"
  in
  check_keys "waived and read-only sanitizer code is clean" [] fs

(* --- the mutation test -------------------------------------------- *)

(* The build-tree root: `dune runtest` runs this binary from
   _build/default/test/lint, `dune exec` from the workspace root; the
   compiled libraries (and their sources) live under both. *)
let build_root =
  match
    List.find_opt
      (fun base -> Sys.file_exists (base ^ "lib/core/types.ml"))
      [ "../../"; "_build/default/" ]
  with
  | Some base -> base
  | None -> Alcotest.fail "cannot locate the build tree"

(* The .cmi include paths the sandbox copy of types.ml needs; [-open
   Core] mirrors dune's module-alias scheme so sibling references
   (Gmi) resolve. *)
let sandbox_includes =
  [
    build_root ^ "lib/hw/.hw.objs/byte";
    build_root ^ "lib/obs/.obs.objs/byte";
    build_root ^ "lib/core/.core.objs/byte";
  ]

let sandbox_flags = "-open Core"
let types_ml = build_root ^ "lib/core/types.ml"
let core_rules = Lint.Finding.[ L1; L2; L3; L4 ]

let read_file path =
  In_channel.with_open_text path In_channel.input_all

let count_occurrences ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + nl) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let replace_once ~needle ~by hay =
  let nl = String.length needle and hl = String.length hay in
  let rec find i =
    if i + nl > hl then raise Not_found
    else if String.sub hay i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub hay 0 i ^ by ^ String.sub hay (i + nl) (hl - i - nl)

(* 1-based line number of the first line containing [needle]. *)
let line_containing ~needle src =
  let rec go lnum = function
    | [] -> Alcotest.failf "no line contains %S" needle
    | l :: rest ->
      if count_occurrences ~needle l > 0 then lnum else go (lnum + 1) rest
  in
  go 1 (String.split_on_char '\n' src)

let test_mutation () =
  let src = read_file types_ml in
  let needle = "Hw.Engine.note_access ?write pvm.engine cache.c_id off" in
  Alcotest.(check int)
    "the engine primitive appears exactly once in note_frag" 1
    (count_occurrences ~needle src);
  (* control: the unmutated copy, compiled and linted exactly like the
     mutant, is clean — so the finding below is pinned to the edit *)
  check_keys "unmutated sandbox copy is clean" []
    (lint ~includes:sandbox_includes ~flags:sandbox_flags ~rules:core_rules src);
  let mutated =
    replace_once ~needle
      ~by:"(ignore write; ignore pvm.engine; ignore cache.c_id; ignore off)"
      src
  in
  match
    lint ~includes:sandbox_includes ~flags:sandbox_flags ~rules:core_rules
      mutated
  with
  | [ f ] ->
    Alcotest.(check string) "rule" "L1" (Lint.Finding.rule_name f.rule);
    Alcotest.(check string) "detail" "wrapper-note_frag" f.detail;
    Alcotest.(check string) "scope" "note_frag" f.scope;
    Alcotest.(check int) "line is the note_frag binding"
      (line_containing ~needle:"let note_frag" src)
      f.line
  | fs ->
    Alcotest.failf "expected exactly the wrapper finding, got %d: %s"
      (List.length fs)
      (String.concat "; "
         (List.map (Format.asprintf "%a" Lint.Finding.pp) fs))

(* Mutation test #2: the MMU walk is a hot file.  Build the [Ok frame]
   result inside the real [Mmu.translate] from the entry's inline frame
   instead of returning the one cached in the entry, and L4 must report
   exactly that allocation; the unmutated copy stays clean. *)
let test_mmu_alloc_mutation () =
  let src = read_file (build_root ^ "lib/hw/mmu.ml") in
  let needle =
    "  | Pte e -> if Prot.allows e.prot access then e.ok else protection\n"
  in
  Alcotest.(check int) "translate's hit returns the cached result once" 1
    (count_occurrences ~needle src);
  let lint src =
    lint ~includes:sandbox_includes ~flags:"-open Hw" ~rules:l4 src
  in
  check_keys "unmutated sandbox copy is clean" [] (lint src);
  let mutated =
    replace_once ~needle
      ~by:
        "  | Pte e -> if Prot.allows e.prot access then Ok e.frame else \
         protection\n"
      src
  in
  match lint mutated with
  | [ f ] ->
    Alcotest.(check string) "rule" "L4" (Lint.Finding.rule_name f.rule);
    Alcotest.(check string) "the Ok block is reported" "construct-Ok" f.detail;
    Alcotest.(check string) "scope" "translate" f.scope
  | fs ->
    Alcotest.failf "expected exactly the allocation finding, got %d: %s"
      (List.length fs)
      (String.concat "; "
         (List.map (Format.asprintf "%a" Lint.Finding.pp) fs))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "L1 fires on unnoted access" `Quick
            test_l1_positive;
          Alcotest.test_case "L1 cleared by notes and waivers" `Quick
            test_l1_negative;
          Alcotest.test_case "L1 file-level waiver" `Quick
            test_l1_file_waiver;
          Alcotest.test_case "L1 reason-less waiver is a finding" `Quick
            test_l1_malformed_waiver;
          Alcotest.test_case "L1 wrapper integrity" `Quick
            test_l1_wrapper_integrity;
          Alcotest.test_case "L2 fires on undeclared park" `Quick
            test_l2_positive;
          Alcotest.test_case "L2 cleared by declare_wait" `Quick
            test_l2_negative;
          Alcotest.test_case "L3 fires on unspanned charge" `Quick
            test_l3_positive;
          Alcotest.test_case "L3 cleared by span openers" `Quick
            test_l3_negative;
          Alcotest.test_case "L4 fires on hot-path allocation" `Quick
            test_l4_positive;
          Alcotest.test_case "L4 spares cold/static/waived code" `Quick
            test_l4_negative;
          Alcotest.test_case "L5 fires on sanitizer mutation" `Quick
            test_l5_positive;
          Alcotest.test_case "L5 spares pure sanitizer code" `Quick
            test_l5_negative;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "deleting note_frag's note_access is caught"
            `Quick test_mutation;
          Alcotest.test_case "an Ok built in Mmu.translate is caught" `Quick
            test_mmu_alloc_mutation;
        ] );
    ]
