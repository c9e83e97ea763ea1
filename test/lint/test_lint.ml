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
let l6 = [ Lint.Finding.L6 ]
let l7 = [ Lint.Finding.L7 ]
let l8 = [ Lint.Finding.L8 ]
let l9 = [ Lint.Finding.L9 ]

(* The lockset rules run through the interprocedural analysis, not the
   per-binding discipline scan. *)
let lockset_lint ?includes ?flags ~rules src =
  Lint.Lockset.analyze
    [
      Lint.Lockset.unit_of_cmt ~file:"fixture.ml" ~rules
        (compile ?includes ?flags src);
    ]

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
       let bad tbl = Hashtbl.replace tbl 0 0\n\
       let bad2 (c : cache) = c.c_refs <- 1\n"
  in
  check_keys "mutating call and core-record mutation fire"
    [ ("L5", "calls-replace"); ("L5", "sets-c_refs") ]
    fs

let test_l5_negative () =
  let fs =
    lint ~rules:l5
      "type cache = { mutable c_refs : int }\n\
       let ok tbl = (Hashtbl.replace tbl 0 0 [@chorus.impure_ok \"fixture\"])\n\
       let ok2 tbl = Hashtbl.find_opt tbl 0\n"
  in
  check_keys "waived and read-only sanitizer code is clean" [] fs

(* --- L6: lock ordering -------------------------------------------- *)

(* Fixture locks classify by field name exactly like the real tree:
   mm_lock/s_lock/p_lock are the mm, shard and pool classes. *)

let test_l6_positive () =
  let fs =
    lockset_lint ~rules:l6
      "type pvm = { mm_lock : Mutex.t }\n\
       type shard = { s_lock : Mutex.t }\n\
       let bad (s : shard) (p : pvm) =\n\
      \  Mutex.lock s.s_lock;\n\
      \  Mutex.lock p.mm_lock;\n\
      \  Mutex.unlock p.mm_lock;\n\
      \  Mutex.unlock s.s_lock\n"
  in
  check_keys "acquiring mm under shard reverses the hierarchy"
    [ ("L6", "order-mm-under-shard") ]
    fs

let test_l6_interprocedural () =
  let fs =
    lockset_lint ~rules:l6
      "type pvm = { mm_lock : Mutex.t }\n\
       type shard = { s_lock : Mutex.t }\n\
       let inner (p : pvm) = Mutex.lock p.mm_lock; Mutex.unlock p.mm_lock\n\
       let outer (s : shard) (p : pvm) =\n\
      \  Mutex.lock s.s_lock;\n\
      \  inner p;\n\
      \  Mutex.unlock s.s_lock\n"
  in
  check_keys "the reversed acquisition is found through the call"
    [ ("L6", "order-mm-under-shard") ]
    fs

let test_l6_negative () =
  let fs =
    lockset_lint ~rules:l6
      "type pvm = { mm_lock : Mutex.t }\n\
       type shard = { s_lock : Mutex.t }\n\
       let good (p : pvm) (s : shard) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  Mutex.lock s.s_lock;\n\
      \  Mutex.unlock s.s_lock;\n\
      \  Mutex.unlock p.mm_lock\n\
       let[@chorus.lock_order \"fixture\"] waived (s : shard) (p : pvm) =\n\
      \  Mutex.lock s.s_lock;\n\
      \  Mutex.lock p.mm_lock;\n\
      \  Mutex.unlock p.mm_lock;\n\
      \  Mutex.unlock s.s_lock\n"
  in
  check_keys "hierarchy-respecting nesting and waived code are clean" [] fs

(* --- L7: lockset / domain-safety ----------------------------------- *)

let test_l7_positive () =
  let fs =
    lockset_lint ~rules:l7
      "type pvm = { mm_lock : Mutex.t; mutable caches : int list }\n\
       let bad (p : pvm) = p.caches <- []\n"
  in
  check_keys "an unguarded catalogued write fires"
    [ ("L7", "write-caches") ]
    fs

let test_l7_negative () =
  let fs =
    lockset_lint ~rules:l7
      "type pvm = { mm_lock : Mutex.t; mutable caches : int list }\n\
       let good (p : pvm) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  p.caches <- [];\n\
      \  Mutex.unlock p.mm_lock\n\
       let helper (p : pvm) = p.caches <- [ 1 ]\n\
       let caller (p : pvm) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  helper p;\n\
      \  Mutex.unlock p.mm_lock\n\
       let[@chorus.guarded \"fixture\"] waived (p : pvm) = p.caches <- [ 2 ]\n"
  in
  check_keys
    "writes under the lock, under every caller's lock (entry lockset), or \
     waived are clean"
    [] fs

(* --- L8: no park while holding ------------------------------------- *)

let test_l8_positive () =
  let fs =
    lockset_lint ~rules:l8
      "let suspend () = ()\n\
       type pvm = { mm_lock : Mutex.t }\n\
       let bad (p : pvm) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  suspend ();\n\
      \  Mutex.unlock p.mm_lock\n\
       let helper () = suspend ()\n\
       let bad2 (p : pvm) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  helper ();\n\
      \  Mutex.unlock p.mm_lock\n"
  in
  check_keys "parking while holding fires, directly and through a call"
    [ ("L8", "park-suspend"); ("L8", "park-via-helper") ]
    fs

let test_l8_negative () =
  let fs =
    lockset_lint ~rules:l8
      "let suspend () = ()\n\
       type pvm = { mm_lock : Mutex.t }\n\
       let good (p : pvm) =\n\
      \  suspend ();\n\
      \  Mutex.lock p.mm_lock;\n\
      \  Mutex.unlock p.mm_lock;\n\
      \  suspend ()\n\
       let[@chorus.park_ok \"fixture\"] waived (p : pvm) =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  suspend ();\n\
      \  Mutex.unlock p.mm_lock\n"
  in
  check_keys "parks outside the critical section and waived parks are clean"
    [] fs

(* --- L9: balanced locking ------------------------------------------ *)

let test_l9_positive () =
  let fs =
    lockset_lint ~rules:l9
      "type pvm = { mm_lock : Mutex.t }\n\
       let bad (p : pvm) = Mutex.lock p.mm_lock\n\
       let bad2 (p : pvm) = Mutex.unlock p.mm_lock\n\
       let bad3 (p : pvm) tbl =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  let v = Hashtbl.find tbl 0 in\n\
      \  Mutex.unlock p.mm_lock;\n\
      \  v\n"
  in
  check_keys
    "a leaked lock, an unpaired release and a raise inside the section fire"
    [
      ("L9", "holds-at-exit-mm");
      ("L9", "release-unheld-mm");
      ("L9", "raise-gap-find");
    ]
    fs

let test_l9_negative () =
  let fs =
    lockset_lint ~rules:l9
      "type pvm = { mm_lock : Mutex.t }\n\
       let good (p : pvm) tbl =\n\
      \  Mutex.lock p.mm_lock;\n\
      \  Fun.protect\n\
      \    ~finally:(fun () -> Mutex.unlock p.mm_lock)\n\
      \    (fun () -> Hashtbl.find tbl 0)\n\
       let good2 (p : pvm) c =\n\
      \  if c then begin\n\
      \    Mutex.lock p.mm_lock;\n\
      \    Mutex.unlock p.mm_lock\n\
      \  end\n\
       let[@chorus.balanced \"fixture\"] waived (p : pvm) =\n\
      \  Mutex.lock p.mm_lock\n"
  in
  check_keys
    "Fun.protect sections, branch-balanced sections and waived primitives \
     are clean"
    [] fs

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

(* Mutation test #2: swap the explicit mm-lock halves in the real
   [Install.index_dest_stub] — release-before-acquire — and the lockset
   analysis must fail at exactly that site; the unmutated copy stays
   clean under the same standalone lint. *)
let install_ml = build_root ^ "lib/core/install.ml"

let lockset_file ~rules src =
  Lint.Lockset.analyze
    [
      Lint.Lockset.unit_of_cmt ~file:"install.ml" ~rules
        (compile ~includes:sandbox_includes ~flags:sandbox_flags src);
    ]

let test_lock_order_mutation () =
  let src = read_file install_ml in
  let body =
    "  Hashtbl.replace stub.cs_cache.c_dest_stubs stub.cs_offset stub;\n"
  in
  let needle = "  mm_enter pvm;\n" ^ body ^ "  mm_exit pvm\n" in
  Alcotest.(check int)
    "the explicit mm-lock halves appear exactly once in index_dest_stub" 1
    (count_occurrences ~needle src);
  check_keys "unmutated sandbox copy is clean" []
    (lockset_file ~rules:[ Lint.Finding.L9 ] src);
  let mutated =
    replace_once ~needle ~by:("  mm_exit pvm;\n" ^ body ^ "  mm_enter pvm\n")
      src
  in
  (* the acquire half opens the body, on the line after the header *)
  let exit_line =
    line_containing ~needle:"index_dest_stub pvm (stub : cow_stub) =" src + 1
  in
  match lockset_file ~rules:[ Lint.Finding.L9 ] mutated with
  | [ f1; f2 ] ->
    Alcotest.(check string) "rule" "L9" (Lint.Finding.rule_name f1.rule);
    Alcotest.(check string)
      "the swapped acquire leaks out of the binding" "holds-at-exit-mm"
      f1.detail;
    Alcotest.(check string) "scope" "index_dest_stub" f1.scope;
    Alcotest.(check string) "rule" "L9" (Lint.Finding.rule_name f2.rule);
    Alcotest.(check string)
      "the swapped release is unpaired" "release-unheld-mm" f2.detail;
    Alcotest.(check string) "scope" "index_dest_stub" f2.scope;
    Alcotest.(check int)
      "line is the swapped mm_exit (where mm_enter was)" exit_line f2.line
  | fs ->
    Alcotest.failf "expected exactly the two swap findings, got %d: %s"
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
          Alcotest.test_case "L6 fires on reversed lock order" `Quick
            test_l6_positive;
          Alcotest.test_case "L6 sees the reversal through calls" `Quick
            test_l6_interprocedural;
          Alcotest.test_case "L6 spares ordered/waived nesting" `Quick
            test_l6_negative;
          Alcotest.test_case "L7 fires on unguarded shared write" `Quick
            test_l7_positive;
          Alcotest.test_case "L7 spares guarded/inferred/waived writes"
            `Quick test_l7_negative;
          Alcotest.test_case "L8 fires on park while holding" `Quick
            test_l8_positive;
          Alcotest.test_case "L8 spares unlocked/waived parks" `Quick
            test_l8_negative;
          Alcotest.test_case "L9 fires on unbalanced sections" `Quick
            test_l9_positive;
          Alcotest.test_case "L9 spares protected/balanced sections" `Quick
            test_l9_negative;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "deleting note_frag's note_access is caught"
            `Quick test_mutation;
          Alcotest.test_case "swapping the mm-lock halves is caught" `Quick
            test_lock_order_mutation;
        ] );
    ]
