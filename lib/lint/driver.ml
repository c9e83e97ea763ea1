(* chorus-lint driver: .cmt discovery, per-library rule scoping, the
   committed baseline, and the exit-status contract.

   Scope: the libraries whose code runs inside engine tasks (core,
   seg, nucleus, mix, dsm) get the full footprint and blocking rules;
   lib/check additionally gets the sanitizer-purity rule; the two
   alternative GMI implementations (shadow, minimal) only charge, so
   only the charge discipline applies.  lib/hw and lib/obs are the
   mechanisms the disciplines are built from and are mostly out of
   scope — except the hot files: obs/trace.ml, whose recording fast
   paths run inside every fault, hw/mmu.ml, whose page-table walk runs
   on every mapped access, and hw/engine.ml, whose fibre-switch path
   and task heap run on every charge that lets another fibre in.
   They carry the charge and hot-allocation disciplines ([@chorus.hot]
   ring writers, the allocation-free translation, the switch path).

   Baseline: findings are aggregated by stable key (rule, file,
   enclosing binding, detail) and compared against the committed
   baseline by *count*.  More findings than the baseline admits →
   new-violation error; fewer → the suppression is stale, which is an
   error too, so acknowledged debt can only shrink by refreshing the
   file in the same commit. *)

(* --- rule scope --------------------------------------------------- *)

let engine_task_libs = [ "core"; "seg"; "nucleus"; "mix"; "dsm"; "check" ]
let charge_only_libs = [ "shadow"; "minimal" ]

(* The (library, file) pairs of lib/obs and lib/hw in scope: the trace
   fast path, the MMU page table, and the engine's switch path with its
   task heap (see the header comment). *)
let hot_files = [ ("obs", "trace.ml"); ("hw", "mmu.ml"); ("hw", "engine.ml") ]

(* "…/lib/core/cache.ml" -> Some ("core", "lib/core/cache.ml") *)
let split_lib_path path =
  let parts = String.split_on_char '/' path in
  let rec go = function
    | "lib" :: lib :: rest when rest <> [] ->
      Some (lib, String.concat "/" ("lib" :: lib :: rest))
    | _ :: rest -> go rest
    | [] -> None
  in
  go parts

let rules_for ~lib ~basename =
  let l5 = if lib = "check" && basename = "sanitizer.ml" then [ Finding.L5 ] else [] in
  if List.mem lib engine_task_libs then
    [ Finding.L1; Finding.L2; Finding.L3; Finding.L4 ] @ l5
  else if List.mem lib charge_only_libs then [ Finding.L3; Finding.L4 ]
  else if List.mem (lib, basename) hot_files then
    [ Finding.L3; Finding.L4 ]
  else []

(* --- .cmt discovery ----------------------------------------------- *)

let rec find_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then find_cmts path acc
        else if Filename.check_suffix entry ".cmt" then path :: acc
        else acc)
      acc entries
  | exception Sys_error _ -> acc

(* --- baseline file ------------------------------------------------ *)

module Key = struct
  type t = Finding.key

  let compare = compare
end

module KeyMap = Map.Make (Key)

let count_by_key findings =
  List.fold_left
    (fun m f ->
      let k = Finding.key f in
      KeyMap.update k (function None -> Some 1 | Some n -> Some (n + 1)) m)
    KeyMap.empty findings

let parse_baseline_line ~file ~lnum line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.split_on_char '|' line with
    | [ rule; path; scope; detail; count ] -> (
      match (Finding.rule_of_name rule, int_of_string_opt count) with
      | Some r, Some n when n > 0 -> Ok (Some ((r, path, scope, detail), n))
      | _ ->
        Error (Printf.sprintf "%s:%d: malformed baseline entry" file lnum))
    | _ -> Error (Printf.sprintf "%s:%d: malformed baseline entry" file lnum)

let read_baseline file =
  if not (Sys.file_exists file) then Ok KeyMap.empty
  else begin
    let ic = open_in file in
    let rec go lnum acc errs =
      match input_line ic with
      | line -> (
        match parse_baseline_line ~file ~lnum line with
        | Ok None -> go (lnum + 1) acc errs
        | Ok (Some (k, n)) -> go (lnum + 1) (KeyMap.add k n acc) errs
        | Error e -> go (lnum + 1) acc (e :: errs))
      | exception End_of_file ->
        close_in ic;
        if errs = [] then Ok acc else Error (List.rev errs)
    in
    go 1 KeyMap.empty []
  end

let write_baseline file counts =
  let oc = open_out file in
  output_string oc
    "# chorus-lint baseline: acknowledged findings, one per line as\n\
     # rule|file|binding|detail|count.  A build fails on any finding\n\
     # beyond these counts — and on any entry that no longer fires\n\
     # (stale suppressions are errors), so this debt can only shrink.\n";
  KeyMap.iter
    (fun (rule, path, scope, detail) n ->
      Printf.fprintf oc "%s|%s|%s|%s|%d\n" (Finding.rule_name rule) path scope
        detail n)
    counts;
  close_out oc

(* --- the run ------------------------------------------------------ *)

type report = {
  new_findings : Finding.t list;  (** beyond what the baseline admits *)
  suppressed : int;
  stale : (Finding.key * int * int) list;  (** key, allowed, actual *)
  files_scanned : int;
}

(* Analyze every scanned-library .cmt under [roots]; [baseline] maps
   stable keys to admitted counts. *)
let run ~roots ~baseline =
  let cmts =
    List.concat_map
      (fun root ->
        if Filename.check_suffix root ".cmt" then [ root ]
        else find_cmts root [])
      roots
    |> List.sort_uniq compare
  in
  let files_scanned = ref 0 in
  let findings =
    List.concat_map
      (fun cmt ->
        match Cmt_format.read_cmt cmt with
        | info -> (
          match info.Cmt_format.cmt_sourcefile with
          | None -> []
          | Some src -> (
            match split_lib_path src with
            | None -> []
            | Some (lib, relpath) -> (
              let rules = rules_for ~lib ~basename:(Filename.basename src) in
              if rules = [] then []
              else
                match info.Cmt_format.cmt_annots with
                | Cmt_format.Implementation str ->
                  incr files_scanned;
                  Analyze.structure ~file:relpath ~rules str
                | _ -> [])))
        | exception _ ->
          Printf.eprintf "chorus-lint: warning: unreadable cmt %s\n" cmt;
          [])
      cmts
  in
  (* Partition against the baseline: for each key, the first [allowed]
     findings are suppressed, the rest are new. *)
  let counts = count_by_key findings in
  let seen = Hashtbl.create 64 in
  let new_findings =
    List.filter
      (fun f ->
        let k = Finding.key f in
        let n = Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k (n + 1);
        let allowed =
          Option.value ~default:0 (KeyMap.find_opt k baseline)
        in
        n >= allowed)
      (List.sort Finding.compare_by_position findings)
  in
  let stale =
    KeyMap.fold
      (fun k allowed acc ->
        let actual = Option.value ~default:0 (KeyMap.find_opt k counts) in
        if actual < allowed then (k, allowed, actual) :: acc else acc)
      baseline []
  in
  {
    new_findings;
    suppressed = List.length findings - List.length new_findings;
    stale = List.rev stale;
    files_scanned = !files_scanned;
  }

let pp_stale ppf ((rule, file, scope, detail), allowed, actual) =
  Format.fprintf ppf
    "%s: [%s] stale baseline entry %s/%s: admits %d finding(s), %d fire(s) — \
     refresh the baseline (debt only shrinks)"
    file (Finding.rule_name rule) scope detail allowed actual

(* --- CLI ---------------------------------------------------------- *)

let usage =
  "chorus_lint [--baseline FILE] [--update-baseline] [--json] [DIR|FILE.cmt \
   ...]\n\n\
   Static analysis of the chorus annotation disciplines over the .cmt\n\
   typedtrees dune produces (dune build @check).  Default scan root: ./lib.\n\n\
   Rules: L1 footprint soundness, L2 blocking discipline, L3 charge\n\
   discipline, L4 hot-path allocation, L5 sanitizer purity.\n\
   --json emits the report as a JSON object on stdout for tooling.\n\
   Exit status: 0 clean (or fully baseline-suppressed), 1 findings or\n\
   stale baseline entries, 2 usage/IO error.\n"

(* Hand-rolled JSON so the lint stays dependency-free. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_json r =
  let finding_json (f : Finding.t) =
    Printf.sprintf
      "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"scope\":\"%s\",\"detail\":\"%s\",\"message\":\"%s\"}"
      (Finding.rule_name f.Finding.rule)
      (json_escape f.Finding.file)
      f.Finding.line
      (json_escape f.Finding.scope)
      (json_escape f.Finding.detail)
      (json_escape f.Finding.message)
  in
  let stale_json ((rule, file, scope, detail), allowed, actual) =
    Printf.sprintf
      "{\"rule\":\"%s\",\"file\":\"%s\",\"scope\":\"%s\",\"detail\":\"%s\",\"allowed\":%d,\"actual\":%d}"
      (Finding.rule_name rule) (json_escape file) (json_escape scope)
      (json_escape detail) allowed actual
  in
  Printf.printf
    "{\"files_scanned\":%d,\"suppressed\":%d,\"new_findings\":[%s],\"stale\":[%s]}\n"
    r.files_scanned r.suppressed
    (String.concat "," (List.map finding_json r.new_findings))
    (String.concat "," (List.map stale_json r.stale))

let main argv =
  let baseline_file = ref None in
  let update = ref false in
  let json = ref false in
  let roots = ref [] in
  let rec parse = function
    | [] -> Ok ()
    | "--baseline" :: f :: rest ->
      baseline_file := Some f;
      parse rest
    | "--update-baseline" :: rest ->
      update := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_string usage;
      exit 0
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Error (Printf.sprintf "unknown option %s" arg)
    | arg :: rest ->
      roots := arg :: !roots;
      parse rest
  in
  match parse (List.tl (Array.to_list argv)) with
  | Error e ->
    Printf.eprintf "chorus-lint: %s\n%s" e usage;
    2
  | Ok () -> (
    let roots = if !roots = [] then [ "lib" ] else List.rev !roots in
    let baseline =
      match !baseline_file with
      | None -> Ok KeyMap.empty
      | Some f -> read_baseline f
    in
    match baseline with
    | Error errs ->
      List.iter (Printf.eprintf "chorus-lint: %s\n") errs;
      2
    | Ok baseline ->
      let r = run ~roots ~baseline in
      if r.files_scanned = 0 then begin
        Printf.eprintf
          "chorus-lint: no scanned-library .cmt files under %s — build them \
           first (dune build @check)\n"
          (String.concat ", " roots);
        2
      end
      else if !update then begin
        (* A baseline refresh must capture *every* current finding, so
           re-run without suppression. *)
        let fresh = run ~roots ~baseline:KeyMap.empty in
        let file =
          Option.value ~default:"LINT_BASELINE" !baseline_file
        in
        write_baseline file (count_by_key fresh.new_findings);
        Printf.printf "chorus-lint: baseline %s refreshed with %d finding(s)\n"
          file
          (List.length fresh.new_findings);
        0
      end
      else begin
        let nf = List.length r.new_findings and ns = List.length r.stale in
        if !json then print_json r
        else begin
          List.iter
            (fun f -> Format.printf "%a@." Finding.pp f)
            r.new_findings;
          List.iter (fun s -> Format.printf "%a@." pp_stale s) r.stale;
          Format.printf
            "chorus-lint: %d file(s), %d new finding(s), %d suppressed by \
             baseline, %d stale baseline entr%s@."
            r.files_scanned nf r.suppressed ns
            (if ns = 1 then "y" else "ies")
        end;
        if nf = 0 && ns = 0 then 0 else 1
      end)
