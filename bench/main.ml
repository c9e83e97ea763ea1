(* Benchmark harness regenerating the paper's evaluation (§5.3).

   Usage: main.exe [--metrics-out FILE] [--tie-seed N] [--tracer]
                   [--domains N,N,...] [SUBCOMMAND...]
   With no subcommand everything runs (the order follows the paper);
   [--metrics-out] additionally writes the printed table cells as JSON
   (see Report); [--tie-seed] perturbs the engine's scheduling of
   equal-time fibres — results must not change (CI compares);
   [--tracer] attaches a real but never-enabled tracer to every
   engine — disabled tracing must be zero-cost, so results must again
   be byte-identical (CI compares);
   [--domains] sets the simulated CPU counts the [parallel] sweep
   visits, and — when given a single count — runs every other section
   on that many simulated CPUs, whose serial-class determinism
   contract makes the tables byte-identical to the sequential run (CI
   compares at 1 CPU). *)

let usage () =
  prerr_endline
    "usage: main.exe [--metrics-out FILE] [--tie-seed N] [--tracer] \
     [--domains N,N,...] \
     [all|table5|table6|table7|prelim|derived|primitives|fig3|\
     ablation-chains|ablation-segcache|ablation-pervpage|ablation-ipc|\
     ablation-dsm|macro|parallel]";
  exit 2

(* The parallel sweep's domain counts (--domains).  [parallel] is not
   part of "all", which is the paper's evaluation. *)
let domains_list = ref [ 1; 2; 4 ]

let run = function
  | "table5" -> Tables.table5 ()
  | "table6" -> Tables.table6 ()
  | "table7" -> Tables.table7 ()
  | "prelim" -> Tables.prelim ()
  | "derived" -> Tables.derived ()
  | "primitives" -> Tables.primitives ()
  | "fig3" -> Fig3.run ()
  | "ablation-chains" -> Ablations.ablation_chains ()
  | "ablation-segcache" -> Ablations.ablation_segcache ()
  | "ablation-pervpage" -> Ablations.ablation_pervpage ()
  | "ablation-ipc" -> Ablations.ablation_ipc ()
  | "ablation-dsm" -> Ablations.ablation_dsm ()
  | "macro" -> Macro.macro ()
  | "parallel" -> Parallel.sweep ~domains_list:!domains_list ()
  | "all" ->
    Tables.prelim ();
    Tables.table5 ();
    Tables.table6 ();
    Tables.table7 ();
    Tables.derived ();
    Tables.primitives ();
    Fig3.run ();
    Ablations.ablation_chains ();
    Ablations.ablation_segcache ();
    Ablations.ablation_pervpage ();
    Ablations.ablation_ipc ();
    Ablations.ablation_dsm ();
    Macro.macro ()
  | _ -> usage ()

let () =
  Printf.printf
    "Chorus GMI/PVM reproduction -- paper evaluation harness\n\
     (simulated times use the calibrated Sun-3/60 cost profiles; paper \
     values in parentheses)\n";
  let rec parse = function
    | "--metrics-out" :: file :: rest ->
      Report.out := Some file;
      parse rest
    | "--tie-seed" :: seed :: rest ->
      (match int_of_string_opt seed with
      | Some n -> Util.tie_seed := Some n
      | None -> usage ());
      parse rest
    | "--tracer" :: rest ->
      Util.tracer_on := true;
      parse rest
    | "--domains" :: spec :: rest ->
      (match
         List.map int_of_string_opt (String.split_on_char ',' spec)
       with
      | ns when ns <> [] && List.for_all (function Some n -> n > 0 | None -> false) ns
        ->
        domains_list := List.filter_map Fun.id ns;
        (* A single count additionally runs every other section on
           that many simulated CPUs — the CI byte-identity check runs
           the tables under [--domains 1]. *)
        (match !domains_list with
        | [ n ] -> Util.domains := Some n
        | _ -> ())
      | _ -> usage ());
      parse rest
    | [ "--metrics-out" ] | [ "--tie-seed" ] | [ "--domains" ] -> usage ()
    | cmds -> cmds
  in
  let cmds = parse (List.tl (Array.to_list Sys.argv)) in
  (match cmds with [] -> run "all" | cmds -> List.iter run cmds);
  Report.write ()
