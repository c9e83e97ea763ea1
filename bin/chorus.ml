(* chorus — a small CLI over the reproduction.

   Subcommands:
     info               print the system inventory and versions
     inspect SCENARIO   dump the live Figure 2 structures a scenario
                        leaves behind
     trace SCENARIO     capture a Chrome trace of a scenario
     stats SCENARIO     print the metrics-registry report of a scenario
     check SCENARIO     sanitizer + schedule-perturbation harness
     crossval           sequential-vs-simulated-CPUs digest cross-validation
     explore SCENARIO   DPOR schedule exploration
     profile SCENARIO   cost-attribution profile
     replay BUNDLE      deterministically re-execute a crash bundle

   SCENARIO names an entry of the Check.Scenario registry, which holds
   every workload body the CLI runs; this file keeps argument handling, printing,
   bundle writing and exit codes.  The checked runs behind check,
   explore and replay are the library's (Check.Harness: engine set-up,
   sanitizer sweeps, failure classifier, oracle judge).  Failure
   forensics: check and explore write a crash bundle (Obs.Bundle,
   schema chorus-bundle/2) whenever a sanitizer sweep, the watchdog, a
   deadlock or an uncaught exception kills a run; the bundle carries
   the engine's decision log and the tail of the run's trace, and
   replay re-drives the recorded schedule decision-for-decision and
   asserts the same failure reappears.

   The full evaluation (Figure 3 a-d, Tables 5-7, the ablations) and
   the simulated-CPU fault-throughput sweep live in bench/main.exe
   (simulated time), host-time measurement in perfbench/; the
   walkthroughs in examples/. *)

open Cmdliner

let print_info () =
  print_endline
    "chorus-vm: reproduction of 'Generic Virtual Memory Management for\n\
     Operating System Kernels' (Abrossimov, Rozier, Shapiro; SOSP 1989)";
  Printf.printf "\nmemory managers implementing the GMI:\n";
  List.iter
    (fun name -> Printf.printf "  - %s\n" name)
    [
      Core.Pvm_gmi.name; Minimal.Minimal_gmi.name; Simulator.Sim_gmi.name;
    ];
  Printf.printf
    "\nevaluation:  dune exec bench/main.exe\nwalkthroughs: dune exec \
     examples/quickstart.exe (and two more)\n"

(* Every SCENARIO argument names a Check.Scenario registry entry. *)
let scenario_names =
  List.map (fun s -> s.Check.Scenario.name) Check.Scenario.all

let find_scenario name =
  match Check.Scenario.find name with
  | Some s -> s
  | None ->
    Printf.eprintf "chorus: unknown scenario '%s' (available: %s)\n" name
      (String.concat ", " scenario_names);
    exit 2

let write_file ~cmd file contents =
  try Out_channel.with_open_text file (fun oc -> output_string oc contents)
  with Sys_error msg ->
    Printf.eprintf "chorus %s: %s\n" cmd msg;
    exit 1

(* Usage errors exit 2, before anything runs. *)
let check_count ~cmd ~flag ~min n =
  if n < min then begin
    Printf.eprintf "chorus %s: %s must be >= %d\n" cmd flag min;
    exit 2
  end;
  n

let check_domains ~cmd = check_count ~cmd ~flag:"--domains" ~min:1

(* A fresh engine with an enabled tracer attached. *)
let traced_engine ?domains () =
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create ?domains () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  (engine, tr)

(* [f] on each item, headed by its PVM's index when there are
   several. *)
let per_pvm items f =
  let many = List.length items > 1 in
  List.iteri
    (fun i x ->
      if many then Format.printf "=== pvm %d ===@." i;
      f x)
    items

(* chorus inspect SCENARIO: the Inspect dump of every PVM the scenario
   registers, and of each of its live contexts, once the run drains. *)
let inspect scenario =
  let scen = find_scenario scenario in
  let pvms, _ = Check.Scenario.exec (Hw.Engine.create ()) scen in
  per_pvm pvms (fun pvm ->
      Format.printf "%a@." Core.Inspect.pp_state pvm;
      List.iter
        (fun (ctx : Core.Types.context) ->
          if ctx.ctx_alive then
            Format.printf "@.%a@." Core.Inspect.pp_context ctx)
        (List.sort
           (fun (a : Core.Types.context) b -> compare a.ctx_id b.ctx_id)
           (Core.Types.contexts pvm)))

let trace scenario out domains =
  let domains = Option.map (check_domains ~cmd:"trace") domains in
  let scen = find_scenario scenario in
  let engine, tr = traced_engine ?domains () in
  ignore (Check.Scenario.exec engine scen);
  let json = Obs.Trace.to_chrome_json tr in
  (match out with
  | None -> print_endline json
  | Some file ->
    write_file ~cmd:"trace" file (json ^ "\n");
    Printf.printf
      "wrote %s: %d events (%d dropped); load in ui.perfetto.dev or \
       chrome://tracing\n"
      file (Obs.Trace.length tr) (Obs.Trace.dropped tr));
  if Obs.Trace.dropped tr > 0 then
    Printf.eprintf
      "chorus trace: warning: the ring buffer overwrote %d events; the \
       trace is only a suffix of the run\n"
      (Obs.Trace.dropped tr)

let stats scenario json_out domains =
  let domains = Option.map (check_domains ~cmd:"stats") domains in
  let scen = find_scenario scenario in
  let engine, tr = traced_engine ?domains () in
  let pvms, _ = Check.Scenario.exec engine scen in
  (* Publish the trace ring's own accounting into every registry so
     the drop counter shows up in the text report and the JSON alike:
     a silently truncated trace must be visible in the stats. *)
  List.iter
    (fun pvm ->
      let m = Core.Pvm.metrics pvm in
      Obs.Metrics.set (Obs.Metrics.counter m "trace.events")
        (Obs.Trace.length tr);
      Obs.Metrics.set (Obs.Metrics.counter m "trace.dropped")
        (Obs.Trace.dropped tr))
    pvms;
  if Obs.Trace.dropped tr > 0 then
    Printf.eprintf
      "chorus stats: warning: the trace ring overwrote %d events\n"
      (Obs.Trace.dropped tr);
  per_pvm pvms (fun pvm ->
      Format.printf "%a@." Obs.Metrics.pp (Core.Pvm.metrics pvm));
  match json_out with
  | None -> ()
  | Some file ->
    let json pvm = Obs.Metrics.to_json (Core.Pvm.metrics pvm) in
    let pvms = Obs.Json.List (List.map json pvms) in
    let doc =
      Obs.Json.(Obj [ ("schema", Str "chorus-stats/1"); ("pvms", pvms) ])
    in
    write_file ~cmd:"stats" file (Obs.Json.to_string doc ^ "\n");
    Printf.printf "wrote %s\n" file

(* chorus profile SCENARIO: capture a trace of the scenario, fold it
   into the hierarchical cost tree and print the attribution report —
   including the derived §5.3.2 decomposition and an Inspect-based
   residency/pressure snapshot of every PVM the scenario built.

   For [decomp] (the Table 6 / Table 7 cell shapes: 1024 Kb region,
   128 touched pages) each memory manager of Check.Scenario.vms runs
   decomp's steps on its own engine, so their charges cannot mix, and
   each derived decomposition is checked against the paper's
   published numbers. *)

let profile_of run =
  let engine, tr = traced_engine () in
  let r = run engine in
  (r, Obs.Profile.of_trace tr)

let check_derived (module V : Check.Scenario.Vm) (d : Obs.Profile.derived) =
  Format.printf "@.%s — derived vs paper (§5.3.2):@." V.label;
  Format.printf
    "  %d zero-fill faults, %d COW faults, %d copies, teardown share %.4f \
     ms/frame@."
    d.Obs.Profile.zero_fill_faults d.cow_faults d.copies
    (d.teardown_share_ns /. 1e6);
  let worst = ref 0.0 in
  let row name per measured =
    let paper_ms = List.assoc name V.paper_decomp in
    match measured with
    | None -> Format.printf "  %-14s (not exercised; paper %.4f)@." name paper_ms
    | Some ns ->
      let ms = ns /. 1e6 in
      let dev = (ms -. paper_ms) /. paper_ms *. 100. in
      if Float.abs dev > !worst then worst := Float.abs dev;
      Format.printf "  %-14s %8.4f ms/%-5s paper %8.4f   %+6.1f%%@." name ms
        per paper_ms dev
  in
  row "demand-alloc" "page" d.demand_ns;
  row "cow" "page" d.cow_ns;
  row "tree-setup" "copy" d.tree_setup_ns;
  row "protect" "page" d.protect_ns;
  !worst

let profile_decomp folded json_out =
  let profs =
    List.map
      (fun vm -> (vm, snd (profile_of (Check.Scenario.decomp_on vm))))
      Check.Scenario.vms
  in
  List.iter
    (fun ((module V : Check.Scenario.Vm), prof) ->
      Format.printf "=== %s (%s) ===@.%a@." V.label V.design Obs.Profile.pp
        prof)
    profs;
  let worst =
    List.fold_left
      (fun worst (vm, prof) ->
        Float.max worst (check_derived vm (Obs.Profile.derive prof)))
      0.0 profs
  in
  Format.printf "@.worst deviation from paper: %.1f%% (threshold 5%%)@."
    worst;
  Option.iter
    (fun file ->
      let lines ((module V : Check.Scenario.Vm), prof) =
        Obs.Profile.to_folded prof |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> V.impl ^ ";" ^ l)
      in
      write_file ~cmd:"profile" file
        (String.concat "\n" (List.concat_map lines profs) ^ "\n");
      Printf.printf "wrote %s (folded stacks)\n" file)
    folded;
  Option.iter
    (fun file ->
      let doc =
        Obs.Json.Obj
          (("schema", Obs.Json.Str "chorus-profile-decomp/1")
          :: List.map
               (fun ((module V : Check.Scenario.Vm), prof) ->
                 (V.impl, Obs.Profile.to_json prof))
               profs)
      in
      write_file ~cmd:"profile" file (Obs.Json.to_string doc ^ "\n");
      Printf.printf "wrote %s\n" file)
    json_out;
  if worst > 5.0 then begin
    Printf.eprintf
      "chorus profile decomp: derived decomposition deviates more than 5%% \
       from the paper\n";
    exit 1
  end

let profile scenario folded json_out =
  let scen = find_scenario scenario in
  if String.equal scenario "decomp" then profile_decomp folded json_out
  else begin
    let (pvms, _), prof =
      profile_of (fun engine -> Check.Scenario.exec engine scen)
    in
    Format.printf "%a@." Obs.Profile.pp prof;
    let residencies = List.map Core.Inspect.residency pvms in
    per_pvm residencies (Format.printf "%a@." Core.Inspect.pp_residency);
    Option.iter
      (fun file ->
        write_file ~cmd:"profile" file (Obs.Profile.to_folded prof);
        Printf.printf "wrote %s (folded stacks)\n" file)
      folded;
    Option.iter
      (fun file ->
        let doc =
          match Obs.Profile.to_json prof with
          | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (fields
              @ [
                  ( "residency",
                    Obs.Json.List
                      (List.map Core.Inspect.residency_json residencies) );
                ])
          | j -> j
        in
        write_file ~cmd:"profile" file (Obs.Json.to_string doc ^ "\n");
        Printf.printf "wrote %s\n" file)
      json_out
  end

(* chorus check SCENARIO: one FIFO reference run, then one per seed
   under a seeded scheduler that legally permutes equal-time fibres,
   each a Check.Harness run (quiescent sweep, tracer, watchdog, and
   with --every-event the per-event structural sweep).  A run that ends
   in a failure is bundled; every run must pass the blocking-discipline
   analysis of its trace and Check.Harness.judge against the FIFO run.
   Exit 1 = a violation, 2 = the harness itself broke (a "crash"). *)
let check scenario seeds every_event bundle_dir domains =
  let seeds = check_count ~cmd:"check" ~flag:"--seeds" ~min:0 seeds in
  let domains = Option.map (check_domains ~cmd:"check") domains in
  let scen = find_scenario scenario in
  let failures = ref 0 in
  let fail label fmt =
    incr failures;
    Format.eprintf ("%s: " ^^ fmt ^^ "@.") label
  in
  let give_up () =
    Printf.eprintf "chorus check %s: %d failure(s)\n" scenario !failures;
    exit 1
  in
  let run_one label seed =
    let r = Check.Harness.run ?domains ?seed ~every_event scen in
    List.iter
      (fun v -> fail label "%a" Check.Blocking.pp_violation v)
      r.blocking;
    match r.ending with
    | Ok obs -> obs
    | Error f ->
      let path =
        Obs.Bundle.write ~dir:bundle_dir (Check.Forensics.capture_live scen r f)
      in
      Printf.eprintf
        "chorus check: wrote crash bundle %s (re-drive it with: chorus replay \
         %s)\n"
        path path;
      if f.kind = "crash" then begin
        Printf.eprintf "chorus check %s: harness error: %s\n" scenario f.detail;
        exit 2
      end;
      fail label "%s: %s" f.kind f.detail;
      give_up ()
  in
  let reference = run_one "fifo" None in
  let judge label obs =
    Option.iter
      (fun (kind, detail) -> fail label "%s: %s" kind detail)
      (Check.Harness.judge scen ~reference obs)
  in
  judge "fifo" reference;
  for seed = 1 to seeds do
    let label = Printf.sprintf "seed %d" seed in
    judge label (run_one label (Some seed))
  done;
  if !failures > 0 then give_up ();
  Printf.printf
    "chorus check %s: OK — fifo + %d seed(s)%s; quiescent sweep and blocking \
     discipline hold; %s\n"
    scenario seeds
    (if every_event then ", per-event structural sweep" else "")
    (Check.Harness.oracle_summary scen)

(* chorus crossval: the oracle-twin gate.  Every kernel workload of the
   registry runs twice from scratch — once on the sequential engine,
   once on an engine with N simulated CPUs — and the concatenated
   Inspect digests must match byte-for-byte.  They are serial-class
   programs (lanes never see them), so any divergence is an engine
   bug; [storm] additionally spawns affinity-classed workers, one lane
   each, whose final state is deterministic by construction.  The Model programs are
   explore fixtures, judged against Check.Model's serializations; the
   unit suite crossvals them too. *)
let crossval domains =
  let domains = check_domains ~cmd:"crossval" domains in
  let scens =
    List.filter
      (fun s ->
        match s.Check.Scenario.oracle with Outcomes _ -> false | _ -> true)
      Check.Scenario.all
  in
  let outcomes = List.map (Check.Crossval.run_pair ~domains) scens in
  List.iter
    (fun o -> Format.printf "%a@." Check.Crossval.pp_outcome o)
    outcomes;
  let bad = List.filter (fun o -> not o.Check.Crossval.o_ok) outcomes in
  if bad = [] then
    Printf.printf
      "chorus crossval: OK — %d scenario(s) digest-identical, sequential vs \
       %d CPU(s)\n"
      (List.length outcomes) domains
  else begin
    Printf.eprintf "chorus crossval: %d scenario(s) diverged\n"
      (List.length bad);
    exit 1
  end

(* chorus explore SCENARIO: systematic schedule exploration with the
   Check.Explore DPOR model checker, every schedule a Check.Harness run
   judged by the scenario's oracle — [pressure] and [contend-model]
   run Check.Model programs through the full PVM against the model's
   serializations ([pressure] being also CI's forced-failure fixture
   under an armed [evict-claim-late] injection). *)
let explore scenario bound max_schedules show_stats schedule_out inject
    bundle_dir =
  let count flag min = Option.map (check_count ~cmd:"explore" ~flag ~min) in
  let bound = count "--bound" 0 bound in
  let max_schedules = count "--max-schedules" 1 max_schedules in
  let scen = find_scenario scenario in
  (match
     List.find_opt
       (fun n -> not (List.mem_assoc n Check.Forensics.injections))
       inject
   with
  | Some n ->
    Printf.eprintf "chorus explore: unknown injection '%s' (available: %s)\n"
      n
      (String.concat ", " (List.map fst Check.Forensics.injections));
    exit 2
  | None -> ());
  Check.Forensics.with_injections inject @@ fun () ->
  let result = Check.Explore.run ?bound ?max_schedules scen in
  let s = result.Check.Explore.r_stats in
  match result.Check.Explore.r_violation with
  | None ->
    Printf.printf
      "chorus explore %s: OK — %d schedules (%s%s), %d distinct outcomes, %d \
       reversible races, %d sleep-set + %d bound prunes%s\n"
      scenario s.Check.Explore.schedules
      (match bound with
      | None -> "exhaustive DPOR"
      | Some k -> Printf.sprintf "preemption bound %d" k)
      (if s.exhausted then "" else "; budget hit, NOT exhausted")
      s.distinct_outcomes s.races
      (s.sleep_blocked + s.sleep_skips)
      s.bound_pruned
      (match inject with
      | [] -> ""
      | is -> Printf.sprintf " [injected: %s]" (String.concat ", " is));
    if show_stats then Format.printf "%a@." Check.Explore.pp_stats s
  | Some v ->
    Format.eprintf "chorus explore %s: FAILED@.%a@." scenario
      Check.Explore.pp_violation v;
    if show_stats then Format.eprintf "%a@." Check.Explore.pp_stats s;
    let bundle, o = Check.Forensics.capture ~inject scen v in
    if o.o_kind = v.v_kind then
      Format.eprintf "replay of the offending schedule reproduces: %s@." o.o_kind
    else Format.eprintf "warning: replay did not reproduce the violation@.";
    let path = Obs.Bundle.write ~dir:bundle_dir bundle in
    Printf.printf "wrote crash bundle %s (re-drive it with: chorus replay %s)\n"
      path path;
    Option.iter
      (fun file ->
        let doc =
          Obs.Json.Obj
            [
              ("schema", Obs.Json.Str "chorus-explore-schedule/1");
              ("scenario", Obs.Json.Str scenario);
              ("kind", Obs.Json.Str v.Check.Explore.v_kind);
              ( "schedule",
                Obs.Json.List
                  (List.map
                     (fun f -> Obs.Json.Num (float_of_int f))
                     v.Check.Explore.v_schedule) );
            ]
        in
        write_file ~cmd:"explore" file (Obs.Json.to_string doc ^ "\n");
        Printf.printf "wrote %s\n" file)
      schedule_out;
    exit 1

(* chorus replay BUNDLE: re-execute a crash bundle's recorded schedule
   decision-for-decision through the forced-pick driver (re-arming any
   recorded fault injections) and require the identical failure —
   kind, per-PVM Inspect digests and sanitizer verdicts. *)
let replay_bundle path =
  match Obs.Bundle.read path with
  | Error msg ->
    Printf.eprintf "chorus replay: %s\n" msg;
    exit 2
  | Ok b ->
    let scen = find_scenario b.Obs.Bundle.scenario in
    Printf.printf "replaying %s:\n  scenario %s, %d decisions%s, recorded \
                   failure %s at t=%s\n"
      path b.Obs.Bundle.scenario
      (List.length b.Obs.Bundle.schedule)
      (match b.Obs.Bundle.inject with
      | [] -> ""
      | is -> Printf.sprintf ", injections [%s]" (String.concat ", " is))
      b.Obs.Bundle.kind
      (Format.asprintf "%a" Hw.Sim_time.pp b.Obs.Bundle.sim_now);
    let outcome = Check.Forensics.replay scen b in
    let first_line s =
      match String.index_opt s '\n' with
      | Some i -> String.sub s 0 i ^ " ..."
      | None -> s
    in
    Printf.printf "replay outcome: %s — %s\n" outcome.Check.Forensics.o_kind
      (first_line outcome.Check.Forensics.o_detail);
    (match Check.Forensics.reproduces b outcome with
    | Ok () ->
      Printf.printf
        "reproduced: failure kind, state digests and sanitizer verdicts \
         match the bundle\n"
    | Error msg ->
      Printf.eprintf "chorus replay: bundle NOT reproduced:\n%s\n" msg;
      exit 1)

let scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:("one of: " ^ String.concat ", " scenario_names))

let bundle_dir_arg cmd =
  Arg.(
    value & opt string "."
    & info [ "bundle-dir" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "directory %s writes crash bundles to on failure (created if \
              missing; default: the current directory)"
             cmd))

let cmds =
  [
    Cmd.v (Cmd.info "info" ~doc:"inventory and pointers")
      Term.(const print_info $ const ());
    Cmd.v
      (Cmd.info "inspect"
         ~doc:
           "run a scenario and dump the live PVM structures (Figure 2) of \
            every PVM it built and of each live context")
      Term.(const inspect $ scenario_arg);
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "run a scenario with tracing enabled and emit Chrome trace_event \
            JSON (Perfetto-loadable)")
      Term.(
        const trace $ scenario_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "o"; "output" ] ~docv:"FILE"
                ~doc:"write the trace to $(docv) instead of stdout")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "domains" ] ~docv:"N"
                ~doc:
                  "run on $(docv) simulated CPUs: affinity-classed fibres \
                   run as lane slices, and the trace carries one track per \
                   simulated CPU"));
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "run a scenario under the whole-state invariant sanitizer and \
            the schedule-perturbation harness: N seeded reorderings of \
            equal-time fibres, each swept for invariant violations and \
            \xc2\xa73.3.3 blocking-discipline breaches, with outcomes \
            compared across schedules.  Every run carries an enabled \
            tracer and the stall watchdog; any sanitizer violation, \
            deadlock, watchdog alarm or crash writes a replayable crash \
            bundle holding the run's schedule decisions and trace tail \
            (exit 1 for a violation, 2 for a harness error)")
      Term.(
        const check $ scenario_arg
        $ Arg.(
            value & opt int 3
            & info [ "seeds" ] ~docv:"N"
                ~doc:"number of perturbed schedules to run besides FIFO")
        $ Arg.(
            value & flag
            & info [ "every-event" ]
                ~doc:
                  "additionally run the structural invariant sweep after \
                   every engine event (slow)")
        $ bundle_dir_arg "check"
        $ Arg.(
            value
            & opt (some int) None
            & info [ "domains" ] ~docv:"N"
                ~doc:
                  "run every schedule on $(docv) simulated CPUs (>= 1); \
                   affinity-classed fibres then run as lane slices, and \
                   seeded schedules reorder them"));
    Cmd.v
      (Cmd.info "crossval"
         ~doc:
           "run every kernel workload of the scenario registry on the \
            sequential engine and again on N simulated CPUs and require \
            byte-identical observable digests — the oracle-twin \
            refinement gate for the lanes (exit 1 on any divergence)")
      Term.(
        const crossval
        $ Arg.(
            value & opt int 4
            & info [ "domains" ] ~docv:"N"
                ~doc:"simulated CPUs for the second run (>= 1)"));
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "systematically explore a scenario's schedules with the DPOR \
            model checker: every reordering of equal-time fibres (pruned by \
            sleep sets and dynamic partial-order reduction, or by a \
            preemption bound), each swept by the structural sanitizer at \
            every engine event and judged by the scenario's oracle \
            ($(b,pressure), $(b,contend-model): the sequential flat-memory \
            model's serializations; the other scenarios: agreement with \
            the first schedule, as $(b,chorus check) judges its seeds).  \
            On a violation the minimal offending schedule is \
            replayed, written out as a crash bundle for $(b,chorus replay) \
            and can be saved with $(b,--schedule-out).  $(b,--inject) arms \
            a named fault (recorded in the bundle) to force a failure")
      Term.(
        const explore $ scenario_arg
        $ Arg.(
            value
            & opt (some int) None
            & info [ "bound" ] ~docv:"K"
                ~doc:
                  "preemption-bounded DFS with at most $(docv) preemptions \
                   instead of exhaustive DPOR")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "max-schedules" ] ~docv:"N"
                ~doc:
                  "stop after exploring $(docv) schedules.  Without it there \
                   is no budget: exhaustive DPOR on a kernel scenario such \
                   as $(b,contend) or $(b,storm) may run for minutes and \
                   print nothing until it ends")
        $ Arg.(
            value & flag
            & info [ "stats" ] ~doc:"print the full exploration statistics")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "schedule-out" ] ~docv:"FILE"
                ~doc:"on failure, write the offending schedule as JSON")
        $ Arg.(
            value & opt_all string []
            & info [ "inject" ] ~docv:"FAULT"
                ~doc:
                  "arm a named fault injection for the exploration \
                   (repeatable): evict-claim-late, skip-insert-probe")
        $ bundle_dir_arg "explore");
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "deterministically re-execute a crash bundle written by \
            $(b,chorus check) or $(b,chorus explore): re-arm its recorded \
            fault injections, drive the engine through the bundle's \
            schedule-decision prefix with the forced-pick scheduler, and \
            require the identical failure — same kind, same per-PVM \
            Inspect digests, same sanitizer verdicts.  Exit 0 when \
            reproduced, 1 when the replay diverges, 2 when the bundle \
            cannot be read")
      Term.(
        const replay_bundle
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"BUNDLE" ~doc:"path to a chorus-bundle/2 JSON"));
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "run a scenario and print its metrics-registry report (counters, \
            fault-latency histograms, per-primitive attribution)")
      Term.(
        const stats $ scenario_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "json" ] ~docv:"FILE"
                ~doc:
                  "additionally write the report as machine-readable JSON \
                   (schema chorus-stats/1) to $(docv)")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "domains" ] ~docv:"N"
                ~doc:
                  "run on $(docv) simulated CPUs: affinity-classed fibres \
                   run as lane slices, and per-CPU busy/idle counters \
                   appear under engine.cpuN.*"));
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "run a scenario with tracing enabled and print the \
            cost-attribution profile: hierarchical cost tree (per \
            fault-resolution kind, per primitive, per cache), counter \
            series, residency snapshot, and the \xc2\xa75.3.2 overhead \
            decomposition derived from the measured charges.  For \
            $(b,decomp), the Table 6/7 cell shapes, the Mach-style shadow \
            baseline's twin is profiled too and both derived \
            decompositions are checked against the paper (exit 1 beyond \
            5%)")
      Term.(
        const profile $ scenario_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "folded" ] ~docv:"FILE"
                ~doc:
                  "write folded stacks (flamegraph.pl / speedscope \
                   compatible) to $(docv)")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "json" ] ~docv:"FILE"
                ~doc:
                  "write the profile as JSON (schema chorus-profile/1) to \
                   $(docv)"));
  ]

let () =
  let doc = "the Chorus GMI/PVM reproduction" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Wherever a subcommand takes $(b,--domains) N, N is a number of \
         simulated CPUs, not of OS domains: every run executes on one OS \
         domain, fibres with a non-zero affinity run as lane slices, and \
         each lane slice is placed on one of the N simulated CPUs.  \
         Runs are deterministic at every N.";
    ]
  in
  exit (Cmd.eval (Cmd.group (Cmd.info "chorus" ~doc ~man) cmds))
