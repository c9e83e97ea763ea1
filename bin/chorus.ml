(* chorus — a small CLI over the reproduction.

   Subcommands:
     info               print the system inventory and versions
     fig3               replay the paper's Figure 3 scenarios
     fork N             run the shell fork pattern and report stats
     dsm N              ping-pong a page between two sites N times
     inspect            build a small scenario and dump the live
                        Figure 2 structures
     trace SCENARIO     capture a Chrome trace of a scenario
     stats SCENARIO     print the metrics-registry report of a scenario
     check SCENARIO     sanitizer + schedule-perturbation harness
     crossval           sequential-vs-parallel digest cross-validation
     bench              parallel fault-throughput microbenchmark
     explore SCENARIO   DPOR schedule exploration
     profile SCENARIO   cost-attribution profile
     replay BUNDLE      deterministically re-execute a crash bundle

   SCENARIO names an entry of the Check.Scenario registry; the
   interactive fig3/fork/dsm commands keep their own printing variants
   (free cost profile, N rounds, counters measured after setup).

   Failure forensics: check and explore write a crash bundle
   (Obs.Bundle, schema chorus-bundle/2) whenever a sanitizer sweep, a
   blocking-discipline breach, the watchdog or an uncaught exception
   kills a run; the bundle carries the engine's decision log and the
   tail of the run's trace, and replay re-drives the recorded schedule
   decision-for-decision and asserts the same failure reappears.

   The full evaluation lives in bench/main.exe; the walkthroughs in
   examples/. *)

open Cmdliner

let ps = 8192

let in_sim f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () -> f engine)

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
     examples/quickstart.exe (and six more)\n"

let fig3 () =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:256 ~cost:Hw.Cost.free ~engine () in
      let ctx = Core.Context.create pvm in
      let mk base =
        let cache = Core.Cache.create pvm () in
        let _ =
          Core.Region.create pvm ctx ~addr:base ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        cache
      in
      let src = mk 0 and cpy1 = mk (1024 * ps) and cpy2 = mk (2048 * ps) in
      Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps '1');
      let copy dst =
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(4 * ps) ()
      in
      copy cpy1;
      Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps 'X');
      copy cpy2;
      Format.printf "%a@." Core.Pvm.pp_history_tree src)

let fork n =
  in_sim (fun engine ->
      let site = Nucleus.Site.create ~frames:2048 ~engine () in
      let images = Mix.Image.create_store site in
      let _ =
        Mix.Image.add_image images ~name:"sh"
          ~text:(Bytes.make (4 * ps) 'T')
          ~data:(Bytes.make (4 * ps) 'D')
          ()
      in
      let m = Mix.Process.create_manager site images in
      let shell = Mix.Process.spawn_init m ~image:"sh" in
      Core.Pvm.reset_stats site.Nucleus.Site.pvm;
      let t0 = Hw.Engine.now engine in
      for i = 1 to n do
        let child = Mix.Process.fork m shell in
        Mix.Process.write shell ~addr:Mix.Process.data_base
          (Bytes.make 32 (Char.chr (65 + (i mod 26))));
        Mix.Process.exit_ m child ~status:0;
        ignore (Mix.Process.wait m shell)
      done;
      let stats = Core.Pvm.stats site.Nucleus.Site.pvm in
      Printf.printf
        "%d fork/exit rounds: %.2f sim-ms, %d pages really copied, %d \
         history objects, invariants %s\n"
        n
        (float_of_int (Hw.Engine.now engine - t0) /. 1e6)
        stats.Core.Types.n_cow_copies stats.n_history_created
        (match Core.Pvm.check_invariant site.Nucleus.Site.pvm with
        | [] -> "OK"
        | e -> String.concat "; " e))

let dsm n =
  in_sim (fun engine ->
      let seg =
        Dsm.Coherent.create ~latency:(Hw.Sim_time.ms 2) ~size:(4 * ps)
          ~page_size:ps ()
      in
      let mk () =
        let pvm = Core.Pvm.create ~frames:32 ~engine () in
        let site = Dsm.Coherent.attach seg pvm in
        let ctx = Core.Context.create pvm in
        let _ =
          Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write (Dsm.Coherent.cache site) ~offset:0
        in
        (pvm, ctx)
      in
      let a = mk () and b = mk () in
      let t0 = Hw.Engine.now engine in
      for i = 1 to n do
        let pvm, ctx = if i mod 2 = 0 then a else b in
        Core.Pvm.write pvm ctx ~addr:0
          (Bytes.of_string (Printf.sprintf "round-%d" i))
      done;
      let stats = Dsm.Coherent.stats seg in
      Printf.printf
        "%d alternating writes: %.1f sim-ms, %d transfers, %d \
         invalidations\n"
        n
        (float_of_int (Hw.Engine.now engine - t0) /. 1e6)
        stats.Dsm.Coherent.page_transfers stats.invalidations)

let inspect () =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:64 ~cost:Hw.Cost.free ~engine () in
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _ =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write src ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make (2 * ps) 's');
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(4 * ps) ();
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 8 'w');
      Format.printf "%a@.@.%a@." Core.Inspect.pp_state pvm
        Core.Inspect.pp_context ctx)

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

(* SCENARIO help text: the registry plus a command's extras. *)
let scenario_doc extra =
  "one of: " ^ String.concat ", " (scenario_names @ extra)

let write_file ~cmd file contents =
  try Out_channel.with_open_text file (fun oc -> output_string oc contents)
  with Sys_error msg ->
    Printf.eprintf "chorus %s: %s\n" cmd msg;
    exit 1

let check_domains ~cmd = function
  | Some d when d < 1 ->
    Printf.eprintf "chorus %s: --domains must be >= 1\n" cmd;
    exit 2
  | d -> d

(* A fresh engine with an enabled tracer attached. *)
let traced_engine ?domains () =
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create ?domains () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  (engine, tr)

let trace scenario out domains =
  let domains = check_domains ~cmd:"trace" domains in
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
  let domains = check_domains ~cmd:"stats" domains in
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
  let many = List.length pvms > 1 in
  List.iteri
    (fun i pvm ->
      if many then Format.printf "=== pvm %d ===@." i;
      Format.printf "%a@." Obs.Metrics.pp (Core.Pvm.metrics pvm))
    pvms;
  match json_out with
  | None -> ()
  | Some file ->
    write_file ~cmd:"stats" file
      (Printf.sprintf "{\"schema\":\"chorus-stats/1\",\"pvms\":[%s]}\n"
         (String.concat ","
            (List.map (fun pvm -> Obs.Metrics.to_json (Core.Pvm.metrics pvm))
               pvms)));
    Printf.printf "wrote %s\n" file

(* chorus profile SCENARIO: capture a trace of the scenario, fold it
   into the hierarchical cost tree and print the attribution report —
   including the derived §5.3.2 decomposition and an Inspect-based
   residency/pressure snapshot of every PVM the scenario built.

   The synthetic scenario [decomp] replays the Table 6 / Table 7 cell
   shapes (1024 Kb region, 128 touched pages) under tracing for BOTH
   implementations — Chorus PVM and the Mach-style shadow baseline, on
   separate engines so their charges cannot mix — and checks each
   derived decomposition against the paper's published numbers. *)

let run_traced f =
  let engine, tr = traced_engine () in
  let r = f engine in
  (r, Obs.Profile.of_trace tr)

(* One Table-6 cycle (zero-fill 128 pages of a 1024 Kb region) then
   one Table-7 cycle (deferred copy, 128 source pages really copied),
   everything torn down so teardown frees balance fault-time
   allocations — the shapes bench/tables.ml measures. *)
let decomp_pages = 128

let decomp_size = 1024 * 1024

let decomp_chorus engine =
  let size = decomp_size and pages = decomp_pages in
  let pvm = Core.Pvm.create ~frames:600 ~engine () in
  let ctx = Core.Context.create pvm in
  let cache = Core.Cache.create pvm () in
  let region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write cache
      ~offset:0
  in
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm region;
  Core.Cache.destroy pvm cache;
  let src = Core.Cache.create pvm () in
  let src_region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write src
      ~offset:0
  in
  for p = 0 to (size / ps) - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  let copy = Core.Cache.create pvm () in
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst:copy ~dst_off:0
    ~size ();
  let copy_region =
    Core.Region.create pvm ctx ~addr:0x4000_0000 ~size
      ~prot:Hw.Prot.read_write copy ~offset:0
  in
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm copy_region;
  Core.Cache.destroy pvm copy;
  Core.Region.destroy pvm src_region;
  Core.Cache.destroy pvm src

let decomp_mach engine =
  let size = decomp_size and pages = decomp_pages in
  let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
  let sp = Shadow.Shadow_vm.space_create vm in
  let e =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm e;
  let src =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to (size / ps) - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  let copy =
    Shadow.Shadow_vm.copy_entry vm src ~dst_space:sp ~dst_addr:0x4000_0000
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm copy;
  Shadow.Shadow_vm.entry_destroy vm src

(* The paper's §5.3.2 per-page / per-copy overheads (ms), including
   the Mach equivalents recomputed from Tables 6/7 by the paper's own
   formulas: demand = (t(1024K,128) - t(1024K,0))/128 - bzero;
   cow = (c(1024K,128) - c(1024K,0))/128 - bcopy;
   tree = c(8K,0) - z(8K,0); protect = (c(1024K,0) - c(8K,0))/127. *)
let paper_chorus =
  [ ("demand-alloc", 0.270); ("cow", 0.310); ("tree-setup", 0.030);
    ("protect", 0.016) ]

let paper_mach =
  [ ("demand-alloc", 0.5277); ("cow", 0.5792); ("tree-setup", 1.130);
    ("protect", 0.0030) ]

let check_derived label (d : Obs.Profile.derived) paper =
  Format.printf "@.%s — derived vs paper (§5.3.2):@." label;
  Format.printf
    "  %d zero-fill faults, %d COW faults, %d copies, teardown share %.4f \
     ms/frame@."
    d.Obs.Profile.zero_fill_faults d.cow_faults d.copies
    (d.teardown_share_ns /. 1e6);
  let worst = ref 0.0 in
  let row name per measured =
    let paper_ms = List.assoc name paper in
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
  let in_run body engine = Hw.Engine.run_fn engine (fun () -> body engine) in
  let (), chorus_prof = run_traced (in_run decomp_chorus) in
  let (), mach_prof = run_traced (in_run decomp_mach) in
  Format.printf "=== Chorus (PVM, history objects) ===@.%a@." Obs.Profile.pp
    chorus_prof;
  Format.printf "=== Mach baseline (shadow objects) ===@.%a@." Obs.Profile.pp
    mach_prof;
  let w1 =
    check_derived "Chorus" (Obs.Profile.derive chorus_prof) paper_chorus
  in
  let w2 =
    check_derived "Mach baseline" (Obs.Profile.derive mach_prof) paper_mach
  in
  Format.printf "@.worst deviation from paper: %.1f%% (threshold 5%%)@."
    (Float.max w1 w2);
  Option.iter
    (fun file ->
      let prefix tag prof =
        Obs.Profile.to_folded prof |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> tag ^ ";" ^ l)
      in
      write_file ~cmd:"profile" file
        (String.concat "\n"
           (prefix "chorus" chorus_prof @ prefix "mach" mach_prof)
        ^ "\n");
      Printf.printf "wrote %s (folded stacks)\n" file)
    folded;
  Option.iter
    (fun file ->
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "chorus-profile-decomp/1");
            ("chorus", Obs.Profile.to_json chorus_prof);
            ("mach", Obs.Profile.to_json mach_prof);
          ]
      in
      write_file ~cmd:"profile" file (Obs.Json.to_string doc ^ "\n");
      Printf.printf "wrote %s\n" file)
    json_out;
  if Float.max w1 w2 > 5.0 then begin
    Printf.eprintf
      "chorus profile decomp: derived decomposition deviates more than 5%% \
       from the paper\n";
    exit 1
  end

let profile scenario folded json_out =
  if String.equal scenario "decomp" then profile_decomp folded json_out
  else begin
    let scen = find_scenario scenario in
    let pvms, prof =
      run_traced (fun engine -> fst (Check.Scenario.exec engine scen))
    in
    Format.printf "%a@." Obs.Profile.pp prof;
    let residencies = List.map Core.Inspect.residency pvms in
    let many = List.length residencies > 1 in
    List.iteri
      (fun i r ->
        if many then Format.printf "=== pvm %d ===@." i;
        Format.printf "%a@." Core.Inspect.pp_residency r)
      residencies;
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

(* chorus check SCENARIO: run under the sanitizer and the
   schedule-perturbation harness.  One reference run in spawn/wake
   order, then one per seed under Hw.Engine.seeded_scheduler, which
   legally permutes equal-time fibres; every run must pass the
   quiescent invariant sweep and the §3.3.3 blocking-discipline
   analysis of its trace, and the runs must agree as the scenario's
   oracle demands: Schedule_independent — stats, frame-pool occupancy,
   Inspect state and memory contents equal to the reference run's;
   No_oracle — memory contents equal; Outcomes — every observation one
   of the program's serializations. *)
let check scenario seeds every_event bundle_dir =
  let scen = find_scenario scenario in
  let failures = ref 0 in
  let fail label fmt =
    incr failures;
    Format.eprintf ("%s: " ^^ fmt ^^ "@.") label
  in
  (* Exit discipline: 1 = a violation was found (and bundled), 2 = the
     harness itself broke (also bundled, as kind "crash"). *)
  let write_bundle ~kind ~detail ~engine ~pvms =
    let bundle =
      Check.Forensics.capture_live ~scenario ~kind ~detail ~engine ~pvms ()
    in
    let path = Obs.Bundle.write ~dir:bundle_dir bundle in
    Printf.eprintf
      "chorus check: wrote crash bundle %s (re-drive it with: chorus replay \
       %s)\n"
      path path
  in
  let run_one label seed =
    let engine, tr = traced_engine () in
    Option.iter
      (fun s -> Hw.Engine.set_scheduler engine (Hw.Engine.seeded_scheduler s))
      seed;
    Hw.Engine.enable_watchdog engine ();
    let registered = ref [] in
    let register pvm = registered := pvm :: !registered in
    if every_event then
      Hw.Engine.set_event_hook engine (fun () ->
          (* fail fast — [Sanitizer.Failed] freezes the PVM exactly at
             the first bad event, which is what the bundle wants *)
          List.iter
            (fun pvm -> Check.Sanitizer.assert_ok ~strict:false ~label pvm)
            !registered);
    let observe =
      try Hw.Engine.run_fn engine (fun () -> scen.run engine ~register)
      with e ->
        let bundle kind detail =
          write_bundle ~kind ~detail ~engine ~pvms:(List.rev !registered)
        in
        (match e with
        | Check.Sanitizer.Failed detail ->
          bundle "invariant" detail;
          fail label "structural sweep failed mid-run:@,%s" detail
        | Hw.Engine.Watchdog diag ->
          bundle "watchdog" diag;
          fail label "watchdog: %s" diag
        | Hw.Engine.Deadlock n ->
          let detail =
            Printf.sprintf "%d fibre(s) still suspended\n%s" n
              (Hw.Engine.blocked_report engine)
          in
          bundle "deadlock" detail;
          fail label "deadlock: %s" detail
        | e ->
          bundle "crash" (Printexc.to_string e);
          Printf.eprintf "chorus check %s: harness error: %s\n" scenario
            (Printexc.to_string e);
          exit 2);
        Printf.eprintf "chorus check %s: %d failure(s)\n" scenario !failures;
        exit 1
    in
    let pvms = List.rev !registered in
    List.iteri
      (fun i pvm ->
        match Check.Sanitizer.run ~strict:true pvm with
        | [] -> ()
        | vs ->
          write_bundle ~kind:"invariant"
            ~detail:
              (Format.asprintf "%a"
                 (fun ppf () -> Check.Sanitizer.report ppf pvm vs)
                 ())
            ~engine ~pvms;
          fail label "pvm %d failed the quiescent sweep:@,%a" i
            (fun ppf -> Check.Sanitizer.report ppf pvm)
            vs)
      pvms;
    List.iter
      (fun v -> fail label "%a" Check.Blocking.pp_violation v)
      (Check.Blocking.analyze tr);
    let stats_str =
      String.concat "\n"
        (List.map
           (fun pvm ->
             Format.asprintf "%a used=%d" Core.Types.pp_stats
               (Core.Pvm.stats pvm)
               (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm)))
           pvms)
    in
    let state = Check.Scenario.digest pvms in
    (* last: the observation and the read-back may fault pages in *)
    let observed = Hw.Engine.run_fn engine observe in
    (stats_str, state, observed, Check.Scenario.contents engine pvms)
  in
  let ((ref_stats, ref_state, _, ref_contents) as fifo) = run_one "fifo" None in
  let judge label (stats_str, state, observed, contents) =
    (* even racing scenarios must converge to one memory content here:
       contend's writers store constant bytes at disjoint offsets *)
    let same_contents () =
      if not (String.equal contents ref_contents) then
        fail label
          "schedule-dependent memory contents: read-back digest %s, fifo had \
           %s"
          contents ref_contents
    in
    match scen.oracle with
    | Check.Scenario.Schedule_independent ->
      if not (String.equal stats_str ref_stats) then
        fail label "schedule-dependent outcome:@,--- fifo@,%s@,--- %s@,%s"
          ref_stats label stats_str;
      if not (String.equal state ref_state) then
        fail label
          "schedule-dependent observable state: Inspect.digest %s, fifo had %s"
          state ref_state;
      same_contents ()
    | No_oracle -> same_contents ()
    | Outcomes set ->
      if not (Hashtbl.mem (Lazy.force set) observed) then
        fail label "outcome %s matches none of the program's serializations"
          observed
  in
  judge "fifo" fifo;
  for seed = 1 to seeds do
    let label = Printf.sprintf "seed %d" seed in
    judge label (run_one label (Some seed))
  done;
  if !failures = 0 then
    Printf.printf
      "chorus check %s: OK — fifo + %d seed(s)%s; quiescent sweep and \
       blocking discipline hold; %s\n"
      scenario seeds
      (if every_event then ", per-event structural sweep" else "")
      (match scen.oracle with
      | Schedule_independent ->
        "memory contents schedule-independent; outcome and state \
         schedule-independent"
      | No_oracle -> "memory contents schedule-independent"
      | Outcomes _ -> "every outcome one of the program's serializations")
  else begin
    Printf.eprintf "chorus check %s: %d failure(s)\n" scenario !failures;
    exit 1
  end

(* Validate the runtime may-hold-while-acquiring pairs recorded by
   Obs.Lockstat against the hierarchy chorus-lint enforces statically
   (Lint.Lock_order) — the dynamic half of the L6 loop: the declared
   order can never silently drift from what the engine actually does.
   A pair involving a lock class outside the catalogue is itself a
   violation: every engine mutex must carry its class tag. *)
let check_order_witnesses ~label =
  let pairs = Obs.Lockstat.witness_pairs () in
  let bad =
    List.filter
      (fun (held, acq, _) ->
        match (Lint.Lock_order.of_name held, Lint.Lock_order.of_name acq) with
        | Some h, Some a -> not (Lint.Lock_order.allows ~held:h ~acq:a)
        | _ -> true)
      pairs
  in
  if bad = [] then
    Printf.printf
      "%s: order witnesses OK — %d pair(s) within the Lint.Lock_order \
       hierarchy%s\n"
      label (List.length pairs)
      (if pairs = [] then ""
       else
         ": "
         ^ String.concat ", "
             (List.map
                (fun (h, a, n) -> Printf.sprintf "%s<%s x%d" h a n)
                pairs))
  else begin
    List.iter
      (fun (h, a, n) ->
        Printf.eprintf
          "%s: lock-order violation — acquired %s while holding %s (%d \
           time(s))\n"
          label a h n)
      bad;
    exit 1
  end

(* chorus crossval: the oracle-twin gate.  Every kernel workload of the
   registry runs twice from scratch — once on the cooperative
   sequential engine, once on the domain-parallel engine — and the
   concatenated Inspect digests must match byte-for-byte.  They are
   serial-class programs (the parallel engine runs them in exact heap
   order), so any divergence is an engine bug; [storm] additionally
   spawns genuinely concurrent affinity-classed workers whose final
   state is deterministic by construction.  The Model programs are
   explore fixtures, judged against Check.Model's serializations; the
   unit suite crossvals them too. *)
let crossval domains =
  Obs.Lockstat.enable_witnessing ();
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
  if bad = [] then begin
    Printf.printf
      "chorus crossval: OK — %d scenario(s) digest-identical, sequential vs \
       %d domain(s)\n"
      (List.length outcomes) domains;
    check_order_witnesses ~label:"chorus crossval"
  end
  else begin
    Printf.eprintf "chorus crossval: %d scenario(s) diverged\n"
      (List.length bad);
    exit 1
  end

(* chorus bench: the contended many-context fault-throughput
   microbenchmark, standalone.  Runs Crossval's storm on the
   sequential engine (the digest oracle), on the 1-domain pool (the
   uniprocessor model — the throughput baseline) and on the requested
   domain count, and reports faults per simulated second.  The full
   sweep with wall-clock columns lives in the bench harness
   (bench/main.exe parallel). *)
let bench domains workers pages rounds with_stats =
  if domains < 1 then begin
    Printf.eprintf "chorus bench: --domains must be >= 1\n";
    exit 2
  end;
  (* Wall-clock wait/hold columns of the contention report; counts are
     maintained regardless.  Timing never touches the simulated clock,
     so the digest checks below are unaffected. *)
  if with_stats then
    Obs.Lockstat.enable_timing ~clock:(fun () ->
        int_of_float (Unix.gettimeofday () *. 1e9));
  Obs.Lockstat.enable_witnessing ();
  let scen = Check.Scenario.storm ~workers ~pages ~rounds () in
  let run_once d =
    let engine =
      Hw.Engine.create ?domains:(if d = 0 then None else Some d) ()
    in
    let pvms, _ = Check.Scenario.exec engine scen in
    let faults =
      List.fold_left
        (fun acc pvm -> acc + (Core.Pvm.stats pvm).Core.Types.n_faults)
        0 pvms
    in
    (faults, Hw.Engine.now engine, Check.Scenario.digest pvms, engine, pvms)
  in
  Printf.printf
    "chorus bench: storm %d workers x %d pages x %d rounds, %d domain(s)\n"
    workers pages rounds domains;
  let _, _, seq_digest, _, _ = run_once 0 in
  let uni_faults, uni_sim, uni_digest, _, _ = run_once 1 in
  let faults, sim, digest, engine, pvms = run_once domains in
  let tp f s = float_of_int f /. Hw.Sim_time.to_ms_float s *. 1e3 in
  Printf.printf "  1 domain : %7d faults in %10.1f sim ms = %8.0f faults/sim-s\n"
    uni_faults
    (Hw.Sim_time.to_ms_float uni_sim)
    (tp uni_faults uni_sim);
  Printf.printf
    "  %d domains: %7d faults in %10.1f sim ms = %8.0f faults/sim-s \
     (%.2fx the uniprocessor)\n"
    domains faults
    (Hw.Sim_time.to_ms_float sim)
    (tp faults sim)
    (tp faults sim /. tp uni_faults uni_sim);
  if with_stats then begin
    let makespan = Hw.Engine.now engine in
    Format.printf "@.%a@."
      (fun ppf () ->
        Obs.Profile.pp_utilization ppf ~busy:(Hw.Engine.cpu_busy engine)
          ~makespan)
      ();
    let snaps =
      Hw.Engine.pool_lock_stats engine
      @ List.concat_map Core.Pvm.lock_stats pvms
    in
    Format.printf "%a@." Obs.Profile.pp_contention
      (Obs.Profile.contention snaps);
    (* Hot-shard attribution: the summed gmap counters hide skew. *)
    List.iter
      (fun pvm ->
        let gm = pvm.Core.Types.gmap in
        let probes = Core.Shard_map.probes_per_shard gm in
        let waits = Core.Shard_map.lock_waits_per_shard gm in
        Format.printf "@[<v>gmap shards (probes / lock waits):@,";
        Array.iteri
          (fun i p ->
            Format.printf "  shard%-3d %10d %10d@," i p waits.(i))
          probes;
        Format.printf "@]@.")
      pvms
  end;
  if
    (not (String.equal digest seq_digest))
    || not (String.equal uni_digest seq_digest)
  then begin
    Printf.eprintf
      "chorus bench: parallel digest diverged from the sequential oracle\n";
    exit 1
  end;
  Printf.printf "  digests match the sequential oracle\n";
  check_order_witnesses ~label:"chorus bench"

(* chorus explore SCENARIO: systematic schedule exploration with the
   Check.Explore DPOR model checker, every schedule's observation
   judged by the scenario's oracle — [pressure] and [contend-model]
   run Check.Model programs through the full PVM against the model's
   serializations ([pressure] being also CI's forced-failure fixture
   under an armed [evict-claim-late] injection); the schedule-
   independent kernel workloads assert their Inspect digest. *)
let explore scenario bound max_schedules show_stats schedule_out inject
    bundle_dir =
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
    (match Check.Explore.replay scen v with
    | `Violation (kind, _) ->
      Format.eprintf "replay of the offending schedule reproduces: %s@." kind
    | `Done _ | `Sleep ->
      Format.eprintf "warning: replay did not reproduce the violation@.");
    let bundle, _ = Check.Forensics.capture ~inject scen v in
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

let n_arg ~doc default =
  Arg.(value & pos 0 int default & info [] ~docv:"N" ~doc)

let scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO" ~doc:(scenario_doc []))

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
    Cmd.v (Cmd.info "fig3" ~doc:"replay the paper's Figure 3")
      Term.(const fig3 $ const ());
    Cmd.v
      (Cmd.info "fork" ~doc:"run N fork/exit rounds on Chorus/MIX")
      Term.(const fork $ n_arg ~doc:"number of forks" 16);
    Cmd.v
      (Cmd.info "dsm" ~doc:"ping-pong a shared page between two sites")
      Term.(const dsm $ n_arg ~doc:"number of writes" 10);
    Cmd.v
      (Cmd.info "inspect" ~doc:"dump live PVM structures for a tiny scenario")
      Term.(const inspect $ const ());
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
                  "run on the domain-parallel engine with $(docv) worker \
                   domains; the merged trace carries one track per \
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
        $ bundle_dir_arg "check");
    Cmd.v
      (Cmd.info "crossval"
         ~doc:
           "run every kernel workload of the scenario registry on the \
            sequential engine and again on the domain-parallel engine and require byte-identical observable \
            digests — the oracle-twin refinement gate for the parallel \
            run mode (exit 1 on any divergence)")
      Term.(
        const crossval
        $ Arg.(
            value & opt int 4
            & info [ "domains" ] ~docv:"N"
                ~doc:"worker-domain count for the parallel run (>= 1)"));
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "run the contended many-context fault storm on the \
            domain-parallel engine and report fault throughput in \
            simulated time against the 1-domain uniprocessor model \
            (digests are checked against the sequential oracle; exit 1 \
            on divergence)")
      Term.(
        const bench
        $ Arg.(
            value & opt int 4
            & info [ "domains" ] ~docv:"N"
                ~doc:"simulated CPU / worker-domain count (>= 1)")
        $ Arg.(
            value & opt int 16
            & info [ "workers" ] ~docv:"N" ~doc:"faulting contexts")
        $ Arg.(
            value & opt int 64
            & info [ "pages" ] ~docv:"N" ~doc:"pages per context")
        $ Arg.(
            value & opt int 2
            & info [ "rounds" ] ~docv:"N" ~doc:"passes over each working set")
        $ Arg.(
            value & flag
            & info [ "stats" ]
                ~doc:
                  "after the parallel run, print the per-CPU utilization \
                   table (busy/idle per simulated CPU against the \
                   makespan, parallel efficiency), the lock-contention \
                   tree (engine pool, per-PVM mm, per-shard gmap, with \
                   wall-clock wait/hold times) and the per-shard hot-shard \
                   attribution"));
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "systematically explore a scenario's schedules with the DPOR \
            model checker: every reordering of equal-time fibres (pruned by \
            sleep sets and dynamic partial-order reduction, or by a \
            preemption bound), each swept by the structural sanitizer at \
            every engine event and judged by the scenario's oracle \
            ($(b,pressure), $(b,contend-model): the sequential flat-memory \
            model's serializations; the other schedule-independent \
            scenarios: their observable digest).  On a violation the minimal offending schedule is \
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
                ~doc:"stop after exploring $(docv) schedules")
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
            & info [] ~docv:"BUNDLE" ~doc:"path to a chorus-bundle/1 JSON"));
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
                  "run on the domain-parallel engine with $(docv) worker \
                   domains; counters and histograms aggregate across \
                   domains, and per-CPU busy/idle counters appear under \
                   engine.cpuN.*"));
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "run a scenario with tracing enabled and print the \
            cost-attribution profile: hierarchical cost tree (per \
            fault-resolution kind, per primitive, per cache), counter \
            series, residency snapshot, and the \xc2\xa75.3.2 overhead \
            decomposition derived from the measured charges.  The synthetic \
            scenario $(b,decomp) replays the Table 6/7 cell shapes for both \
            the Chorus PVM and the Mach-style shadow baseline and checks \
            the derived decomposition against the paper (exit 1 beyond 5%)")
      Term.(
        const profile
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"SCENARIO" ~doc:(scenario_doc [ "decomp" ]))
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
  exit (Cmd.eval (Cmd.group (Cmd.info "chorus" ~doc) cmds))
