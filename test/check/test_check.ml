(* The checker checked: a healthy PVM must sweep clean, and seeded
   corruption of each major structure must be reported — a sanitizer
   that never fires is indistinguishable from no sanitizer.  Plus the
   blocking-discipline trace analysis on synthetic traces, and the
   determinism contract of the seeded tie-break. *)

let ps = 8192

let in_sim f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () -> f engine)

(* A small populated PVM: two caches, a history copy, one resolved
   write (so stubs, history pages and MMU mappings all exist). *)
let build engine =
  let pvm = Core.Pvm.create ~frames:64 ~engine () in
  let ctx = Core.Context.create pvm in
  let src = Core.Cache.create pvm () in
  let dst = Core.Cache.create pvm () in
  let _ =
    Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
      ~prot:Hw.Prot.read_write src ~offset:0
  in
  let _ =
    Core.Region.create pvm ctx ~addr:(1024 * ps) ~size:(4 * ps)
      ~prot:Hw.Prot.read_write dst ~offset:0
  in
  Core.Pvm.write pvm ctx ~addr:0 (Bytes.make (2 * ps) 's');
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
    ~size:(4 * ps) ();
  Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 8 'w');
  Core.Pvm.write pvm ctx ~addr:(1024 * ps) (Bytes.make 8 'd');
  (pvm, ctx)

let rules_of violations =
  List.sort_uniq compare
    (List.map (fun v -> v.Check.Sanitizer.rule) violations)

let test_clean_state_passes () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      Check.Sanitizer.assert_ok pvm;
      Alcotest.(check (list string)) "no violations" [] [])

let expect_rule pvm rule =
  let vs = Check.Sanitizer.run pvm in
  if not (List.mem rule (rules_of vs)) then
    Alcotest.failf "expected a %S violation, sweep found: %s" rule
      (String.concat "; "
         (List.map
            (Format.asprintf "%a" Check.Sanitizer.pp_violation)
            vs));
  (* and the raising entry point must fire too *)
  match Check.Sanitizer.assert_ok pvm with
  | () -> Alcotest.fail "assert_ok accepted a corrupted state"
  | exception Check.Sanitizer.Failed _ -> ()

(* Corruption 1: remove a resident page's global-map entry — the
   descriptor bijection of §4.1.1 is broken. *)
let test_catches_gmap_corruption () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let page = List.hd (Core.Inspect.pages pvm) in
      Core.Shard_map.remove pvm.Core.Types.gmap
        (page.Core.Types.p_cache.Core.Types.c_id, page.Core.Types.p_offset);
      expect_rule pvm "gmap")

(* Corruption 2: hand the MMU a writable translation for a page the
   descriptors say is read-protected (simulated pmap bug). *)
let test_catches_mmu_corruption () =
  in_sim (fun engine ->
      let pvm, ctx = build engine in
      let cow_page =
        List.find
          (fun p -> p.Core.Types.p_cow_protected)
          (Core.Inspect.pages pvm)
      in
      Hw.Mmu.map ctx.Core.Types.ctx_space
        ~vpn:(cow_page.Core.Types.p_offset / ps)
        cow_page.Core.Types.p_frame Hw.Prot.read_write;
      expect_rule pvm "mmu")

(* Corruption 3: steal a page out of the reclaim queue — the FIFO
   page-out policy would never see it again. *)
let test_catches_reclaim_corruption () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      ignore (Core.Fifo.pop pvm.Core.Types.reclaim);
      expect_rule pvm "reclaim")

(* Corruption 4: mark a mapped cache as a hidden history node. *)
let test_catches_zombie_corruption () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let mapped =
        List.find
          (fun c -> c.Core.Types.c_mappings <> [])
          pvm.Core.Types.caches
      in
      mapped.Core.Types.c_zombie <- true;
      expect_rule pvm "zombie")

(* Corruption 5: a cache's stub index disagrees with the rows it
   mirrors — a destination entry lost, or a pending offset with no
   pending row behind it. *)
let test_catches_stub_index_corruption () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let src = Core.Cache.create pvm () and dst = Core.Cache.create pvm () in
      Core.Cache.fill_up pvm src ~offset:0 (Bytes.make ps 'i');
      Core.Cache.copy pvm ~strategy:`Per_page ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(2 * ps) ();
      Check.Sanitizer.assert_ok pvm;
      Hashtbl.remove dst.Core.Types.c_dest_stubs ps;
      expect_rule pvm "stubs");
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let cache = List.hd pvm.Core.Types.caches in
      Hashtbl.replace cache.Core.Types.c_pending_offs (64 * ps) ();
      expect_rule pvm "stubs")

(* Corruption 6: an orphan pair of hidden caches keeping each other
   alive — [b] is [a]'s fragment child and [a] reads [b]'s page through
   a per-page stub — with no visible cache reading either.  The sweep
   must collect exactly such a pair. *)
let test_catches_orphan_zombie_pair () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let a = Core.Cache.create pvm () and b = Core.Cache.create pvm () in
      Core.Cache.fill_up pvm a ~offset:0 (Bytes.make ps 'a');
      Core.Cache.copy pvm ~strategy:`History ~src:a ~src_off:0 ~dst:b
        ~dst_off:0 ~size:(2 * ps) ();
      Core.Cache.write_through pvm b ~offset:0 (Bytes.make 8 'b');
      (* planted below Cache.copy, whose cycle check refuses this edge *)
      Core.Pervpage.setup_copy pvm ~src:b ~src_off:0 ~dst:a
        ~dst_off:(4 * ps) ~size:ps;
      List.iter
        (fun (c : Core.Types.cache) ->
          c.c_zombie <- true;
          c.c_is_history <- true)
        [ a; b ];
      expect_rule pvm "zombie";
      Core.Cache.sweep_zombies pvm;
      Alcotest.(check bool) "the sweep collected the pair" false
        (Core.Cache.is_alive a || Core.Cache.is_alive b);
      Check.Sanitizer.assert_ok pvm)

(* A transit entry is a strict-mode violation only: the structural
   subset must accept it (it is legal between engine events). *)
let test_transit_is_strict_only () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let cache = List.hd pvm.Core.Types.caches in
      Core.Shard_map.replace pvm.Core.Types.gmap
        (cache.Core.Types.c_id, 512 * ps)
        (Core.Types.Sync_stub (Hw.Engine.Cond.create ()));
      (match Check.Sanitizer.run ~strict:false pvm with
      | [] -> ()
      | vs ->
        Alcotest.failf "structural sweep rejected an in-transit entry: %s"
          (String.concat "; "
             (List.map
                (Format.asprintf "%a" Check.Sanitizer.pp_violation)
                vs)));
      expect_rule pvm "transit")

(* --- blocking-discipline analysis on synthetic traces ------------ *)

(* Build a trace by hand: a pullIn window on fibre 1 over [t0,t1], and
   a fault on fibre 2.  The engine is not involved; clock and fibre
   are injected closures. *)
let make_trace spans =
  let tr = Obs.Trace.create () in
  Obs.Trace.enable tr;
  let now = ref 0 and fib = ref 0 in
  Obs.Trace.set_clock tr (fun () -> !now);
  Obs.Trace.set_fibre tr (fun () -> !fib);
  List.iter
    (fun (f, t_begin, t_end, name, cat, args) ->
      fib := f;
      now := t_begin;
      Obs.Trace.span_begin tr ~cat name;
      now := t_end;
      Obs.Trace.span_end ~args tr)
    spans;
  tr

let transit ~fib ~t0 ~t1 name =
  ( fib,
    t0,
    t1,
    name,
    "pager",
    [ ("cache", Obs.Trace.Int 7); ("off", Obs.Trace.Int 0) ] )

let fault ~fib ~t0 ~t1 =
  ( fib,
    t0,
    t1,
    "fault",
    "vm",
    [ ("cache", Obs.Trace.Int 7); ("off", Obs.Trace.Int 0) ] )

let test_blocking_violation_detected () =
  let tr =
    make_trace
      [ transit ~fib:1 ~t0:100 ~t1:500 "pullIn"; fault ~fib:2 ~t0:200 ~t1:300 ]
  in
  match Check.Blocking.analyze tr with
  | [ v ] ->
    Alcotest.(check int) "intruder" 2 v.Check.Blocking.intruder_fib;
    Alcotest.(check int) "transit fibre" 1 v.Check.Blocking.transit_fib;
    Alcotest.(check string) "kind" "pullIn" v.Check.Blocking.transit
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_blocked_fault_not_flagged () =
  (* a correctly blocked fault resumes exactly at the transit's end *)
  let tr =
    make_trace
      [ transit ~fib:1 ~t0:100 ~t1:500 "pullIn"; fault ~fib:2 ~t0:200 ~t1:500 ]
  in
  Alcotest.(check int) "no violation" 0 (List.length (Check.Blocking.analyze tr))

let test_own_fibre_not_flagged () =
  (* the pulling fibre's own enclosing fault span is legal *)
  let tr =
    make_trace
      [ transit ~fib:1 ~t0:100 ~t1:500 "pullIn"; fault ~fib:1 ~t0:150 ~t1:450 ]
  in
  Alcotest.(check int) "no violation" 0 (List.length (Check.Blocking.analyze tr))

let test_clean_evict_opens_no_window () =
  let clean_evict =
    ( 1,
      100,
      500,
      "evict",
      "pager",
      [
        ("cache", Obs.Trace.Int 7);
        ("off", Obs.Trace.Int 0);
        ("dirty", Obs.Trace.Str "false");
      ] )
  in
  let tr = make_trace [ clean_evict; fault ~fib:2 ~t0:200 ~t1:300 ] in
  Alcotest.(check int) "no violation" 0 (List.length (Check.Blocking.analyze tr))

(* --- seeded scheduler ------------------------------------------- *)

(* Equal-time fibres: the default gives program order; a seed may
   permute it; the same seed must reproduce the same order exactly. *)
let test_seeded_schedules_deterministic () =
  Alcotest.(check (list int))
    "fifo = program order" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (Order.dispatch ());
  Alcotest.(check (list int))
    "same seed, same schedule" (Order.seeded 42) (Order.seeded 42);
  let distinct =
    List.exists (fun seed -> Order.seeded seed <> Order.dispatch ()) [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some seed permutes the tie" true distinct

(* --- oracle-twin cross-validation -------------------------------- *)

(* The storm workload's final state is a pure function of its
   parameters, so the parallel engine must reproduce the sequential
   digest exactly — at any domain count, at any shard count. *)
let test_crossval_storm_matches () =
  let scen = Check.Scenario.storm ~workers:4 ~pages:6 ~rounds:2 () in
  List.iter
    (fun domains ->
      let o = Check.Crossval.run_pair ~domains scen in
      Alcotest.(check bool)
        (Format.asprintf "%a" Check.Crossval.pp_outcome o)
        true o.Check.Crossval.o_ok)
    [ 1; 2; 4 ]

let test_crossval_shards_invisible () =
  let d1 =
    Check.Crossval.run_on
      (Check.Scenario.storm ~workers:3 ~pages:4 ~rounds:2 ~shards:1 ())
  in
  let d8 =
    Check.Crossval.run_on
      (Check.Scenario.storm ~workers:3 ~pages:4 ~rounds:2 ~shards:8 ())
  in
  Alcotest.(check string) "shard count never affects results" d1 d8

(* --- the scenario registry ------------------------------------- *)

(* A worker-spawning scenario must be observed at quiescence: the
   explored outcome of a small storm is the state its workers leave
   behind, i.e. exactly the digest crossval takes on the drained
   engine.  (An observation taken as soon as the main fibre returns
   sees the pre-worker state instead — the rounds:0 digest.) *)
let test_explore_observes_quiescent_state () =
  let scen = Check.Scenario.storm ~workers:2 ~pages:2 ~rounds:1 () in
  let r = Check.Explore.run ~bound:1 scen in
  Alcotest.(check bool)
    "no violation" true
    (r.Check.Explore.r_violation = None);
  Alcotest.(check (list string))
    "explored outcome = crossval digest"
    [ Check.Crossval.run_on scen ]
    (List.of_seq (Hashtbl.to_seq_keys r.Check.Explore.r_outcomes))

(* Every registry entry: the parallel engine reproduces the sequential
   digest, a FIFO and two seeded runs obey the entry's oracle, and a
   bounded exploration finds no violation. *)
let test_registry_entries () =
  List.iter
    (fun (s : Check.Scenario.t) ->
      let o = Check.Crossval.run_pair ~domains:2 s in
      Alcotest.(check bool)
        (Format.asprintf "%a" Check.Crossval.pp_outcome o)
        true o.Check.Crossval.o_ok;
      let run seed =
        let engine = Hw.Engine.create () in
        Option.iter
          (fun n ->
            Hw.Engine.set_scheduler engine (Hw.Engine.seeded_scheduler n))
          seed;
        let pvms, observe = Check.Scenario.exec engine s in
        let observed = observe () in
        (observed, Check.Scenario.contents engine pvms)
      in
      let runs = List.map run [ None; Some 1; Some 2 ] in
      let fifo_observed, fifo_contents = List.hd runs in
      List.iter
        (fun (observed, contents) ->
          match s.oracle with
          | Schedule_independent ->
            Alcotest.(check string) (s.name ^ " observation") fifo_observed
              observed
          | No_oracle ->
            Alcotest.(check string) (s.name ^ " contents") fifo_contents
              contents
          | Outcomes set ->
            Alcotest.(check bool)
              (s.name ^ " outcome is a serialization")
              true
              (Hashtbl.mem (Lazy.force set) observed))
        runs;
      let r = Check.Explore.run ~bound:1 ~max_schedules:20 s in
      match r.Check.Explore.r_violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "%s: %a" s.name Check.Explore.pp_violation v)
    Check.Scenario.all

let test_event_hook_runs () =
  let engine = Hw.Engine.create () in
  let events = ref 0 in
  Hw.Engine.set_event_hook engine (fun () -> incr events);
  Hw.Engine.run_fn engine (fun () ->
      Hw.Engine.sleep 5;
      Hw.Engine.sleep 5);
  Alcotest.(check bool)
    (Printf.sprintf "hook saw every event (%d)" !events)
    true (!events >= 3)

let () =
  Alcotest.run "check"
    [
      ( "sanitizer",
        [
          Alcotest.test_case "clean state passes" `Quick
            test_clean_state_passes;
          Alcotest.test_case "catches gmap corruption" `Quick
            test_catches_gmap_corruption;
          Alcotest.test_case "catches mmu corruption" `Quick
            test_catches_mmu_corruption;
          Alcotest.test_case "catches reclaim corruption" `Quick
            test_catches_reclaim_corruption;
          Alcotest.test_case "catches zombie corruption" `Quick
            test_catches_zombie_corruption;
          Alcotest.test_case "catches stub index corruption" `Quick
            test_catches_stub_index_corruption;
          Alcotest.test_case "catches orphan zombie pair" `Quick
            test_catches_orphan_zombie_pair;
          Alcotest.test_case "transit is strict-only" `Quick
            test_transit_is_strict_only;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "violation detected" `Quick
            test_blocking_violation_detected;
          Alcotest.test_case "blocked fault not flagged" `Quick
            test_blocked_fault_not_flagged;
          Alcotest.test_case "own fibre not flagged" `Quick
            test_own_fibre_not_flagged;
          Alcotest.test_case "clean evict opens no window" `Quick
            test_clean_evict_opens_no_window;
        ] );
      ( "harness",
        [
          Alcotest.test_case "seeded schedules deterministic" `Quick
            test_seeded_schedules_deterministic;
          Alcotest.test_case "event hook runs" `Quick test_event_hook_runs;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "storm digest matches at 1/2/4 domains" `Quick
            test_crossval_storm_matches;
          Alcotest.test_case "shard count invisible" `Quick
            test_crossval_shards_invisible;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "explore observes quiescent state" `Quick
            test_explore_observes_quiescent_state;
          Alcotest.test_case "every registry entry" `Quick
            test_registry_entries;
        ] );
    ]
