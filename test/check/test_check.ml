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
      Core.Frag_map.remove pvm.Core.Types.gmap
        page.Core.Types.p_cache.Core.Types.c_id page.Core.Types.p_offset;
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
      let q = pvm.Core.Types.reclaim in
      Core.Reclaim.remove q (Core.Reclaim.oldest q);
      expect_rule pvm "reclaim")

(* Corruption 4: mark a mapped cache as a hidden history node. *)
let test_catches_zombie_corruption () =
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let mapped =
        List.find
          (fun c -> c.Core.Types.c_mappings <> [])
          (Core.Types.caches pvm)
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
      let cache = List.hd (Core.Types.caches pvm) in
      Core.Install.index_pending cache ~off:(64 * ps);
      expect_rule pvm "stubs")

(* Corruption 6: an orphan pair of hidden caches keeping each other
   alive — [b] is [a]'s fragment child and [a] reads [b]'s page through
   a per-page stub — with no visible cache reading either, planted
   below the GMI.  The same shape built through the GMI alone
   ([Scenario.orphan_pair]) is collected as soon as its last visible
   reader goes. *)
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
      expect_rule pvm "zombie");
  in_sim (fun engine ->
      let pvm, _ = build engine in
      let pair = ref [] in
      let d = Check.Scenario.orphan_pair pvm ~on_cycle:(fun a b -> pair := [ a; b ]) in
      Core.Cache.destroy pvm d;
      Alcotest.(check bool) "the pair is collected" false
        (List.exists (fun (c : Core.Types.cache) -> c.c_alive) !pair);
      Check.Sanitizer.assert_ok pvm)

(* Leave a synchronization stub in the global map, as if a transfer
   were still in flight. *)
let plant_transit _ pvm _ =
  let cache = List.hd (Core.Types.caches pvm) in
  Core.Frag_map.replace pvm.Core.Types.gmap cache.Core.Types.c_id (512 * ps)
    (Core.Types.Sync_stub (Hw.Engine.Cond.create ()))

(* A transit entry is a strict-mode violation only: the structural
   subset must accept it (it is legal between engine events). *)
let test_transit_is_strict_only () =
  in_sim (fun engine ->
      let pvm, ctx = build engine in
      plant_transit engine pvm ctx;
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
   parameters, so its lanes must reproduce the sequential digest
   exactly — at any simulated CPU count. *)
let test_crossval_storm_matches () =
  let scen = Check.Scenario.storm ~workers:4 ~pages:6 ~rounds:2 () in
  List.iter
    (fun domains ->
      let o = Check.Crossval.run_pair ~domains scen in
      Alcotest.(check bool)
        (Format.asprintf "%a" Check.Crossval.pp_outcome o)
        true o.Check.Crossval.o_ok)
    [ 1; 2; 4 ]

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

let show_failure (f : Check.Harness.failure) = f.kind ^ ": " ^ f.detail

(* A harness run that must end clean: no failure, no blocking breach. *)
let clean_obs label (r : Check.Harness.t) =
  List.iter
    (fun v ->
      Alcotest.failf "%s: %a" label Check.Blocking.pp_violation v)
    r.blocking;
  match r.ending with
  | Ok obs -> obs
  | Error f -> Alcotest.failf "%s: %s" label (show_failure f)

(* Every registry entry: 2 simulated CPUs reproduce the sequential
   digest; FIFO and seeds 1 and 2 at 0 and 2 CPUs, each with the
   per-event sweep on, end clean and are accepted by the judge against
   the sequential FIFO run; a bounded exploration finds no
   violation. *)
let test_registry_entries () =
  List.iter
    (fun (s : Check.Scenario.t) ->
      let o = Check.Crossval.run_pair ~domains:2 s in
      Alcotest.(check bool)
        (Format.asprintf "%a" Check.Crossval.pp_outcome o)
        true o.Check.Crossval.o_ok;
      let run domains seed =
        let label =
          Printf.sprintf "%s, %d domains, seed %s" s.name domains
            (Option.fold ~none:"fifo" ~some:string_of_int seed)
        in
        ( label,
          clean_obs label
            (Check.Harness.run ~domains ?seed ~every_event:true s) )
      in
      let runs =
        List.concat_map
          (fun domains -> List.map (run domains) [ None; Some 1; Some 2 ])
          [ 0; 2 ]
      in
      let reference = snd (List.hd runs) in
      List.iter
        (fun (label, obs) ->
          match Check.Harness.judge s ~reference obs with
          | None -> ()
          | Some (kind, detail) ->
            Alcotest.failf "%s: %s: %s" label kind detail)
        runs;
      let r = Check.Explore.run ~bound:1 ~max_schedules:20 s in
      match r.Check.Explore.r_violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "%s: %a" s.name Check.Explore.pp_violation v)
    Check.Scenario.all

(* The deep checkers on a 2-CPU storm whose workers run as lane
   slices: seeded scheduler, watchdog, tracer and the per-event sweep;
   the run ends clean and matches the sequential digest. *)
let test_storm_checked_on_pool () =
  let scen = Check.Scenario.storm () in
  let obs =
    clean_obs "storm"
      (Check.Harness.run ~domains:2 ~seed:1 ~every_event:true scen)
  in
  Alcotest.(check string) "sequential digest" (Check.Crossval.run_on scen)
    obs.state

(* --- the harness ------------------------------------------------- *)

(* A one-PVM scenario running [body engine pvm ctx] in the main fibre
   on the small populated state of [build]. *)
let scenario body =
  {
    Check.Scenario.name = "harness-fixture";
    oracle = No_oracle;
    run =
      (fun engine ~register ->
        let pvm, ctx = build engine in
        register pvm;
        body engine pvm ctx;
        fun () -> Check.Scenario.digest [ pvm ]);
  }

let expect_failure ?every_event ?(domains = 0) kind scen =
  match (Check.Harness.run ~domains ?every_event scen).ending with
  | Ok _ -> Alcotest.failf "expected a %S ending, the run was clean" kind
  | Error f ->
    Alcotest.(check string) ("kind of " ^ show_failure f) kind f.kind;
    f

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* Sanitizer.Failed: a gmap entry removed for one event and put back.
   The per-event sweep sees it (and names the rule); without it the
   repaired state passes the quiescent sweep. *)
let test_harness_per_event_sweep () =
  let transient =
    scenario (fun _ pvm _ ->
        let page = List.hd (Core.Inspect.pages pvm) in
        let cid = page.Core.Types.p_cache.Core.Types.c_id
        and off = page.Core.Types.p_offset in
        let gmap = pvm.Core.Types.gmap in
        let entry = Option.get (Core.Frag_map.find_opt gmap cid off) in
        Core.Frag_map.remove gmap cid off;
        Hw.Engine.sleep 1;
        Core.Frag_map.replace gmap cid off entry)
  in
  List.iter
    (fun domains ->
      let f = expect_failure ~every_event:true ~domains "invariant" transient in
      Alcotest.(check (list string)) "rule ids" [ "gmap" ] f.rules;
      ignore
        (clean_obs "no per-event sweep" (Check.Harness.run ~domains transient)))
    [ 0; 2 ]

(* The quiescent sweep is strict: an entry left in transit at the end
   is an "invariant" failure carrying the strict-only rule. *)
let test_harness_quiescent_sweep_strict () =
  let f = expect_failure "invariant" (scenario plant_transit) in
  Alcotest.(check bool) "transit among the rules" true
    (List.mem "transit" f.rules)

let test_harness_watchdog () =
  (* each fibre holds one resource and, once both are held, waits for
     the other's: the second park closes the blocked-on cycle *)
  let cross_block engine _ _ =
    let r1 = Hw.Engine.Cond.create () and r2 = Hw.Engine.Cond.create () in
    let holder ~held ~on r () =
      Hw.Engine.Cond.set_owner held (Hw.Engine.current_fibre engine);
      Hw.Engine.sleep 1;
      Hw.Engine.declare_wait engine ~on ~owner:(Hw.Engine.Cond.owner r) ();
      Hw.Engine.Cond.wait r
    in
    Hw.Engine.spawn engine ~name:"a" (holder ~held:r1 ~on:"r2" r2);
    Hw.Engine.spawn engine ~name:"b" (holder ~held:r2 ~on:"r1" r1)
  in
  let f = expect_failure "watchdog" (scenario cross_block) in
  Alcotest.(check bool) "diagnostic names the cycle" true
    (contains "blocked on r1" f.detail)

let test_harness_deadlock () =
  let stuck engine _ _ =
    let never = Hw.Engine.Cond.create () in
    Hw.Engine.spawn engine ~name:"stuck-fibre" (fun () ->
        Hw.Engine.Cond.wait never)
  in
  let f = expect_failure "deadlock" (scenario stuck) in
  Alcotest.(check bool) ("detail names the fibre: " ^ f.detail) true
    (contains "stuck-fibre" f.detail)

let test_harness_crash () =
  let f = expect_failure "crash" (scenario (fun _ _ _ -> failwith "boom")) in
  Alcotest.(check bool) "detail is the exception" true
    (contains "boom" f.detail)

(* The judge, one oracle at a time: a clean observation is accepted
   against itself, and tampering with a compared field is rejected;
   No_oracle compares the contents only. *)
let test_harness_judge () =
  let obs_of (s : Check.Scenario.t) = clean_obs s.name (Check.Harness.run s) in
  let verdict s reference obs =
    Option.map fst (Check.Harness.judge s ~reference obs)
  in
  let expect label want got =
    Alcotest.(check (option string)) label want got
  in
  let fig3 = Option.get (Check.Scenario.find "fig3") in
  let r = obs_of fig3 in
  expect "fig3 against itself" None (verdict fig3 r r);
  List.iter
    (fun (field, tampered) ->
      expect ("fig3 tampered " ^ field) (Some "digest-divergence")
        (verdict fig3 r tampered))
    [
      ("observation", { r with observed = "x" });
      ("stats", { r with stats = "x" });
      ("state", { r with state = "x" });
      ("contents", { r with contents = "x" });
    ];
  let contend = Option.get (Check.Scenario.find "contend") in
  let r = obs_of contend in
  expect "contend tampered contents" (Some "digest-divergence")
    (verdict contend r { r with contents = "x" });
  expect "contend ignores the rest" None
    (verdict contend r { r with observed = "x"; stats = "x"; state = "x" });
  let pressure = Check.Scenario.pressure in
  let r = obs_of pressure in
  expect "pressure outcome is a serialization" None (verdict pressure r r);
  expect "pressure tampered observation" (Some "non-serializable")
    (verdict pressure r { r with observed = "x" })

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
          Alcotest.test_case "per-event sweep catches a transient breach"
            `Quick test_harness_per_event_sweep;
          Alcotest.test_case "quiescent sweep is strict" `Quick
            test_harness_quiescent_sweep_strict;
          Alcotest.test_case "watchdog classified" `Quick
            test_harness_watchdog;
          Alcotest.test_case "deadlock classified" `Quick
            test_harness_deadlock;
          Alcotest.test_case "crash classified" `Quick test_harness_crash;
          Alcotest.test_case "judge, one oracle at a time" `Quick
            test_harness_judge;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "storm digest matches at 1/2/4 domains" `Quick
            test_crossval_storm_matches;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "explore observes quiescent state" `Quick
            test_explore_observes_quiescent_state;
          Alcotest.test_case "every registry entry" `Quick
            test_registry_entries;
          Alcotest.test_case "storm deep checkers on 2 domains" `Quick
            test_storm_checked_on_pool;
        ] );
    ]
