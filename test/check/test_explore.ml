(* The explorer explored: the canned scheduling policies must keep
   their pinned orders, the sequential model must enumerate
   serializations correctly, and the DPOR search must (a)
   prune independent interleavings, (b) distinguish genuinely racing
   ones, and (c) catch the two historical PR 2 races when they are
   reintroduced behind the For_testing flags — a model checker that
   never finds a planted bug is indistinguishable from no model
   checker. *)

let ps = 8192

(* --- canned schedulers through the choice-point API -------------- *)

(* The eight equal-time fibres of Order: both spawn/wake-order paths —
   the heap fast path and the explicit FIFO policy — give program
   order, and the seeded permutations are pinned, so a change to
   either the engine's dispatch or the seeded hash shows up here. *)
let test_seeded_orders_pinned () =
  let fifo = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "no scheduler" fifo (Order.dispatch ());
  Alcotest.(check (list int))
    "fifo_scheduler" fifo
    (Order.dispatch ~scheduler:Hw.Engine.fifo_scheduler ());
  List.iter
    (fun (seed, order) ->
      Alcotest.(check (list int))
        (Printf.sprintf "seeded_scheduler %d" seed)
        order (Order.seeded seed))
    [
      (1, [ 2; 7; 1; 6; 5; 8; 3; 4 ]);
      (7, [ 5; 8; 3; 7; 1; 2; 6; 4 ]);
      (42, [ 3; 7; 4; 1; 8; 5; 6; 2 ]);
      (1234, [ 7; 5; 8; 4; 1; 6; 3; 2 ]);
    ]

(* The engine's decision log is the replay key: fed to the forced-pick
   driver, the picks a seeded run logged reproduce its dispatch order
   exactly — the property crash bundles rest on. *)
let test_decisions_replay_seeded_order () =
  let engine = Hw.Engine.create () in
  let seeded =
    Order.dispatch ~scheduler:(Hw.Engine.seeded_scheduler 7) ~engine ()
  in
  let v_schedule = Hw.Engine.decisions engine in
  Alcotest.(check bool) "a seeded run logs its picks" true (v_schedule <> []);
  let v =
    {
      Check.Explore.v_kind = "order";
      v_detail = "";
      v_schedule;
      v_digest = None;
    }
  in
  match (Check.Explore.run_forced Order.scenario v).f_verdict with
  | `Done replayed ->
    Alcotest.(check string) "replay = seeded order" (Order.show seeded) replayed
  | `Sleep -> Alcotest.fail "replay ended in a sleep set"
  | `Violation (kind, detail) ->
    Alcotest.failf "replay failed: %s: %s" kind detail

(* The seeded scheduler ranks ready tasks by [Hashtbl.seeded_hash seed
   seq]; hashes collide, and on a collision it must fall back to
   sequence order so the schedule stays a total, reproducible order.
   Search out a genuine collision and feed it to the scheduler
   directly. *)
let test_seeded_hash_collision_resolves_in_seq_order () =
  (* the hash range is 2^30, so by the birthday bound ~2^17 sequence
     numbers all but guarantee a collision for any seed *)
  let found = ref None in
  (try
     for seed = 0 to 3 do
       let tbl = Hashtbl.create (1 lsl 18) in
       for s = 0 to 200_000 do
         let h = Hashtbl.seeded_hash seed s in
         match Hashtbl.find_opt tbl h with
         | Some s' ->
           found := Some (seed, s', s);
           raise Exit
         | None -> Hashtbl.add tbl h s
       done
     done
   with Exit -> ());
  match !found with
  | None -> Alcotest.fail "no seeded-hash collision in the search range"
  | Some (seed, s1, s2) ->
    let rt seq = { Hw.Engine.rt_fib = seq; rt_seq = seq; rt_daemon = false } in
    (* the engine presents ready tasks sorted by seq *)
    let ready = [| rt s1; rt s2 |] in
    let sched = Hw.Engine.seeded_scheduler seed in
    let pick = sched.Hw.Engine.sched_pick ~now:Hw.Sim_time.zero ready in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: hash(%d) = hash(%d) resolves to lower seq" seed
         s1 s2)
      0 pick

(* --- sequential reference model ---------------------------------- *)

let w addr data = Check.Model.Write { addr; data }
let r addr len = Check.Model.Read { addr; len }

let test_model_count () =
  Alcotest.(check int) "empty" 1 (Check.Model.count [||]);
  Alcotest.(check int) "single fibre" 1 (Check.Model.count [| [| w 0 "a" |] |]);
  Alcotest.(check int) "2x2 multinomial" 6
    (Check.Model.count [| [| w 0 "a"; w 0 "b" |]; [| w 0 "c"; w 0 "d" |] |]);
  Alcotest.(check int) "3 fibres of 1" 6
    (Check.Model.count [| [| w 0 "a" |]; [| w 0 "b" |]; [| w 0 "c" |] |])

let test_model_outcomes_write_write () =
  (* two writers to the same byte: exactly the two orders survive *)
  let out =
    Check.Model.outcomes ~size:1 [| [| w 0 "a" |]; [| w 0 "b" |] |]
  in
  Alcotest.(check int) "two final states" 2 (Hashtbl.length out);
  List.iter
    (fun contents ->
      Alcotest.(check bool)
        (Printf.sprintf "%S-last serialization present" contents)
        true
        (Hashtbl.mem out
           (Check.Model.digest_outcome ~contents ~reads:[| []; [] |])))
    [ "a"; "b" ]

let test_model_outcomes_read_visibility () =
  (* a read races a write: it sees either the zero fill or the value *)
  let out = Check.Model.outcomes ~size:1 [| [| w 0 "a" |]; [| r 0 1 |] |] in
  Alcotest.(check int) "two observable outcomes" 2 (Hashtbl.length out);
  List.iter
    (fun seen ->
      Alcotest.(check bool)
        (Printf.sprintf "read-%S outcome present" seen)
        true
        (Hashtbl.mem out
           (Check.Model.digest_outcome ~contents:"a" ~reads:[| []; [ seen ] |])))
    [ "\000"; "a" ]

(* --- observable state digest ------------------------------------- *)

let in_sim f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () -> f engine)

let test_digest_stable_and_sensitive () =
  let digest_of extra =
    in_sim (fun engine ->
        let pvm = Core.Pvm.create ~frames:16 ~engine () in
        let ctx = Core.Context.create pvm in
        let cache = Core.Cache.create pvm () in
        let _ =
          Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 64 's');
        if extra then Core.Pvm.write pvm ctx ~addr:8 (Bytes.make 8 'z');
        Core.Inspect.digest pvm)
  in
  Alcotest.(check string) "rebuilding reproduces the digest"
    (digest_of false) (digest_of false);
  Alcotest.(check bool) "one extra write changes it" true
    (digest_of false <> digest_of true)

(* --- DPOR on toy scenarios --------------------------------------- *)

(* Two fibres waking at the same instant and appending to a log.  When
   they declare no shared objects the explorer must prove a single
   schedule suffices; when they declare a common object it must explore
   both orders and see both observable outcomes.  The observation
   thunk runs inside the simulation and must synchronize with the
   workload itself: sleeping past the appends is the join here. *)
let toy ~conflict =
  {
    Check.Scenario.name = "toy";
    oracle = No_oracle;
    run =
      (fun engine ~register:_ ->
        let log = Buffer.create 8 in
        for i = 0 to 1 do
          Hw.Engine.spawn engine (fun () ->
              Hw.Engine.sleep 10;
              if conflict then Hw.Engine.note_access engine (-5) 0;
              Buffer.add_string log (string_of_int i))
        done;
        fun () ->
          Hw.Engine.sleep 50;
          Buffer.contents log);
  }

let test_dpor_prunes_independent_fibres () =
  let result = Check.Explore.run (toy ~conflict:false) in
  let s = result.Check.Explore.r_stats in
  Alcotest.(check bool) "no violation" true
    (result.Check.Explore.r_violation = None);
  Alcotest.(check bool) "exhausted" true s.Check.Explore.exhausted;
  Alcotest.(check int) "one schedule suffices" 1 s.Check.Explore.schedules

let test_dpor_explores_racing_fibres () =
  let result = Check.Explore.run (toy ~conflict:true) in
  let s = result.Check.Explore.r_stats in
  Alcotest.(check bool) "no violation" true
    (result.Check.Explore.r_violation = None);
  Alcotest.(check bool) "exhausted" true s.Check.Explore.exhausted;
  Alcotest.(check int) "both orders explored" 2 s.Check.Explore.schedules;
  Alcotest.(check int) "both outcomes observed" 2
    s.Check.Explore.distinct_outcomes

let test_preemption_bound_modes () =
  (* bound 0 still branches where no fibre is preempted — both wake
     orders are non-preemptive schedules here — and a generous bound
     recovers every interleaving of the toy race *)
  let r0 = Check.Explore.run ~bound:0 (toy ~conflict:true) in
  Alcotest.(check bool) "bound 0: no violation" true
    (r0.Check.Explore.r_violation = None);
  Alcotest.(check int) "bound 0: both non-preemptive orders" 2
    r0.Check.Explore.r_stats.Check.Explore.schedules;
  let r2 = Check.Explore.run ~bound:2 (toy ~conflict:true) in
  Alcotest.(check bool) "bound 2: no violation" true
    (r2.Check.Explore.r_violation = None);
  Alcotest.(check bool) "bound 2: sees both outcomes" true
    (r2.Check.Explore.r_stats.Check.Explore.distinct_outcomes >= 2)

(* --- full-PVM programs under the refinement oracle ---------------- *)

let test_racing_writers_serializable () =
  (* two fibres race a write and a read on the same page; every
     explored schedule's outcome must be one of the model's
     serializations *)
  let prog = [| [| w 0 "aaaa"; r 16 4 |]; [| w 16 "bbbb"; r 0 4 |] |] in
  let scenario =
    Check.Scenario.of_program ~name:"racing-writers" ~frames:4 ~pages:1 prog
  in
  let result = Check.Explore.run scenario in
  let s = result.Check.Explore.r_stats in
  (match result.Check.Explore.r_violation with
  | None -> ()
  | Some v ->
    Alcotest.failf "unexpected violation: %a" Check.Explore.pp_violation v);
  Alcotest.(check bool) "exhausted" true s.Check.Explore.exhausted;
  Alcotest.(check bool) "schedules branch" true (s.Check.Explore.schedules > 1)

(* --- mutation tests: the PR 2 races, reintroduced ----------------- *)

let with_flag flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

(* Race A (pager): evict yields between choosing a victim and claiming
   its global-map entry, so two concurrent faults under memory
   pressure can evict the same page twice. *)
let test_catches_evict_claim_race () =
  with_flag Check.Explore.For_testing.evict_claim_late (fun () ->
      let result =
        Check.Explore.run ~max_schedules:2000 Check.Scenario.pressure
      in
      match result.Check.Explore.r_violation with
      | None ->
        Alcotest.fail "explorer missed the reintroduced evict-claim race"
      | Some v -> (
        match Check.Explore.replay Check.Scenario.pressure v with
        | `Violation _ -> ()
        | `Done _ | `Sleep ->
          Alcotest.fail "replay did not reproduce the violation"))

(* Race B (install): try_insert_fresh skips the lost-race probe, so
   two concurrent zero-fill faults on the same page both insert a
   descriptor — a structural invariant violation the per-event sweep
   must catch.  Ample frames: this race needs no memory pressure. *)
let double_insert_scenario =
  Check.Scenario.of_program ~name:"double-insert" ~frames:8 ~pages:1
    [| [| w 0 "xxxx" |]; [| w 16 "yyyy" |] |]

let test_catches_skipped_insert_probe () =
  with_flag Check.Explore.For_testing.skip_insert_probe (fun () ->
      let result =
        Check.Explore.run ~max_schedules:2000 double_insert_scenario
      in
      match result.Check.Explore.r_violation with
      | None ->
        Alcotest.fail "explorer missed the reintroduced insert race"
      | Some v -> (
        match Check.Explore.replay double_insert_scenario v with
        | `Violation _ -> ()
        | `Done _ | `Sleep ->
          Alcotest.fail "replay did not reproduce the violation"))

(* Both planted bugs off: the same scenarios must pass, or the
   mutation tests prove nothing. *)
let test_clean_scenarios_pass () =
  List.iter
    (fun scenario ->
      let result = Check.Explore.run ~max_schedules:2000 scenario in
      (match result.Check.Explore.r_violation with
      | None -> ()
      | Some v ->
        Alcotest.failf "clean %s violates: %a" scenario.Check.Scenario.name
          Check.Explore.pp_violation v);
      Alcotest.(check bool)
        (scenario.Check.Scenario.name ^ " exhausted")
        true result.Check.Explore.r_stats.Check.Explore.exhausted)
    [ Check.Scenario.pressure; double_insert_scenario ]

let () =
  Alcotest.run "explore"
    [
      ( "scheduler",
        [
          Alcotest.test_case "seeded orders pinned" `Quick
            test_seeded_orders_pinned;
          Alcotest.test_case "decisions replay a seeded order" `Quick
            test_decisions_replay_seeded_order;
          Alcotest.test_case "seeded hash collision resolves in seq order"
            `Quick test_seeded_hash_collision_resolves_in_seq_order;
        ] );
      ( "model",
        [
          Alcotest.test_case "count" `Quick test_model_count;
          Alcotest.test_case "write/write outcomes" `Quick
            test_model_outcomes_write_write;
          Alcotest.test_case "read visibility" `Quick
            test_model_outcomes_read_visibility;
        ] );
      ( "digest",
        [
          Alcotest.test_case "stable and sensitive" `Quick
            test_digest_stable_and_sensitive;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "prunes independent fibres" `Quick
            test_dpor_prunes_independent_fibres;
          Alcotest.test_case "explores racing fibres" `Quick
            test_dpor_explores_racing_fibres;
          Alcotest.test_case "preemption bound modes" `Quick
            test_preemption_bound_modes;
          Alcotest.test_case "racing writers serializable" `Quick
            test_racing_writers_serializable;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "clean scenarios pass" `Quick
            test_clean_scenarios_pass;
          Alcotest.test_case "catches evict-claim race" `Quick
            test_catches_evict_claim_race;
          Alcotest.test_case "catches skipped insert probe" `Quick
            test_catches_skipped_insert_probe;
        ] );
    ]
