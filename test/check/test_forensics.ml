(* Forensics tested: the structured state snapshot must round-trip
   through Obs.Json without losing the digest, crash bundles must
   round-trip through their file format, and — the point of the whole
   pipeline — a bundle captured from a planted race must replay to the
   identical failure: same kind, same sanitizer verdicts, same
   Inspect digests.  A replayer that cannot reproduce a planted bug
   would be indistinguishable from no replayer. *)

let ps = 8192

let tmp_bundle_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "chorus-test-bundles"

(* --- Inspect.state_json -------------------------------------------- *)

let test_state_json_roundtrip () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames:64 ~engine () in
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
      let j = Core.Inspect.state_json pvm in
      let printed = Obs.Json.to_string j in
      let j' = Obs.Json.parse printed in
      (match Obs.Json.get_str (Obs.Json.member "digest" j') with
      | Some d ->
        Alcotest.(check string)
          "embedded digest = Inspect.digest" (Core.Inspect.digest pvm) d
      | None -> Alcotest.fail "state_json has no digest field");
      Alcotest.(check string)
        "print/parse/print fixpoint" printed
        (Obs.Json.to_string j'))

(* --- Bundle file format -------------------------------------------- *)

let test_bundle_roundtrip () =
  let b =
    Obs.Bundle.v ~scenario:"unit" ~inject:[ "evict-claim-late" ]
      ~kind:"invariant" ~detail:"two pages at offset 0" ~sim_now:42
      ~schedule:[ 2; 3; 2 ] ~digests:[ "abc"; "def" ]
      ~violations:(Obs.Json.List [ Obs.Json.Str "gmap" ])
      ()
  in
  let path = Obs.Bundle.write ~dir:tmp_bundle_dir b in
  Alcotest.(check string)
    "deterministic filename" "bundle-unit-invariant.json"
    (Filename.basename path);
  match Obs.Bundle.read path with
  | Error e -> Alcotest.fail e
  | Ok b' ->
    Alcotest.(check string) "schema" "chorus-bundle/2" b'.Obs.Bundle.schema;
    Alcotest.(check string) "scenario" b.Obs.Bundle.scenario b'.Obs.Bundle.scenario;
    Alcotest.(check string) "kind" b.Obs.Bundle.kind b'.Obs.Bundle.kind;
    Alcotest.(check string) "detail" b.Obs.Bundle.detail b'.Obs.Bundle.detail;
    Alcotest.(check int) "sim_now" b.Obs.Bundle.sim_now b'.Obs.Bundle.sim_now;
    Alcotest.(check (list int)) "schedule" b.Obs.Bundle.schedule b'.Obs.Bundle.schedule;
    Alcotest.(check (list string)) "inject" b.Obs.Bundle.inject b'.Obs.Bundle.inject;
    Alcotest.(check (list string)) "digests" b.Obs.Bundle.digests b'.Obs.Bundle.digests;
    (* a /1 document no longer loads *)
    let v1 =
      match Obs.Bundle.to_json b with
      | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (function
               | "schema", _ -> ("schema", Obs.Json.Str "chorus-bundle/1")
               | f -> f)
             fields)
      | j -> j
    in
    match Obs.Bundle.of_json v1 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "accepted a chorus-bundle/1 document"

let test_bundle_rejects_foreign_schema () =
  (match Obs.Bundle.of_json (Obs.Json.Obj [ ("schema", Obs.Json.Str "x/9") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown schema");
  match Obs.Bundle.of_json (Obs.Json.Obj []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a schema-less document"

(* --- Capture / replay determinism ---------------------------------- *)

(* Plant a race, let the explorer find it, capture the bundle, write
   it out, read it back, replay it twice: every replay must reproduce
   the recorded failure exactly. *)
let capture_replay_roundtrip inject =
  Check.Forensics.with_injections [ inject ] (fun () ->
      let result = Check.Explore.run ~max_schedules:2000 Check.Scenario.pressure in
      match result.Check.Explore.r_violation with
      | None -> Alcotest.failf "%s produced no violation" inject
      | Some v ->
        let bundle, outcome =
          Check.Forensics.capture ~inject:[ inject ] Check.Scenario.pressure v
        in
        Alcotest.(check string)
          "capture reproduces the explorer's verdict" v.Check.Explore.v_kind
          outcome.Check.Forensics.o_kind;
        let path = Obs.Bundle.write ~dir:tmp_bundle_dir bundle in
        let b =
          match Obs.Bundle.read path with
          | Ok b -> b
          | Error e -> Alcotest.fail e
        in
        let o1 = Check.Forensics.replay Check.Scenario.pressure b in
        (match Check.Forensics.reproduces b o1 with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "replay did not reproduce:\n%s" msg);
        let o2 = Check.Forensics.replay Check.Scenario.pressure b in
        Alcotest.(check string)
          "replay kind deterministic" o1.Check.Forensics.o_kind
          o2.Check.Forensics.o_kind;
        Alcotest.(check (list string))
          "replay digests deterministic" o1.Check.Forensics.o_digests
          o2.Check.Forensics.o_digests;
        Alcotest.(check (list string))
          "replay rules deterministic" o1.Check.Forensics.o_rules
          o2.Check.Forensics.o_rules;
        (bundle, outcome))

let test_replay_evict_claim_race () =
  ignore (capture_replay_roundtrip "evict-claim-late")

let test_replay_skip_insert_probe () =
  let bundle, outcome = capture_replay_roundtrip "skip-insert-probe" in
  (* this race manifests as a sanitizer violation, so the bundle must
     carry the failed rule ids and the replay must re-derive them *)
  Alcotest.(check string) "invariant kind" "invariant"
    outcome.Check.Forensics.o_kind;
  Alcotest.(check bool) "sanitizer rules recorded" true
    (outcome.Check.Forensics.o_rules <> []);
  Alcotest.(check bool) "bundle records the schedule" true
    (bundle.Obs.Bundle.schedule <> []);
  Alcotest.(check bool) "bundle carries the trace tail" true
    (match
       Obs.Json.get_list
         (Obs.Json.member "traceEvents" bundle.Obs.Bundle.trace)
     with
    | Some (_ :: _) -> true
    | _ -> false)

(* A clean (uninjected) forced run of the same schedule must NOT
   reproduce the failure — [reproduces] has to notice, or it would
   rubber-stamp anything. *)
let test_reproduces_detects_divergence () =
  let bundle, _ =
    Check.Forensics.with_injections [ "skip-insert-probe" ] (fun () ->
        let result =
          Check.Explore.run ~max_schedules:2000 Check.Scenario.pressure
        in
        match result.Check.Explore.r_violation with
        | None -> Alcotest.fail "no violation to bundle"
        | Some v ->
          Check.Forensics.capture ~inject:[ "skip-insert-probe" ]
            Check.Scenario.pressure v)
  in
  let clean = { bundle with Obs.Bundle.inject = [] } in
  let outcome = Check.Forensics.replay Check.Scenario.pressure clean in
  match Check.Forensics.reproduces bundle outcome with
  | Ok () -> Alcotest.fail "clean replay claimed to reproduce the failure"
  | Error _ -> ()

(* An oracle violation is a run that completes on a digest the oracle
   rejects: two fibres write different bytes to address 0, so their
   order shows in the digest and [Schedule_independent] flags the
   second schedule.  Replaying that schedule must end on the rejected
   digest and report the violation, and the bundle must carry its
   kind through a file round-trip and a replay. *)
let test_oracle_violation_replays () =
  let scenario =
    {
      (Check.Scenario.of_program ~name:"divergent-writers" ~frames:4 ~pages:1
         [| [| Check.Model.Write { addr = 0; data = "a" } |];
            [| Check.Model.Write { addr = 0; data = "b" } |] |])
      with
      oracle = Schedule_independent;
    }
  in
  let result = Check.Explore.run scenario in
  match result.Check.Explore.r_violation with
  | None -> Alcotest.fail "no digest divergence found"
  | Some v -> (
    Alcotest.(check string) "explorer verdict" "digest-divergence"
      v.Check.Explore.v_kind;
    (match (Check.Explore.run_forced scenario v).f_verdict with
    | `Violation (kind, _) ->
      Alcotest.(check string) "replay verdict" "digest-divergence" kind
    | `Done _ | `Sleep -> Alcotest.fail "replay did not reproduce the violation");
    let bundle, _ = Check.Forensics.capture scenario v in
    Alcotest.(check string) "bundle kind" "digest-divergence"
      bundle.Obs.Bundle.kind;
    match Obs.Bundle.read (Obs.Bundle.write ~dir:tmp_bundle_dir bundle) with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match Check.Forensics.reproduces b (Check.Forensics.replay scenario b) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "bundle replay did not reproduce:\n%s" msg))

(* A live bundle (chorus check's path) must record the rule ids of the
   sweep that failed.  Here that is the strict quiescent sweep, which
   finds a synchronization stub left in the global map: the bundle
   must list the strict-only [transit] rule, and replay to it. *)
let test_live_bundle_keeps_strict_rules () =
  let scen =
    {
      Check.Scenario.name = "transit-left";
      oracle = No_oracle;
      run =
        (fun engine ~register ->
          let pvm = Core.Pvm.create ~frames:16 ~engine () in
          register pvm;
          let cache = Core.Cache.create pvm () in
          Core.Frag_map.replace pvm.Core.Types.gmap cache.Core.Types.c_id 0
            (Core.Types.Sync_stub (Hw.Engine.Cond.create ()));
          fun () -> "");
    }
  in
  let r = Check.Harness.run scen in
  match r.ending with
  | Ok _ -> Alcotest.fail "the quiescent sweep accepted a page in transit"
  | Error f ->
    let b = Check.Forensics.capture_live scen r f in
    let rules =
      match b.Obs.Bundle.violations with
      | Obs.Json.List l ->
        List.filter_map (function Obs.Json.Str s -> Some s | _ -> None) l
      | _ -> []
    in
    Alcotest.(check bool)
      ("bundle lists transit: [" ^ String.concat "; " rules ^ "]")
      true (List.mem "transit" rules);
    match Check.Forensics.reproduces b (Check.Forensics.replay scen b) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "live bundle did not replay:\n%s" msg

(* A bundle written by a run on simulated CPUs replays on as many: a
   lane fibre leaves a page in transit, which happens only when it runs
   as a lane slice (the sequential engine ignores affinity), so a
   replay on any engine without lanes would finish clean. *)
let test_multi_cpu_bundle_replays () =
  let scen =
    {
      Check.Scenario.name = "lane-transit-left";
      oracle = No_oracle;
      run =
        (fun engine ~register ->
          let pvm = Core.Pvm.create ~frames:16 ~engine () in
          register pvm;
          let cache = Core.Cache.create pvm () in
          Hw.Engine.spawn engine ~affinity:1 (fun () ->
              if Hw.Engine.in_parallel_slice () then
                Core.Global_map.set pvm cache ~off:0
                  (Core.Types.Sync_stub (Hw.Engine.Cond.create ())));
          fun () -> "");
    }
  in
  let r = Check.Harness.run ~domains:2 scen in
  match r.ending with
  | Ok _ -> Alcotest.fail "the quiescent sweep accepted a page in transit"
  | Error f -> (
    let b = Check.Forensics.capture_live scen r f in
    match Obs.Bundle.read (Obs.Bundle.write ~dir:tmp_bundle_dir b) with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match Check.Forensics.reproduces b (Check.Forensics.replay scen b) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "2-CPU bundle did not replay:\n%s" msg))

(* A lane-order bug: of two lane fibres on 2 CPUs, the second-spawned
   one leaves a page in transit when it runs before the first.  Lane
   order is a scheduler's choice, so the unseeded run is clean, a seed
   finds the bad order, and its bundle — whose schedule is that lane
   pick — replays to the same failure. *)
let test_lane_order_bundle_replays () =
  let scen =
    {
      Check.Scenario.name = "lane-order-transit";
      oracle = No_oracle;
      run =
        (fun engine ~register ->
          let pvm = Core.Pvm.create ~frames:16 ~engine () in
          register pvm;
          let cache = Core.Cache.create pvm () in
          let first_ran = ref false in
          Hw.Engine.spawn engine ~affinity:1 (fun () -> first_ran := true);
          Hw.Engine.spawn engine ~affinity:2 (fun () ->
              if not !first_ran then
                Core.Global_map.set pvm cache ~off:0
                  (Core.Types.Sync_stub (Hw.Engine.Cond.create ())));
          fun () -> "");
    }
  in
  (match (Check.Harness.run ~domains:2 scen).ending with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "spawn order failed: %s" f.Check.Harness.kind);
  let failing =
    List.find_map
      (fun seed ->
        let r = Check.Harness.run ~domains:2 ~seed scen in
        match r.ending with Ok _ -> None | Error f -> Some (r, f))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  match failing with
  | None -> Alcotest.fail "no seed in 1..8 reordered the lane fibres"
  | Some (r, f) -> (
    let b = Check.Forensics.capture_live scen r f in
    Alcotest.(check bool)
      "the bundle records the lane pick" true
      (b.Obs.Bundle.schedule <> []);
    match Obs.Bundle.read (Obs.Bundle.write ~dir:tmp_bundle_dir b) with
    | Error e -> Alcotest.fail e
    | Ok b -> (
      match Check.Forensics.reproduces b (Check.Forensics.replay scen b) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "lane-order bundle did not replay:\n%s" msg))

let test_unknown_injection_rejected () =
  match Check.Forensics.set_injections [ "no-such-fault" ] with
  | exception Invalid_argument _ -> Check.Forensics.clear_injections ()
  | () -> Alcotest.fail "unknown injection accepted"

let () =
  Alcotest.run "forensics"
    [
      ( "state-json",
        [ Alcotest.test_case "round-trip" `Quick test_state_json_roundtrip ]
      );
      ( "bundle",
        [
          Alcotest.test_case "write/read round-trip" `Quick
            test_bundle_roundtrip;
          Alcotest.test_case "rejects foreign schema" `Quick
            test_bundle_rejects_foreign_schema;
        ] );
      ( "replay",
        [
          Alcotest.test_case "evict-claim race reproduces" `Quick
            test_replay_evict_claim_race;
          Alcotest.test_case "insert-probe race reproduces" `Quick
            test_replay_skip_insert_probe;
          Alcotest.test_case "clean replay detected as divergent" `Quick
            test_reproduces_detects_divergence;
          Alcotest.test_case "oracle violation replays as itself" `Quick
            test_oracle_violation_replays;
          Alcotest.test_case "live bundle keeps strict-only rules" `Quick
            test_live_bundle_keeps_strict_rules;
          Alcotest.test_case "2-CPU bundle replays on 2 CPUs" `Quick
            test_multi_cpu_bundle_replays;
          Alcotest.test_case "lane-order bundle replays" `Quick
            test_lane_order_bundle_replays;
          Alcotest.test_case "unknown injection rejected" `Quick
            test_unknown_injection_rejected;
        ] );
    ]
