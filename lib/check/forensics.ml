(* Crash forensics: bundle assembly and deterministic re-drive through
   Explore.run_forced, instrumented with a live flight recorder and the
   watchdog, because a bundle needs the failure state, not just the
   failure class. *)

type outcome = {
  o_kind : string;
  o_detail : string;
  o_digests : string list;
  o_rules : string list;
}

(* --- Fault injection --------------------------------------------- *)

let injections =
  [
    ("evict-claim-late", Explore.For_testing.evict_claim_late);
    ("skip-insert-probe", Explore.For_testing.skip_insert_probe);
  ]

let clear_injections () = List.iter (fun (_, flag) -> flag := false) injections

let set_injections names =
  clear_injections ();
  List.iter
    (fun name ->
      match List.assoc_opt name injections with
      | Some flag -> flag := true
      | None ->
        invalid_arg
          (Printf.sprintf "Forensics: unknown injection %S (know: %s)" name
             (String.concat ", " (List.map fst injections))))
    names

let with_injections names f =
  let saved = List.map (fun (_, flag) -> !flag) injections in
  set_injections names;
  Fun.protect
    ~finally:(fun () ->
      List.iter2 (fun (_, flag) v -> flag := v) injections saved)
    f

(* --- Forced-schedule driver --------------------------------------- *)

let run_forced ?max_steps scenario (v : Explore.violation) =
  let prepare eng =
    let fl = Obs.Flight.create () in
    Obs.Flight.enable fl;
    Hw.Engine.set_flight eng fl;
    (* Watchdog on, so a bundle whose live run died of a blocked-on
       cycle dies of the same cycle here (cycle detection is eager at
       park time, hence schedule-deterministic). *)
    Hw.Engine.enable_watchdog eng ()
  in
  let f = Explore.run_forced ?max_steps ~prepare scenario v in
  let o_kind, o_detail =
    match f.f_verdict with
    | `Done digest -> ("done", digest)
    | `Sleep -> ("sleep", "")
    | `Violation kd -> kd
  in
  let o_digests = List.map Core.Inspect.digest f.f_pvms in
  ({ o_kind; o_detail; o_digests; o_rules = f.f_rules }, f)

(* --- Bundle assembly ---------------------------------------------- *)

let metrics_json pvm =
  (* Metrics.to_json is a hand-rolled string (it predates Obs.Json);
     parse it back so the bundle is one coherent JSON document. *)
  Obs.Json.parse (Obs.Metrics.to_json (Core.Pvm.metrics pvm))

let watchdog_json engine =
  let fields = [ ("blocked", Obs.Json.Str (Hw.Engine.blocked_report engine)) ] in
  let fields =
    match Hw.Engine.watchdog_metrics engine with
    | Some m -> fields @ [ ("metrics", Obs.Json.parse (Obs.Metrics.to_json m)) ]
    | None -> fields
  in
  Obs.Json.Obj fields

let violations_json rules =
  match rules with
  | [] -> Obs.Json.Null
  | rules -> Obs.Json.List (List.map (fun r -> Obs.Json.Str r) rules)

let assemble ~scenario ~inject ~kind ~detail ?observed ~rules ~engine ~pvms ()
    =
  let flight = Hw.Engine.flight engine in
  Obs.Bundle.v ~scenario ~inject ~kind ~detail ?observed
    ~sim_now:(Hw.Engine.now engine)
    ~schedule:(Obs.Flight.decisions flight)
    ~flight:(Obs.Flight.to_json flight)
    ~state:(List.map Core.Inspect.state_json pvms)
    ~digests:(List.map Core.Inspect.digest pvms)
    ~violations:(violations_json rules)
    ~metrics:(List.map metrics_json pvms)
    ~watchdog:(watchdog_json engine) ()

let capture ?(inject = []) ?max_steps (scenario : Scenario.t) v =
  with_injections inject (fun () ->
      let o, f = run_forced ?max_steps scenario v in
      ( assemble ~scenario:scenario.name ~inject ~kind:o.o_kind
          ~detail:o.o_detail ?observed:v.v_digest ~rules:o.o_rules
          ~engine:f.f_engine ~pvms:f.f_pvms (),
        o ))

let capture_live ~scenario ?(inject = []) ~kind ~detail ~engine ~pvms () =
  let rules =
    List.concat_map (fun pvm -> Sanitizer.run ~strict:false pvm) pvms
    |> List.map (fun v -> v.Sanitizer.rule)
    |> List.sort_uniq compare
  in
  assemble ~scenario ~inject ~kind ~detail ~rules ~engine ~pvms ()

(* --- Replay ------------------------------------------------------- *)

(* The bundle's failure is the violation the replay expects. *)
let replay ?max_steps scenario (b : Obs.Bundle.t) =
  let v_schedule = b.schedule and v_digest = b.observed in
  let v = { Explore.v_kind = b.kind; v_detail = b.detail; v_schedule; v_digest } in
  with_injections b.inject (fun () -> fst (run_forced ?max_steps scenario v))

let reproduces (b : Obs.Bundle.t) (o : outcome) =
  let bundle_rules =
    match b.violations with
    | Obs.Json.List l ->
      List.filter_map (function Obs.Json.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let mismatch what ok pp bundle replay =
    if ok then None
    else
      Some (Printf.sprintf "%s: bundle %s, replay %s" what (pp bundle) (pp replay))
  in
  let strs l = "[" ^ String.concat "; " l ^ "]" in
  match
    List.filter_map Fun.id
      [
        mismatch "failure kind" (o.o_kind = b.kind) (Printf.sprintf "%S") b.kind
          o.o_kind;
        mismatch "state digests"
          (b.digests = [] || o.o_digests = b.digests)
          strs b.digests o.o_digests;
        mismatch "sanitizer rules"
          (b.kind <> "invariant" || o.o_rules = bundle_rules)
          strs bundle_rules o.o_rules;
      ]
  with
  | [] -> Ok ()
  | ps -> Error (String.concat "\n" ps)
