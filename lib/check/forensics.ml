(* Crash forensics: bundle assembly and deterministic re-drive through
   Explore.run_forced on an instrumented Harness run (enabled tracer,
   watchdog), because a bundle needs the failure state, not just the
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

let run_forced ?domains ?max_steps scenario (v : Explore.violation) =
  let f = Explore.run_forced ?domains ~instrument:true ?max_steps scenario v in
  let o_kind, o_detail =
    match f.f_verdict with
    | `Done digest -> ("done", digest)
    | `Sleep -> ("sleep", "")
    | `Violation kd -> kd
  in
  let h = f.f_run in
  let o_rules = match h.ending with Error f -> f.rules | Ok _ -> [] in
  let o_digests = List.map Core.Inspect.digest h.pvms in
  ({ o_kind; o_detail; o_digests; o_rules }, h)

(* --- Bundle assembly ---------------------------------------------- *)

let watchdog_json engine =
  let fields = [ ("blocked", Obs.Json.Str (Hw.Engine.blocked_report engine)) ] in
  let fields =
    match Hw.Engine.watchdog_metrics engine with
    | Some m -> fields @ [ ("metrics", Obs.Metrics.to_json m) ]
    | None -> fields
  in
  Obs.Json.Obj fields

let violations_json rules =
  match rules with
  | [] -> Obs.Json.Null
  | rules -> Obs.Json.List (List.map (fun r -> Obs.Json.Str r) rules)

let assemble ~(scenario : Scenario.t) ~inject ~kind ~detail ?observed ~rules
    (h : Harness.t) =
  let engine = h.engine and pvms = h.pvms in
  Obs.Bundle.v ~scenario:scenario.name ~inject
    ~cpus:(Hw.Engine.domains engine) ~kind ~detail ?observed
    ~sim_now:(Hw.Engine.now engine)
    ~schedule:(Hw.Engine.decisions engine)
    ~trace:(Obs.Json.parse (Obs.Trace.to_chrome_json (Hw.Engine.tracer engine)))
    ~state:(List.map Core.Inspect.state_json pvms)
    ~digests:(List.map Core.Inspect.digest pvms)
    ~violations:(violations_json rules)
    ~metrics:
      (List.map (fun pvm -> Obs.Metrics.to_json (Core.Pvm.metrics pvm)) pvms)
    ~watchdog:(watchdog_json engine) ()

let capture ?(inject = []) ?max_steps (scenario : Scenario.t) v =
  with_injections inject (fun () ->
      let o, h = run_forced ?max_steps scenario v in
      ( assemble ~scenario ~inject ~kind:o.o_kind ~detail:o.o_detail
          ?observed:v.v_digest ~rules:o.o_rules h,
        o ))

let capture_live ?(inject = []) scenario h (f : Harness.failure) =
  assemble ~scenario ~inject ~kind:f.kind ~detail:f.detail ~rules:f.rules h

(* --- Replay ------------------------------------------------------- *)

(* The bundle's failure is the violation the replay expects, on an
   engine with the bundle's simulated CPUs. *)
let replay ?max_steps scenario (b : Obs.Bundle.t) =
  let v_schedule = b.schedule and v_digest = b.observed in
  let v = { Explore.v_kind = b.kind; v_detail = b.detail; v_schedule; v_digest } in
  let domains = if b.cpus > 0 then Some b.cpus else None in
  with_injections b.inject (fun () ->
      fst (run_forced ?domains ?max_steps scenario v))

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
