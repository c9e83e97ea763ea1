(* One checked run and the one oracle judge (see harness.mli). *)

type obs = {
  observed : string;
  stats : string;
  state : string;
  contents : string;
}

type failure = {
  kind : string;
  detail : string;
  rules : string list;
  exn : exn;
}

type t = {
  engine : Hw.Engine.t;
  pvms : Core.Types.pvm list;
  ending : (obs, failure) result;
  blocking : Blocking.violation list;
}

let classify engine exn =
  let failure ?(rules = []) kind detail = { kind; detail; rules; exn } in
  match exn with
  | Sanitizer.Failed { report; rules } -> failure ~rules "invariant" report
  | Hw.Engine.Watchdog diag -> failure "watchdog" diag
  | Hw.Engine.Deadlock n ->
    failure "deadlock"
      (Printf.sprintf "%d fibre(s) still suspended\n%s" n
         (Hw.Engine.blocked_report engine))
  | e -> failure "crash" (Printexc.to_string e)

let stats_line pvm =
  Format.asprintf "%a used=%d" Core.Types.pp_stats (Core.Pvm.stats pvm)
    (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm))

let run ?domains ?seed ?scheduler ?(every_event = false) ?(instrument = true)
    (scen : Scenario.t) =
  let engine = Hw.Engine.create ?domains () in
  if instrument then begin
    let tr = Obs.Trace.create () in
    Hw.Engine.set_tracer engine tr;
    Obs.Trace.enable tr;
    (* a blocked-on cycle dies as the same cycle in a forced replay:
       cycle detection is eager at park time *)
    Hw.Engine.enable_watchdog engine ()
  end;
  Option.iter
    (fun s -> Hw.Engine.set_scheduler engine (Hw.Engine.seeded_scheduler s))
    seed;
  Option.iter (Hw.Engine.set_scheduler engine) scheduler;
  let registered = ref [] in
  if every_event then
    (* fail fast: [Sanitizer.Failed] freezes the PVMs at the first bad
       event, which is the state a bundle wants *)
    Hw.Engine.set_event_hook engine (fun () ->
        List.iter
          (Sanitizer.assert_ok ~strict:false ~label:"per-event sweep")
          !registered);
  let ending =
    match
      (* the observation thunk runs in the main fibre, so it is part
         of the schedule an explorer walks *)
      let observed =
        Hw.Engine.run_fn engine (fun () ->
            scen.run engine
              ~register:(fun pvm -> registered := pvm :: !registered)
              ())
      in
      let pvms = List.rev !registered in
      List.iter
        (Sanitizer.assert_ok ~strict:true ~label:"quiescent sweep")
        pvms;
      let stats = String.concat "\n" (List.map stats_line pvms) in
      let state = Scenario.digest pvms in
      (* the read-back is the checker's, not the program's: it faults
         pages in, so it goes last, outside any installed schedule *)
      Hw.Engine.clear_scheduler engine;
      { observed; stats; state; contents = Scenario.contents engine pvms }
    with
    | obs -> Ok obs
    | exception e -> Error (classify engine e)
  in
  {
    engine;
    pvms = List.rev !registered;
    ending;
    blocking = Blocking.analyze (Hw.Engine.tracer engine);
  }

let judge (scen : Scenario.t) ~reference obs =
  let diverged what a b =
    if String.equal a b then None
    else
      Some
        ( "digest-divergence",
          Printf.sprintf
            "schedule-dependent %s:\n  this run:  %s\n  reference: %s" what b a
        )
  in
  let contents =
    diverged "memory contents (read-back digest)" reference.contents
      obs.contents
  in
  match scen.oracle with
  | Scenario.Schedule_independent ->
    List.find_map Fun.id
      [
        diverged "observable digest" reference.observed obs.observed;
        diverged "outcome (stats, frames used)" reference.stats obs.stats;
        diverged "observable state (Inspect.digest)" reference.state obs.state;
        contents;
      ]
  | Scenario.No_oracle -> contents
  | Scenario.Outcomes set ->
    let set = Lazy.force set in
    if Hashtbl.mem set obs.observed then None
    else
      Some
        ( "non-serializable",
          Printf.sprintf
            "outcome digest %s matches none of the %d atomic serializations"
            obs.observed (Hashtbl.length set) )

let oracle_summary (scen : Scenario.t) =
  match scen.oracle with
  | Scenario.Schedule_independent ->
    "memory contents schedule-independent; outcome and state \
     schedule-independent"
  | Scenario.No_oracle -> "memory contents schedule-independent"
  | Scenario.Outcomes _ -> "every outcome one of the program's serializations"
