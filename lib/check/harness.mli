(** One checked run of a registry scenario, and the judge that compares
    two.

    Every deep-checked run goes through {!run}: [chorus check]'s FIFO
    and seeded runs, each schedule {!Explore} walks, each {!Forensics}
    capture and replay, and the check tests.  {!judge} decides, by the
    scenario's {!Scenario.oracle}, whether an observation agrees with a
    reference one. *)

type obs = {
  observed : string;  (** what the scenario's observation thunk returned *)
  stats : string;
      (** one line per PVM: {!Core.Types.pp_stats} and the frame-pool
          occupancy *)
  state : string;  (** {!Scenario.digest} *)
  contents : string;  (** {!Scenario.contents} *)
}

(** How a run that raised ended: {!Sanitizer.Failed} is ["invariant"]
    with its rule ids, {!Hw.Engine.Watchdog} is ["watchdog"],
    {!Hw.Engine.Deadlock} is ["deadlock"] with
    {!Hw.Engine.blocked_report} as detail, and anything else is
    ["crash"]. *)
type failure = {
  kind : string;
  detail : string;
  rules : string list;  (** failed rule ids of the sweep that fired, sorted *)
  exn : exn;  (** the exception that ended the run *)
}

type t = {
  engine : Hw.Engine.t;
  pvms : Core.Types.pvm list;  (** registered PVMs, in registration order *)
  ending : (obs, failure) result;
  blocking : Blocking.violation list;
      (** {!Blocking.analyze} of the run's trace; empty without
          [instrument] *)
}

val run :
  ?domains:int ->
  ?seed:int ->
  ?scheduler:Hw.Engine.scheduler ->
  ?every_event:bool ->
  ?instrument:bool ->
  Scenario.t ->
  t
(** Run the scenario and its observation thunk in the main fibre of a
    fresh engine with [domains] simulated CPUs (default 0) until it
    drains,
    sweep every registered PVM strictly, take the stats and the state
    digest, then clear the scheduler and read the contents back.
    [seed] installs {!Hw.Engine.seeded_scheduler}, [scheduler] a
    caller's own (the explorer's).  [every_event] (default false)
    sweeps the structural tier from the engine's event hook after every
    event.  [instrument] (default true) attaches an enabled tracer and
    the watchdog, which crash bundles and the blocking analysis
    need. *)

val judge : Scenario.t -> reference:obs -> obs -> (string * string) option
(** [Some (kind, detail)] when [obs] breaks the scenario's oracle:
    - [Schedule_independent]: the observation, stats, state and
      contents must equal [reference]'s (else ["digest-divergence"]);
    - [No_oracle]: the contents must equal [reference]'s (else
      ["digest-divergence"]);
    - [Outcomes]: the observation must be in the set (else
      ["non-serializable"]). *)

val oracle_summary : Scenario.t -> string
(** What {!judge} holds a passing run to, in words. *)
