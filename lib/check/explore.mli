(** Systematic schedule exploration: a stateless DPOR model checker
    for the PVM, driven through {!Hw.Engine}'s scheduling choice-point
    API.

    The engine's only nondeterminism is the dispatch order of ready
    tasks at equal simulated times; a schedule is the sequence of
    choices made at multi-ready dispatches.  The explorer re-executes
    a scenario thunk from scratch under controlled schedules, walking
    the choice tree by DFS with dynamic partial-order reduction
    (Flanagan–Godefroid): a vector-clock race analysis over
    fragment-level slice footprints seeds backtrack points, and sleep
    sets discard the remaining redundant interleavings.  Two slices
    are independent unless they touch the same (cache, offset)
    fragment or the same coarse object class (frame pool / reclaim
    queue, cache-context topology — see {!Core.Types}).

    Each explored schedule optionally runs the {!Sanitizer}'s
    structural tier after every engine event and its full tier at
    quiescence, and its observable outcome is checked against a
    refinement oracle. *)

type scenario = {
  name : string;
  run : Hw.Engine.t -> register:(Core.Types.pvm -> unit) -> unit -> string;
      (** Build and start the workload on a fresh engine, calling
          [register] for every PVM the sanitizer should sweep; return
          the observation thunk the explorer then invokes, still
          inside the simulation, to digest the schedule's observable
          outcome.  The thunk must itself synchronize with the
          workload — block (e.g. on a {!Hw.Engine.Cond}) until the
          outcome is final, as {!of_program}'s join does.  Must be
          deterministic given the schedule. *)
}

type oracle =
  | Schedule_independent
      (** every schedule must produce the digest of the first one *)
  | Outcomes of (string, unit) Hashtbl.t Lazy.t
      (** every schedule's digest must be a member — typically
          {!Model.outcomes}, forced only if a schedule completes *)
  | No_oracle

type stats = {
  mutable schedules : int;  (** complete schedules executed *)
  mutable sleep_blocked : int;  (** runs abandoned inside a sleep set *)
  mutable sleep_skips : int;  (** backtrack branches skipped as slept *)
  mutable bound_pruned : int;  (** branches over the preemption bound *)
  mutable races : int;  (** reversible races found *)
  mutable steps_total : int;  (** engine events across all schedules *)
  mutable max_depth : int;  (** deepest choice stack *)
  mutable distinct_outcomes : int;
  mutable exhausted : bool;
      (** the full (bounded) choice tree was explored; false when
          [max_schedules] stopped the search first *)
}

type violation = {
  v_kind : string;
      (** ["crash"], ["deadlock"], ["invariant"], ["divergence"],
          ["digest-divergence"] or ["non-serializable"] *)
  v_detail : string;
  v_schedule : int list;
      (** fibre chosen at each multi-ready choice point, in order *)
  v_digest : string option;
      (** the observable digest an oracle rejected; [None] unless
          ["digest-divergence"] or ["non-serializable"] *)
}

type result = {
  r_stats : stats;
  r_violation : violation option;  (** the first violation; the search
                                       stops at it *)
  r_outcomes : (string, int) Hashtbl.t;  (** digest -> schedules *)
}

val run :
  ?bound:int ->
  ?max_schedules:int ->
  ?max_steps:int ->
  ?sweep:bool ->
  ?oracle:oracle ->
  scenario ->
  result
(** Explore the scenario's schedules.  Without [bound] the search is
    exhaustive with DPOR pruning; with [bound k] it is a plain DFS
    over schedules using at most [k] preemptions (switches away from a
    still-ready fibre) — the two prunings are not combined because
    sleep sets are unsound under a preemption bound.  [max_schedules]
    caps executed runs (sets [exhausted = false] when hit);
    [max_steps] (default 200_000) bounds one schedule's engine events;
    [sweep] (default true) runs the sanitizer's structural tier after
    every engine event and its strict tier at quiescence. *)

type forced = {
  f_verdict : [ `Done of string | `Sleep | `Violation of string * string ];
  f_rules : string list;  (** failed rule ids of an ["invariant"] verdict *)
  f_engine : Hw.Engine.t;
  f_pvms : Core.Types.pvm list;  (** registered PVMs, in order *)
}

val run_forced :
  ?sweep:bool ->
  ?max_steps:int ->
  ?prepare:(Hw.Engine.t -> unit) ->
  scenario ->
  violation ->
  forced
(** The forced-pick driver: re-run [v]'s schedule on a fresh engine
    ([prepare]d first), taking at each multi-ready dispatch the fibre
    the schedule names (index 0 when absent); classify the ending as
    {!run} does, a run completing on [v.v_digest] being [v] itself. *)

val replay :
  ?sweep:bool ->
  ?max_steps:int ->
  scenario ->
  violation ->
  [ `Done of string | `Sleep | `Violation of string * string ]
(** {!run_forced}'s verdict: confirms a violation found by {!run}. *)

val of_program :
  name:string ->
  setup:(Hw.Engine.t -> Core.Types.pvm * Core.Types.context * int) ->
  Model.prog ->
  scenario
(** Lift a {!Model} program into a scenario: [setup] builds the PVM
    and a context whose region covers bytes [0..size) of address
    space, one fibre per program row executes its operations through
    {!Core.Pvm.read}/[write] (each operation must stay within one
    page), and the observation digest is {!Model.digest_outcome} over
    the read-back final contents and per-fibre read results — directly
    comparable against {!Model.outcomes} via [Outcomes]. *)

val site_setup :
  frames:int -> pages:int -> Hw.Engine.t -> Core.Types.pvm * Core.Types.context * int
(** An {!of_program} setup: a nucleus site with [frames] frames and a
    swap device; one context maps [pages] fresh 8K pages at 0. *)

(** The memory-pressure Model programs: each fibre writes page
    (f + r) mod 3 and reads the next, for two rounds.  [pressure] runs
    two fibres on two frames (the mutation and forensics fixture),
    [contend_model] three on three.  Every operation contends for a
    frame, so schedules branch at allocation, eviction and pullIn
    (§3.3.3); the oracles are the programs' serializations. *)

val pressure : scenario
val pressure_oracle : oracle
val contend_model : scenario
val contend_model_oracle : oracle

val pp_stats : Format.formatter -> stats -> unit
val pp_violation : Format.formatter -> violation -> unit

(** Test-only fault injection: flags re-exported from {!Core.Pager}
    and {!Core.Install} that reintroduce two historical races, for the
    mutation tests asserting the explorer catches them. *)
module For_testing : sig
  val evict_claim_late : bool ref
  val skip_insert_probe : bool ref
end
