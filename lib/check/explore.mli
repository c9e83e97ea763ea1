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

    Each explored schedule is one {!Harness.run}: the {!Sanitizer}'s
    structural tier after every engine event and its full tier at
    quiescence, and the observation judged by {!Harness.judge}
    against the first completed schedule's. *)

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
  ?bound:int -> ?max_schedules:int -> ?max_steps:int -> Scenario.t -> result
(** Explore the scenario's schedules.  Without [bound] the search is
    exhaustive with DPOR pruning; with [bound k] it is a plain DFS
    over schedules using at most [k] preemptions (switches away from a
    still-ready fibre) — the two prunings are not combined because
    sleep sets are unsound under a preemption bound.  [max_schedules]
    caps executed runs (sets [exhausted = false] when hit);
    [max_steps] (default 200_000) bounds one schedule's engine
    events. *)

type forced = {
  f_verdict : [ `Done of string | `Sleep | `Violation of string * string ];
  f_run : Harness.t;  (** the run itself: engine, PVMs, how it ended *)
}

val run_forced :
  ?domains:int ->
  ?instrument:bool ->
  ?max_steps:int ->
  Scenario.t ->
  violation ->
  forced
(** The forced-pick driver: re-run [v]'s schedule through
    {!Harness.run} ([domains] and [instrument] as there, [instrument]
    default false), taking at
    each multi-ready dispatch the fibre the schedule names (index 0
    when absent); classify the ending as {!run} does, a run completing
    on [v.v_digest] being [v] itself. *)

val pp_stats : Format.formatter -> stats -> unit
val pp_violation : Format.formatter -> violation -> unit

(** Test-only fault injection: flags re-exported from {!Core.Pager}
    and {!Core.Install} that reintroduce two historical races, for the
    mutation tests asserting the explorer catches them. *)
module For_testing : sig
  val evict_claim_late : bool ref
  val skip_insert_probe : bool ref
end
