(** Crash forensics: assemble {!Obs.Bundle}s from failed runs and
    re-drive them deterministically.

    {!Obs.Bundle} is the dumb container; this module is the glue that
    can see the engine and the PVM.  Three entry points:

    - {!capture} re-executes a known-bad schedule (an
      {!Explore.violation}'s) through {!Explore.run_forced} on an
      instrumented {!Harness.run} (enabled tracer, watchdog) and
      freezes the failure state into a bundle;
    - {!capture_live} freezes an already-failed {!Harness.run} — the
      path [chorus check] takes when a run ends in a {!Harness.failure},
      where {!Hw.Engine.decisions} holds the decision prefix;
    - {!replay} re-executes a bundle's recorded schedule and reports
      the outcome, which {!reproduces} compares against the bundle.

    Replay determinism rests on the engine's guarantee that its
    decision log captures {e every} multi-ready pick a scheduler made:
    a forced replay of those decisions reproduces the original
    schedule exactly, whatever scheduler produced it, and a run with
    no scheduler logs nothing because index 0 at every choice is the
    order it took.  Lane slices are not choices: their order follows
    from the serial picks, so a replay on as many simulated CPUs as the
    bundle records ([cpus]) re-drives them too. *)

type outcome = {
  o_kind : string;
      (** ["done"], ["sleep"], ["invariant"], ["deadlock"],
          ["watchdog"], ["divergence"], ["crash"] or an oracle's kind *)
  o_detail : string;  (** digest when done; diagnostic otherwise *)
  o_digests : string list;
      (** {!Core.Inspect.digest} per registered PVM, registration
          order, at completion or at the failure point *)
  o_rules : string list;
      (** failed sanitizer rule ids at the failure point, sorted,
          deduplicated; empty unless [o_kind = "invariant"] *)
}

val injections : (string * bool ref) list
(** Named fault-injection flags a bundle can record and a replay can
    re-arm: ["evict-claim-late"] and ["skip-insert-probe"], aliasing
    {!Explore.For_testing}. *)

val set_injections : string list -> unit
(** Arm the named flags (clearing the rest).
    @raise Invalid_argument on an unknown name. *)

val clear_injections : unit -> unit

val with_injections : string list -> (unit -> 'a) -> 'a
(** Arm the named flags around a thunk, restoring the previous
    arming on the way out (including on exceptions). *)

val capture :
  ?inject:string list ->
  ?max_steps:int ->
  Scenario.t ->
  Explore.violation ->
  Obs.Bundle.t * outcome
(** [capture scenario v] re-runs [v] through {!Explore.run_forced}
    with a fresh enabled tracer and bundles whatever state the run
    ends in — normally [v] itself, its [v_digest] kept as [observed].
    [inject] names {!injections} flags to arm for the run (armed and
    restored around it) and is recorded in the bundle. *)

val capture_live :
  ?inject:string list -> Scenario.t -> Harness.t -> Harness.failure ->
  Obs.Bundle.t
(** Freeze a run that ended in [failure]: full state and digests of
    its PVMs, the engine's simulated CPU count, the schedule from
    {!Hw.Engine.decisions}, the trace tail
    from the engine's tracer, the failed rule ids of the sweep that
    fired (strict or structural, as it ran), metrics registries and
    the blocked-fibre report. *)

val replay : ?max_steps:int -> Scenario.t -> Obs.Bundle.t -> outcome
(** Re-execute the bundle's recorded schedule on an engine with the
    bundle's simulated CPUs (arming its recorded injections for the
    duration) and report how the run ends. *)

val reproduces : Obs.Bundle.t -> outcome -> (unit, string) result
(** Does a replay outcome match what the bundle recorded?  Checks
    failure kind, per-PVM digests and sanitizer rule ids; [Error]
    carries a human-readable mismatch description. *)
