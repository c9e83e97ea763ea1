(** Whole-state invariant checker (sanitizer) for the PVM.

    The paper's PVM stands on structural invariants it never
    mechanically checks: every real page descriptor hashed in the
    global map under exactly one (cache, offset) (§4.1.1, Figure 2),
    history objects forming acyclic inverted copy trees with
    consistent working-cache marks (§4.2), per-virtual-page stubs
    threaded consistently between the global map, source pages, the
    pending-source index and each cache's own stub indexes (§4.3),
    and MMU translations never more
    permissive than what the owning descriptor allows (§4.1.2).  This
    module sweeps a live PVM against that catalogue and reports every
    violation.

    Two tiers:
    - the {e structural} subset always holds, even between engine
      events while a pullIn/pushOut is mid-flight ([strict:false],
      the sanitizer's slow mode);
    - the {e quiescent} rules additionally hold when no operation is
      in progress ([strict:true], the default): no synchronization
      stubs, exact frame accounting, bidirectional stub threading and
      MMU protection coherence. *)

type violation = { rule : string; detail : string }

val rules : (string * string) list
(** The catalogue: (rule id, description with paper citation).  Every
    {!violation.rule} is one of these ids. *)

val run : ?strict:bool -> Core.Types.pvm -> violation list
(** Sweep the PVM; [strict] (default [true]) adds the quiescent-only
    rules.  Read-only: charges nothing and never perturbs the
    simulated clock, so it can run from an engine event hook. *)

val pp_violation : Format.formatter -> violation -> unit

val report : Format.formatter -> Core.Types.pvm -> violation list -> unit
(** Render violations followed by the Inspect view of the offending
    state (cache lines, frame pool, counters). *)

exception Failed of string
(** Raised by {!assert_ok}; the payload is the rendered report. *)

val assert_ok : ?strict:bool -> ?label:string -> Core.Types.pvm -> unit
(** Run the sweep and raise {!Failed} with a rendered report when any
    invariant is violated. *)
