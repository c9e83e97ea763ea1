(** Discrete-event simulation engine with cooperative fibres.

    The Chorus memory manager requires blocking semantics ("while a
    pullIn or pushOut operation is in progress, any concurrent access
    to the fragment is suspended", paper §3.3.3).  We provide them
    deterministically: fibres are one-shot delimited continuations
    (OCaml 5 effects) scheduled by simulated time; ties are broken by
    spawn/wake order, so every run is reproducible.  The dispatch order
    of equal-time fibres, and of ready lane slices on simulated CPUs,
    is the engine's only nondeterminism, and an installed {!scheduler}
    is the one way to choose it differently — {!seeded_scheduler} to
    perturb it, a model checker to enumerate it.

    Fibre-facing operations ({!sleep}, {!suspend}, {!Cond.wait}) may
    only be called from code running inside {!run}. *)

type t

exception Deadlock of int
(** Raised by {!run} when the event queue drains while fibres are
    still suspended; carries the number of stuck fibres. *)

exception Watchdog of string
(** Raised by {!run} (between events, never inside fibre context) when
    the watchdog's blocked-on graph closes a cycle; carries a rendered
    diagnostic listing the cycle's fibres and what each is blocked on.
    Only raised while {!enable_watchdog} is active. *)

type ready_task = {
  rt_fib : int;  (** fibre the task belongs to *)
  rt_seq : int;  (** global schedule sequence number (spawn/wake order) *)
  rt_daemon : bool;
}
(** One runnable task, as presented to a {!scheduler} at a dispatch
    choice point. *)

type scheduler = {
  sched_pick : now:Sim_time.t -> ready_task array -> int;
      (** Called at every dispatch with the complete ready set, in
          [rt_seq] order (always non-empty; often a singleton): every
          ready lane task while there is one, else the serial tasks at
          the minimal queued time.  Must return the index of the task
          to run.  Exceptions propagate out of {!run}. *)
  sched_step : fib:int -> accesses:(int * int * bool) list -> unit;
      (** Called after the chosen task's slice — serial or lane —
          completes (and before the event hook), with the fibre that
          ran and the shared objects the slice touched, as recorded by
          {!note_access} (unordered, may contain duplicates); the
          [bool] marks a write. *)
}
(** A scheduling policy: the only way to dispatch equal-time tasks, or
    ready lane tasks, in anything but spawn/wake order.  Without one
    the engine takes them in that order — the zero-overhead default,
    identical to {!fifo_scheduler}.  {!seeded_scheduler} is the canned
    perturbation; a model checker or a forced replay installs its own
    to enumerate or dictate the choices.  Reordering is legal because
    a fibre has at most one queued task at a time (one-shot
    continuations): program order within each fibre is preserved and
    only genuinely concurrent work is permuted. *)

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] is an engine modelling [n] simulated CPUs
    (default 0).  Everything runs on the calling OS domain.  Serial-class
    fibres (affinity 0, the default) run in exact heap order; a fibre
    spawned with a non-zero [affinity] runs as {e lane slices}, each
    placed when it starts on the least-loaded simulated CPU.  The run
    loop runs one slice at a time: a ready lane task while there is one
    — in the order they became ready, or as an installed {!scheduler}
    picks — and only then the heap's next serial task.  So a program
    whose fibres are all serial executes the same schedule at any [n],
    and with [n = 0] — the sequential engine — every fibre is serial.
    Inside a lane slice, {!sleep} coalesces into a per-slice virtual
    clock instead of a heap round-trip.  Every run at a given [n] is
    deterministic. *)

val domains : t -> int
(** The number of simulated CPUs this engine was created with. *)

val cpu_busy : t -> Sim_time.span array
(** Accumulated busy (charged) simulated time per simulated CPU.
    Every lane slice adds its charge
    interval to the CPU it was placed on, so [busy.(i) <= makespan]
    and [makespan - busy.(i)] is CPU [i]'s idle time — the raw
    material of the utilization report.  Read after {!run} returns
    for a stable snapshot. *)

val pool_lock_stats : t -> Obs.Lockstat.snapshot list
(** Always empty: the engine takes no lock.  perfbench is its only
    caller. *)

val in_parallel_slice : unit -> bool
(** Whether the calling code runs inside a lane slice. *)

val set_scheduler : t -> scheduler -> unit
(** Route every dispatch, of a serial task or a lane slice, through an
    explicit choice point, replacing the default spawn/wake order while
    installed.  [sched_step] runs after every slice, with that slice's
    own footprint.  A scheduler observes, so while one is installed
    every dispatch goes through the run loop: {!sleep} neither advances
    the clock in place nor hands off. *)

val clear_scheduler : t -> unit

val decisions : t -> int list
(** Every multi-ready pick a {!scheduler} made on this engine, oldest
    first: the fibre chosen at each dispatch that had more than one
    equal-time ready task or more than one ready lane task.  This is
    the schedule format [Check.Explore.run_forced] consumes, so feeding
    it back reproduces the run decision for decision — the order of
    its lane slices included — on an engine with the same number of
    simulated CPUs.  Empty when no scheduler was ever installed — and
    that empty schedule replays as index 0 at every choice, the
    [(time, seq)] order such a run took. *)

val fifo_scheduler : scheduler
(** Spawn/wake order through the choice-point API: always index 0, the
    same schedule as no scheduler at all. *)

val seeded_scheduler : int -> scheduler
(** [seeded_scheduler seed] runs equal-time tasks, and ready lane
    tasks, in a deterministic pseudo-random order derived from the
    seed — the schedule-perturbation harness ([chorus check],
    [bench --tie-seed]).  It picks the ready task whose sequence number has the least
    [Hashtbl.seeded_hash seed], hash ties going to the lower sequence
    number; the same seed always produces the same schedule. *)

val note_access : ?write:bool -> t -> int -> int -> unit
(** [note_access eng a b] records that the running task's slice
    touched the shared object identified by [(a, b)] — no-op unless a
    scheduler is installed and a slice, serial or lane, is executing.
    The PVM notes each fragment as [(cache id, offset)] and reserves
    negative first components for object classes (frame pool, cache
    topology); the engine treats the pairs as opaque.  Footprints feed the model
    checker's independence relation (two slices commute unless their
    footprints intersect with at least one side writing).  [?write]
    defaults to [true] — the conservative classification; pass
    [~write:false] only for accesses that provably do not mutate the
    object, which lets the checker commute read-read pairs. *)

val tracking : t -> bool
(** Whether {!note_access} currently records — true inside a slice,
    serial or lane, while a scheduler is installed.  Lets callers skip
    the work of computing the object identity when nobody is
    listening. *)

val ambient : unit -> t option
(** The engine running the current fibre — [None] outside {!run} and
    in what the run loop calls between fibres (hooks, schedulers, the
    watchdog), unless that [run] was itself called from a fibre.  Lets
    shared objects not threaded with an engine handle (ports, DSM
    directories, process tables) join the footprint and blocked-on
    disciplines; it allocates nothing. *)

val note_ambient : ?write:bool -> int -> int -> unit
(** [note_ambient a b] is {!note_access} against the ambient engine; a
    no-op outside {!run}. *)

val declare_wait_ambient : on:string -> ?owner:int -> unit -> unit
(** {!declare_wait} against the ambient engine; a no-op outside
    {!run}. *)

val now : t -> Sim_time.t
(** Current simulated time. *)

val current_fibre : t -> int
(** Id of the fibre whose task is currently running (0 outside
    {!run}).  Ids are allocated by {!spawn}, starting at 1; traces use
    them as Chrome thread ids. *)

val tracer : t -> Obs.Trace.t
(** The tracing sink attached to this engine; {!Obs.Trace.null} — a
    never-enabled sink — unless {!set_tracer} was called, so
    instrumentation can check [Obs.Trace.enabled (tracer eng)] and
    short-circuit at zero cost. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Attach a tracing sink, wiring its clock to this engine's simulated
    time and its fibre source to {!current_fibre} (both slice-aware:
    inside a lane slice they report the slice's virtual clock and
    fibre).  With simulated CPUs, a lane slice's events go straight
    into the ring and each slice adds one ["slice"] span to its CPU's
    track, so the trace carries one extra track per simulated CPU. *)

val fibre_name : t -> int -> string option
(** The [?name] given to {!spawn} for this fibre, if any. *)

(** {2 Watchdog} *)

val enable_watchdog :
  t ->
  ?stall_after:Sim_time.span ->
  ?check_every:Sim_time.span ->
  ?metrics:Obs.Metrics.t ->
  unit ->
  unit
(** Activate stall and deadlock detection.  Parked fibres are tracked
    in a blocked-on graph (edges supplied by {!declare_wait}); a park
    that closes a cycle raises {!Watchdog} after the current slice.  A
    fibre continuously parked longer than [stall_after] (simulated
    time, default 1s) is counted as a stall — not fatal, since a
    slow-but-live run legitimately clears it — in the
    ["watchdog.stalls"] counter; deadlocks and sweep iterations are
    counted in ["watchdog.deadlocks"] and ["watchdog.checks"].  The
    waiting table is swept at most once per [check_every] of simulated
    time (default 1ms).  Counters live in [metrics] (fresh registry if
    omitted; retrieve via {!watchdog_metrics}).  Each deadlock and
    stall is also recorded as an instant in category ["watchdog"]
    (named ["deadlock"] or ["stall"], the fibre as argument [fib]) on
    the engine's {!tracer}, when that is enabled.  The watchdog
    observes, so it sends every dispatch back through the run loop
    ({!sleep}'s in-place clock advance and the hand-off of {!sleep} and
    {!suspend} stop), and its checks run after every wake-up.  Lane
    slices park in the same table, and the check runs after every
    slice, serial or lane, so a cycle closed in a lane is raised
    before the run can end in {!Deadlock}. *)

val watchdog_metrics : t -> Obs.Metrics.t option
(** The registry holding the watchdog counters, when enabled. *)

val declare_wait : t -> on:string -> ?owner:int -> unit -> unit
(** Annotate the park this fibre is about to perform: [on] names the
    resource class (["transfer"], ["frame"], ...) and [owner] the
    fibre expected to release it, forming the blocked-on edge the
    deadlock detector walks.  Cheap no-op unless the watchdog is
    enabled; consumed by the next {!suspend} (an un-annotated park
    records a generic ["suspend"] wait with no edge). *)

val blocked_report : t -> string
(** Human-readable list of currently parked fibres — what each is
    blocked on, who holds it, since when.  Useful after {!Deadlock} or
    {!Watchdog} escapes {!run}. *)

val last_stall : t -> string option
(** Diagnostic for the most recent stall the watchdog counted. *)

val set_event_hook : t -> (unit -> unit) -> unit
(** Install a callback invoked after every completed engine event
    (task execution) — between tasks, never inside fibre context, so
    it must not perform effects.  Used by the sanitizer's slow mode to
    sweep invariants after every scheduling step; defaults to a
    no-op.  Exceptions raised by the hook propagate out of {!run}.
    A hook observes, so installing one sends every dispatch back
    through the run loop ({!sleep}'s in-place clock advance and the
    hand-off of {!sleep} and {!suspend} stop), and the hook also sees
    each wake-up.  With simulated CPUs it runs after every lane slice
    too. *)

val spawn :
  t -> ?name:string -> ?daemon:bool -> ?affinity:int -> (unit -> unit) -> unit
(** [spawn eng f] schedules fibre [f] to start at the current
    simulated time.  Usable both from inside and outside fibres.
    A [daemon] fibre (server loop) is allowed to remain suspended when
    the simulation drains and does not count towards {!Deadlock}.

    [affinity] (default 0) assigns the fibre to an execution class:
    class 0 is serial (deterministic heap order); any non-zero class
    makes a {e lane fibre}, which runs as lane slices that overlap in
    simulated time on the simulated CPUs; which non-zero number does
    not matter.  Without simulated CPUs affinity is ignored — that is
    what makes the sequential engine the oracle twin.  Daemon fibres
    must stay in the serial class.
    @raise Invalid_argument on a negative affinity or a non-serial
    daemon. *)

val sleep : Sim_time.span -> unit
(** Advance this fibre's position in simulated time; other runnable
    fibres execute in between.  [sleep 0] is a yield.  A fibre switch
    allocates only the continuation and the closure resuming it.

    Dispatch skips the run loop only when nothing observes: no
    {!scheduler}, {!enable_watchdog} watchdog or {!set_event_hook} hook
    is installed and no lane task is ready.  Installing any of them
    sends every dispatch back through the run loop, since each must
    see every one.  When nothing observes and no queued task is due at
    or before the wake-up time, the engine advances its clock in place
    instead of dispatching the wake-up: same schedule, same sequence
    numbers, no fibre switch and no allocation (not in a daemon fibre,
    whose wake-up the run loop may drop).  Otherwise, still unobserved,
    the effect handler queues the wake-up, takes the task the run loop
    would take next and, if it resumes a parked fibre, resumes it in
    place; the resume is a tail call, so a chain of switches keeps the
    host stack flat.  A fresh fibre's first slice still starts from
    the run loop. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the current fibre. [register resume] is
    called immediately with a one-shot [resume] closure; invoking
    [resume] (from any fibre, or between events) schedules the parked
    fibre at the then-current simulated time.  While nothing observes
    (see {!sleep}), the parking fibre hands off in place to the next
    parked fibre, as a switching {!sleep} does. *)

val run : t -> (unit -> unit) -> unit
(** [run eng main] spawns [main] and processes events until the queue
    is empty.  Exceptions raised by fibres propagate out of [run].
    @raise Deadlock if fibres remain suspended at drain time. *)

val run_fn : t -> (unit -> 'a) -> 'a
(** Like {!run} but returns the value produced by the main fibre. *)

(** Condition variables for fibres. *)
module Cond : sig
  type t

  val create : unit -> t

  val wait : t -> unit
  (** Parks the current fibre until the next {!broadcast}. *)

  val broadcast : t -> unit
  (** Wakes every fibre currently parked in {!wait}. *)

  val finish : t -> unit
  (** Mark the condition's one-shot event (a transfer completing, a
      stub resolving) as having happened, then wake every parked
      fibre.  After [finish], {!await_unfinished} returns without
      parking. *)

  val finished : t -> bool

  val await_unfinished : t -> unit
  (** Park until {!finish} — unless it has already happened, in which
      case return immediately.  A waiter that parks behaves exactly
      like {!wait}. *)

  val waiters : t -> int

  val set_owner : t -> int -> unit
  (** Record the fibre responsible for the eventual {!broadcast}
      (e.g. the fibre driving the in-flight transfer), so waiters can
      declare a blocked-on edge to it.  [-1] means unknown. *)

  val owner : t -> int
  (** The fibre set by {!set_owner}, or [-1]. *)
end
