(** Discrete-event simulation engine with cooperative fibres.

    The Chorus memory manager requires blocking semantics ("while a
    pullIn or pushOut operation is in progress, any concurrent access
    to the fragment is suspended", paper §3.3.3).  We provide them
    deterministically: fibres are one-shot delimited continuations
    (OCaml 5 effects) scheduled by simulated time; ties are broken by
    spawn/wake order, so every run is reproducible.  The dispatch order
    of equal-time fibres is the engine's only nondeterminism, and an
    installed {!scheduler} is the one way to choose it differently —
    {!seeded_scheduler} to perturb it, a model checker to enumerate it.

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
      (** Called at every dispatch with the complete set of ready
          tasks at the minimal queued time, in [rt_seq] order (always
          non-empty; often a singleton).  Must return the index of the
          task to run.  Exceptions propagate out of {!run}. *)
  sched_step : fib:int -> accesses:(int * int * bool) list -> unit;
      (** Called after the chosen task's slice completes (and before
          the event hook), with the fibre that ran and the shared
          objects the slice touched, as recorded by {!note_access}
          (unordered, may contain duplicates); the [bool] marks a
          write. *)
}
(** A scheduling policy: the only way to dispatch equal-time tasks in
    anything but spawn/wake order.  Without one the engine pops its
    [(time, seq)] heap directly — the zero-overhead default, identical
    to {!fifo_scheduler}.  {!seeded_scheduler} is the canned
    perturbation; a model checker or a forced replay installs its own
    to enumerate or dictate the choices.  Reordering is legal because
    a fibre has at most one queued task at a time (one-shot
    continuations): program order within each fibre is preserved and
    only genuinely concurrent work is permuted. *)

val create : ?domains:int -> unit -> t
(** [create ()] is the cooperative single-domain engine — the default,
    and the reference semantics every checker (DPOR, sanitizer slow
    mode, flight recorder, watchdog, {!set_scheduler}) is defined
    against; equal-time tasks run in spawn/wake order until a
    {!scheduler} is installed.

    [create ~domains:n ()] (n >= 1) adds a pool of [n] worker domains:
    fibres spawned with a non-zero [affinity] execute there as
    {e parallel slices}, while serial-class fibres (affinity 0, the
    default) still run on the coordinator in exact heap order, and
    only while the pool is quiescent.  Inside a parallel slice,
    {!sleep} coalesces into a per-slice virtual clock instead of a
    heap round-trip, and {!suspend}/{!Cond} use real mutexes so any
    domain may resume a parked fibre.  [~domains:0] is the sequential
    engine. *)

val domains : t -> int
(** The worker-pool size this engine was created with; [0] for the
    cooperative engine. *)

val cpu_busy : t -> Sim_time.span array
(** Accumulated busy (charged) simulated time per simulated CPU, index
    [0 .. domains-1]; [[||]] on the sequential engine.  Every committed
    parallel slice adds its charge interval to the CPU it was placed
    on, so [busy.(i) <= makespan] and [makespan - busy.(i)] is CPU
    [i]'s idle time — the raw material of the utilization report.
    Read after {!run} returns for a stable snapshot. *)

val pool_lock_stats : t -> Obs.Lockstat.snapshot list
(** Contention statistics for the engine's internal pool lock
    ([engine/pool]): acquisition and contended-acquisition counts are
    always maintained (one atomic op each); wait/hold wall-clock
    timing additionally requires {!Obs.Lockstat.enable_timing}.  Empty
    on the sequential engine, which has no pool lock. *)

val in_parallel_slice : unit -> bool
(** Whether the calling code is executing inside a parallel slice on a
    worker domain — i.e. whether other domains may be touching shared
    state concurrently {e right now}.  Always [false] on the
    sequential engine and on the coordinator, which is what lets
    shared structures take their locks only when the protection is
    needed and stay byte-identical on the oracle path. *)

val set_scheduler : t -> scheduler -> unit
(** Route every dispatch through an explicit choice point, replacing
    the default spawn/wake order while installed.
    @raise Invalid_argument on a parallel engine (created with
    [~domains]): schedulers enumerate a serial dispatch order, which
    the pool does not have.  Explore schedules on the sequential
    oracle twin instead. *)

val clear_scheduler : t -> unit

val fifo_scheduler : scheduler
(** Spawn/wake order through the choice-point API: always index 0, the
    same schedule as no scheduler at all. *)

val seeded_scheduler : int -> scheduler
(** [seeded_scheduler seed] runs equal-time tasks in a deterministic
    pseudo-random order derived from the seed — the
    schedule-perturbation harness ([chorus check], [bench --tie-seed]).
    It picks the ready task whose sequence number has the least
    [Hashtbl.seeded_hash seed], hash ties going to the lower sequence
    number; the same seed always produces the same schedule. *)

val note_access : ?write:bool -> t -> int -> int -> unit
(** [note_access eng a b] records that the running task's slice
    touched the shared object identified by [(a, b)] — no-op unless a
    scheduler or an enabled flight recorder is installed and a slice
    is executing.  The PVM notes each fragment as [(cache id, offset)]
    and reserves negative first components for object classes (frame
    pool, cache topology); the engine treats the pairs as opaque.
    Footprints feed the model checker's independence relation (two
    slices commute unless their footprints intersect with at least
    one side writing) and the flight ring's access records.
    [?write] defaults to [true] — the conservative classification;
    pass [~write:false] only for accesses that provably do not mutate
    the object, which lets the checker commute read-read pairs. *)

val tracking : t -> bool
(** Whether {!note_access} currently records — true only inside a task
    slice while a scheduler or an enabled flight recorder is
    installed.  Lets callers skip the work of computing the object
    identity when nobody is listening. *)

val ambient : unit -> t option
(** The engine running the current fibre, recovered through the fibre's
    effect handler — [None] when called outside {!run}.  Lets shared
    objects that are not threaded with an engine handle (ports, DSM
    directories, process tables) participate in the footprint and
    blocked-on disciplines. *)

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
    inside a parallel slice they report the slice's virtual clock and
    fibre).  Tracing works on both engines: the parallel engine
    switches the tracer into domain-sharded mode at [run] and commits
    each slice's events with its final CPU placement, so the merged
    trace carries one extra track per simulated CPU. *)

val flight : t -> Obs.Flight.t
(** The flight recorder attached to this engine; {!Obs.Flight.null} —
    a never-enabled recorder — unless {!set_flight} was called. *)

val set_flight : t -> Obs.Flight.t -> unit
(** Attach a flight recorder.  While the recorder is enabled, every
    dispatch is logged to its ring, every multi-ready dispatch also
    logs the scheduling decision taken (the chosen fibre — the same
    choice points a {!scheduler} sees, resolved in spawn/wake order
    when no scheduler is installed, so the recorded schedule is
    identical to the unrecorded one), and {!note_access} footprints
    are logged as access records.  The decision log replays the run
    deterministically through the explorer's forced-pick scheduler.
    @raise Invalid_argument when attaching an {e enabled} recorder to
    a parallel engine: the flight ring logs a serial decision
    sequence, which the pool does not produce.  This is the remaining
    parallel-mode observability limitation (tracing and metrics now
    work there); record flights on the sequential oracle twin.
    Attaching a disabled recorder (e.g. {!Obs.Flight.null}) is
    allowed. *)

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
    omitted; retrieve via {!watchdog_metrics}).
    @raise Invalid_argument on a parallel engine: the watchdog sweeps
    a serial waiting table between events, which the pool does not
    maintain.  Watch the sequential oracle twin instead. *)

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
    no-op.  Exceptions raised by the hook propagate out of {!run}. *)

val spawn :
  t -> ?name:string -> ?daemon:bool -> ?affinity:int -> (unit -> unit) -> unit
(** [spawn eng f] schedules fibre [f] to start at the current
    simulated time.  Usable both from inside and outside fibres.
    A [daemon] fibre (server loop) is allowed to remain suspended when
    the simulation drains and does not count towards {!Deadlock}.

    [affinity] (default 0) assigns the fibre to an execution class on
    a parallel engine: class 0 is serial (coordinator, deterministic
    heap order); fibres of equal non-zero affinity serialise against
    each other in FIFO lanes, and distinct classes run concurrently on
    the domain pool.  The sequential engine ignores affinity — that is
    what makes it the oracle twin.  Daemon fibres must stay in the
    serial class.
    @raise Invalid_argument on a negative affinity or a non-serial
    daemon. *)

val sleep : Sim_time.span -> unit
(** Advance this fibre's position in simulated time; other runnable
    fibres execute in between.  [sleep 0] is a yield. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the current fibre. [register resume] is
    called immediately with a one-shot [resume] closure; invoking
    [resume] (from any fibre, or between events) schedules the parked
    fibre at the then-current simulated time. *)

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
      parking.  On the sequential engine this is exactly
      {!broadcast}. *)

  val finished : t -> bool

  val await_unfinished : t -> unit
  (** Park until {!finish} — unless it has already happened, in which
      case return immediately.  Unlike {!wait}, the finished flag is
      re-checked under the condition's mutex inside the park's
      registration window, closing the lost-wakeup race a parallel
      waker could otherwise hit.  On the sequential engine a waiter
      that parks behaves exactly like {!wait}. *)

  val waiters : t -> int

  val set_owner : t -> int -> unit
  (** Record the fibre responsible for the eventual {!broadcast}
      (e.g. the fibre driving the in-flight transfer), so waiters can
      declare a blocked-on edge to it.  [-1] means unknown. *)

  val owner : t -> int
  (** The fibre set by {!set_owner}, or [-1]. *)
end
