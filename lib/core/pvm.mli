(** The PVM: a demand-paged implementation of the GMI (paper §4).

    This is the façade of the [core] library.  A {!t} bundles the
    simulated machine (physical frame pool and MMU), the calibrated
    cost profile, the global map and the descriptor registries.  The
    GMI operations themselves live in sibling modules, all taking the
    PVM instance as first argument:

    - {!Context} — contextCreate / switch / getRegionList / destroy;
    - {!Region} — regionCreate / split / setProtection / lockInMemory
      / unlock / status / destroy (Table 2);
    - {!Cache} — cacheCreate / copy / move (Table 1) and fillUp /
      copyBack / moveBack / sync / flush / invalidate / setProtection
      / destroy (Table 4);
    - segment upcalls are the {!Gmi.backing} record (Table 3).

    This module adds simulated program accesses ({!touch}, {!read},
    {!write}), which translate through the MMU and run the §4.1.2
    fault algorithm on a miss, exactly like a user thread would.

    All operations must run inside {!Hw.Engine.run} of the engine the
    PVM was created with (they charge simulated time and may block on
    in-transit pages). *)

type t = Types.pvm
type context = Types.context
type region = Types.region
type cache = Types.cache

val create :
  ?page_size:int ->
  ?cost:Hw.Cost.profile ->
  frames:int ->
  engine:Hw.Engine.t ->
  unit ->
  t
(** [create ~frames ~engine ()] builds a PVM over a pool of [frames]
    page frames.  [page_size] defaults to 8192; [cost] defaults to
    {!Hw.Cost.chorus_sun360}. *)

val engine : t -> Hw.Engine.t
val memory : t -> Hw.Phys_mem.t
val page_size : t -> int

val cost : t -> Hw.Cost.profile
(** The calibrated cost profile charged by this instance. *)

val stats : t -> Types.stats
(** A point-in-time snapshot of the event counters. *)

val reset_stats : t -> unit

val metrics : t -> Obs.Metrics.t
(** This instance's always-on metrics registry: fault-latency
    histograms by resolution kind ("fault.zero-fill", "fault.pull-in",
    ...), the per-primitive sim-time attribution table (§5.3.2
    decomposition) and — published on each call, so the registry
    subsumes them — the legacy {!Types.stats} counters under
    "pvm.*", global-map probe counts ("gmap.probes",
    "gmap.stub_sources.probes", "gmap.stub_sleeps") and, on an engine
    with simulated CPUs, per-CPU utilization ("engine.cpuN.busy_ns"/"engine.cpuN.idle_ns" against
    the makespan). *)

val lock_stats : t -> Obs.Lockstat.snapshot list
(** Always empty: the PVM takes no lock.  perfbench is its only
    caller. *)

val tracer : t -> Obs.Trace.t
(** The tracing sink of this instance's engine ({!Hw.Engine.tracer});
    {!Obs.Trace.null} unless one was attached. *)

val charge_prim : t -> Hw.Cost.prim -> unit
(** Charge one primitive at this instance's calibrated cost, with
    metrics and trace attribution — for managers layered above the
    PVM (IPC, segment managers) that pay GMI-level costs. *)

val set_segment_create_hook : t -> (cache -> Gmi.backing option) -> unit
(** Install the [segmentCreate] upcall (Table 3): consulted when an
    anonymous cache needs a backing to page out to. *)

val touch : t -> context -> addr:int -> access:Hw.Mmu.access -> unit
(** Simulate one program access: translate through the MMU, resolving
    faults as the §4.1.2 handler would.
    @raise Gmi.Segmentation_fault on access outside any region.
    @raise Gmi.Protection_fault on access the region forbids. *)

val read : t -> context -> addr:int -> len:int -> Bytes.t
(** Simulated program reads of [len] bytes at [addr] (may span
    regions). *)

val write : t -> context -> addr:int -> Bytes.t -> unit
(** Simulated program writes at [addr]. *)

val check_invariant : t -> string list
(** Structural invariants of the copy trees (empty = healthy); used by
    the property tests. *)

val pp_history_tree : Format.formatter -> cache -> unit
(** Render the history tree containing [cache] (Figure 3 scenarios). *)

val start_pageout_daemon :
  ?period:Hw.Sim_time.span -> t -> low_water:int -> high_water:int -> unit
(** Spawn the asynchronous page-out daemon: whenever free frames drop
    below [low_water] it evicts FIFO victims until [high_water] frames
    are free, checking every [period] (default 20 ms).  Keeps demand
    allocations from paying eviction (and pushOut latency)
    synchronously. *)
