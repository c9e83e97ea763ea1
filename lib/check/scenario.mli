(** The scenario registry: every workload the checkers drive.

    One {!t} serves every driver — [chorus inspect/trace/stats/profile/
    check/explore/crossval/replay], the bench harness and the test
    suites — so a workload is written once and each driver reaches it
    by name through {!find}.  Where a driver times part of a workload
    (bench's Table 6/7 loops and [macro]), the registry exports the
    steps and the driver keeps only the measurement window.  A scenario builds its PVMs on the engine
    it is given, announces each through [register], starts its fibres
    and returns an observation thunk; its {!oracle} says how the
    observations of different schedules must relate. *)

(** How the observations of two schedules must relate; {!Harness.judge}
    is the one reader.  Every oracle also requires a clean run
    (sanitizer, watchdog, blocking discipline). *)
type oracle =
  | Schedule_independent
      (** every schedule must agree on the observation, the stats and
          frame-pool occupancy, the state digest and the read-back
          memory contents *)
  | Outcomes of (string, unit) Hashtbl.t Lazy.t
      (** every schedule's observation must be a member — the
          {!Model.outcomes} of a Model program, forced on first use *)
  | No_oracle
      (** racing workloads: every schedule must agree on the read-back
          memory contents only *)

type t = {
  name : string;
  oracle : oracle;
  run : Hw.Engine.t -> register:(Core.Types.pvm -> unit) -> unit -> string;
      (** Build and start the workload inside the engine's main fibre,
          calling [register] with every PVM as soon as it exists (the
          per-event sanitizer sweeps registered instances mid-run);
          return the observation thunk.  The thunk first joins the
          fibres the body spawned, so it sees the workload's final
          state whether invoked in the main fibre or on the drained
          engine.  Must be deterministic given the schedule. *)
}

val all : t list
(** The registry, in CLI order: the kernel workloads [fig3], [fork],
    [dsm], [ipc], [contend], [storm], [make] and [decomp] (observed by
    {!digest}), then the Model programs [pressure] and [contend-model]
    (observed by {!Model.digest_outcome}, judged by [Outcomes]). *)

val find : string -> t option

val exec : Hw.Engine.t -> t -> Core.Types.pvm list * (unit -> string)
(** Run the scenario on the engine until it drains; return the
    registered PVMs in registration order and the observation, taken
    on the drained engine when called (it may fault pages in, so take
    stats and state digests first). *)

val digest : Core.Types.pvm list -> string
(** Concatenated {!Core.Inspect.digest}s: the kernel workloads'
    observation and the crossval comparand. *)

val contents : Hw.Engine.t -> Core.Types.pvm list -> string
(** Read every live, readable region back through the GMI on the
    drained engine and digest the bytes — the logical memory contents
    a program could observe.  Faults pages in, so it goes last. *)

val storm :
  ?workers:int -> ?pages:int -> ?rounds:int -> ?shards:int -> unit -> t
(** The contended fault workload: [workers] fibres (default 8), each
    in its own context with a private anonymous cache of [pages] pages
    (default 16), all sharing one read-only pre-filled cache.  Each
    worker round (default 4 rounds) zero-fill-faults and rewrites its
    private pages in a worker-skewed order and reads a shared page, so
    the global map, the frame pool and the pmap see concurrent traffic
    from every worker while the final state stays deterministic: pages
    are disjoint per worker and every write is a pure function of
    (worker, page).  Workers get distinct affinities, so on a parallel
    engine they genuinely overlap; the frame pool is sized so nothing
    is ever evicted.  The registry's [storm] is [storm ()]. *)

val storm_faults : workers:int -> pages:int -> int
(** Lower bound on the demand-zero faults one [storm] run generates
    (private pages only). *)

(** {2 make -j2}

    The registry's [make] is {!make_setup} at retention 64 followed by
    {!make_jobs}; the bench harness runs the two halves itself to time
    the jobs alone and to compare retention 64 with 0. *)

type make_site = {
  pvm : Core.Types.pvm;
  procs : Mix.Process.manager;
  make_proc : Mix.Process.t;  (** the make process, data written *)
}

val make_setup :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  retention:int ->
  make_site
(** A 4096-frame site keeping [retention] unreferenced segment caches
    (§5.1.3), the [make] and [cc] images, and a running make process
    that has written its data; [register] is called with the site's
    PVM as soon as it exists.  Runs in the engine's main fibre. *)

val make_jobs : make_site -> unit
(** 12 compiles, two at a time: make forks a child that execs [cc],
    reads its 48-page text, writes data and an 8-page heap, pipes an
    8-page object back and exits; make waits for it, then reads each
    object into its bss. *)

val make : t

(** {2 The paper's Table 6/7 cycles (§5.3)}

    One cycle of each measurement, for the Chorus PVM and for the
    Mach-style shadow baseline, run in the engine's main fibre.  The
    bench harness times them; {!decomp} and {!decomp_mach} run one of
    each at the 1024 Kb / 128-page cell. *)

val zero_fill_cycle :
  Core.Types.pvm -> Core.Types.context -> size:int -> pages:int -> unit
(** Table 6: create a [size]-byte region of a fresh cache at 0,
    write-touch its first [pages] pages, destroy region and cache. *)

val cow_source :
  Core.Types.pvm ->
  Core.Types.context ->
  size:int ->
  Core.Types.cache * Core.Types.region
(** Table 7's source: a [size]-byte region at 0, every page
    written. *)

val cow_cycle :
  Core.Types.pvm ->
  Core.Types.context ->
  src:Core.Types.cache ->
  size:int ->
  pages:int ->
  unit
(** Table 7: history-copy the source into a fresh cache mapped at
    0x4000_0000, write the first [pages] source pages (forcing real
    copies), destroy the copy's region and cache. *)

val mach_zero_fill_cycle :
  Shadow.Shadow_vm.t -> Shadow.Shadow_vm.space -> size:int -> pages:int -> unit

val mach_cow_source :
  Shadow.Shadow_vm.t ->
  Shadow.Shadow_vm.space ->
  size:int ->
  Shadow.Shadow_vm.entry

val mach_cow_cycle :
  Shadow.Shadow_vm.t ->
  Shadow.Shadow_vm.space ->
  src:Shadow.Shadow_vm.entry ->
  pages:int ->
  unit
(** The same three steps on the shadow-object baseline. *)

val decomp : t
(** One zero-fill cycle then one COW cycle (source set up, copied,
    128 pages really copied, everything torn down) on a 600-frame
    PVM: the 1024 Kb / 128-page shapes the §5.3.2 decomposition is
    derived from. *)

val decomp_mach : Hw.Engine.t -> Shadow.Shadow_vm.t
(** {!decomp}'s twin on a 900-frame shadow-object VM, run on the
    engine until it drains.  Not a registry entry: the checkers read
    PVM state. *)

val paper_decomp : (string * string * float) list
(** The paper's §5.3.2 overheads in ms, as (implementation, name,
    value): ["chorus"] and ["mach"] × ["demand-alloc"] (per page),
    ["protect"] (per page), ["tree-setup"] (per copy) and ["cow"] (per
    page).  The Mach values are recomputed from its Table 6/7 cells by
    the paper's formulas. *)

val of_program : name:string -> frames:int -> pages:int -> Model.prog -> t
(** Lift a {!Model} program into a scenario on a nucleus site with
    [frames] frames and a swap device, one context mapping [pages]
    fresh 8K pages at 0.  One fibre per program row executes its
    operations through {!Core.Pvm.read}/[write] (each operation must
    stay within one page); the observation is
    {!Model.digest_outcome} over the read-back contents and per-fibre
    read results, and the oracle is the program's [Outcomes]. *)

val pressure : t
(** The two-fibre, two-frame memory-pressure Model program (the
    mutation and forensics fixture): each fibre writes page
    (f + r) mod 3 and reads the next, for two rounds, so every
    operation contends for a frame and schedules branch at allocation,
    eviction and pullIn (§3.3.3).  [contend-model] is the same program
    with three fibres on three frames. *)
