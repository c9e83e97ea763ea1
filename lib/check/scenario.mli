(** The scenario registry: every workload the checkers drive.

    One {!t} serves every driver — [chorus inspect/trace/stats/profile/
    check/explore/crossval/replay], the bench harness and the test
    suites — so a workload is written once and each driver reaches it
    by name through {!find}.  Where a driver times part of a workload
    (bench's Table 6/7 loops, ablations and [macro], [test/repro]'s
    cells), the registry exports the steps the entries are built from
    and the driver keeps only its measurement window.  A scenario
    builds its PVMs on the engine
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
    [dsm], [ipc], [contend], [storm], [make], [decomp], [chains],
    [segcache], [pervpage] and [orphans] (observed by {!digest}), then
    the Model
    programs [pressure] and [contend-model] (observed by
    {!Model.digest_outcome}, judged by [Outcomes]). *)

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

val fig3 : ?on_figure:(string -> Core.Types.cache -> unit) -> unit -> t
(** The paper's Figure 3 (§4.2), sub-figures 3.a–3.d: a source with
    three written pages history-copied three times, with writes into
    the source, the first copy and that copy's copy in between.
    [on_figure] (default: nothing) is called in the main fibre with
    each sub-figure's caption and the source cache once the sub-figure
    is complete; bench prints the history trees from it.  The
    registry's [fig3] is [fig3 ()]. *)

(** {2 DSM and IPC}

    The registry's [dsm] is {!dsm_setup} at 4 pages followed by ten
    ping-pong {!dsm_rounds}; its [ipc] is {!ipc_setup} of a 4-page
    message at 0 followed by four {!ipc_round}s.  Bench's ablations D
    and E time the rounds. *)

type dsm_sites = {
  seg : Dsm.Coherent.t;
  sites : (Core.Types.pvm * Core.Types.context) array;
      (** two 32-frame PVMs, each mapping the whole segment at 0 *)
  pages : int;  (** the segment's size *)
}

val dsm_setup :
  ?cost:Hw.Cost.profile ->
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  pages:int ->
  dsm_sites
(** A [pages]-page coherent segment (§3.3.3) over 2 ms links, shared by
    two sites on the [cost] profile (default: the PVM's). *)

val dsm_rounds :
  dsm_sites ->
  pattern:[ `Read_mostly | `Partitioned | `Ping_pong ] ->
  rounds:int ->
  unit
(** The sharing pattern, [rounds] times: [`Read_mostly] writes once
    from site 0, then both sites read page 0 each round;
    [`Partitioned] has site 0 write page 0 and site 1 the segment's
    middle page each round; [`Ping_pong] has the sites write page 0 in
    turn, site 1 first. *)

type ipc_pair = {
  site : Nucleus.Site.t;  (** 256 frames *)
  transit : Nucleus.Transit.t;  (** 4 slots *)
  sender : Nucleus.Actor.t;
  receiver : Nucleus.Actor.t;  (** both with 16 pages allocated at 0 *)
  endpoint : Nucleus.Ipc.endpoint;
  addr : int;
  len : int;
}

val ipc_setup :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  addr:int ->
  len:int ->
  ipc_pair
(** The sender has written a [len]-byte message at [addr]. *)

val ipc_round : ipc_pair -> unit
(** Send the message through the transit segment (§5.1.6) and receive
    it at the same address: a per-page deferred copy and a frame move
    when [addr] is page-aligned, bcopy otherwise. *)

val storm :
  ?workers:int -> ?pages:int -> ?rounds:int -> unit -> t
(** The contended fault workload: [workers] fibres (default 8), each
    in its own context with a private anonymous cache of [pages] pages
    (default 16), all sharing one read-only pre-filled cache.  Each
    worker round (default 4 rounds) zero-fill-faults and rewrites its
    private pages in a worker-skewed order and reads a shared page, so
    the global map, the frame pool and the pmap see concurrent traffic
    from every worker while the final state stays deterministic: pages
    are disjoint per worker and every write is a pure function of
    (worker, page).  Workers get distinct affinities, so on an engine
    with simulated CPUs they run in distinct lanes and overlap in
    simulated time; the frame pool is sized so nothing
    is ever evicted.  The registry's [storm] is [storm ()]. *)

val storm_faults : workers:int -> pages:int -> int
(** Lower bound on the demand-zero faults one [storm] run generates
    (private pages only). *)

(** {2 Chorus/MIX sites: make -j2 and repeated exec}

    The registry's [make] is {!make_setup} at retention 64 followed by
    {!make_jobs}, its [segcache] {!segcache_setup} at retention 64
    followed by three {!exec_loop} execs; the bench harness runs the
    halves itself to time the second alone and to compare retention 64
    with 0. *)

type mix_site = {
  pvm : Core.Types.pvm;
  images : Mix.Image.store;
  procs : Mix.Process.manager;
  init : Mix.Process.t;  (** the init process *)
}

val make_setup :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  retention:int ->
  mix_site
(** A 4096-frame site keeping [retention] unreferenced segment caches
    (§5.1.3), the [make] and [cc] images, and a running make process
    (the init process) that has written its data; [register] is called
    with the site's PVM as soon as it exists.  Runs in the engine's
    main fibre. *)

val make_jobs : mix_site -> unit
(** 12 compiles, two at a time: make forks a child that execs [cc],
    reads its 48-page text, writes data and an 8-page heap, pipes an
    8-page object back and exits; make waits for it, then reads each
    object into its bss. *)

val make : t

val segcache_setup :
  Hw.Engine.t ->
  register:(Core.Types.pvm -> unit) ->
  retention:int ->
  mix_site
(** A 1200-frame site keeping [retention] unreferenced segment caches,
    with a 32-page [cc] image and an init process running it. *)

val exec_loop : mix_site -> execs:int -> unit
(** [execs] times: exec [cc] again in the init process and read its
    whole text. *)

val segcache : t
(** Three {!exec_loop} execs at retention 64 (bench's ablation B runs
    ten, at retention 64 and 0). *)

(** {2 The paper's Table 6/7 steps (§5.3) and the deferred-copy
    ablations}

    Each step runs in the engine's main fibre, for the Chorus PVM or
    the Mach-style shadow baseline.  A Table 6 cell times
    {!zero_fill} plus {!teardown}; a Table 7 cell times {!diverge}
    plus {!teardown} over a source from {!zero_fill}.  [test/repro]
    sweeps the state between the two; {!decomp} and {!decomp_mach}
    run one of each at the 1024 Kb / 128-page cell. *)

val zero_fill :
  Core.Types.pvm ->
  Core.Types.context ->
  size:int ->
  pages:int ->
  Core.Types.cache * Core.Types.region
(** Table 6's populate: map a [size]-byte region of a fresh cache at 0
    and write-touch its first [pages] pages.  With every page touched,
    the source of Table 7 and of the ablations. *)

val diverge :
  ?strategy:Core.Gmi.copy_strategy ->
  ?writer:[ `Source | `Copy ] ->
  Core.Types.pvm ->
  Core.Types.context ->
  src:Core.Types.cache ->
  size:int ->
  pages:int ->
  Core.Types.cache * Core.Types.region
(** Table 7's diverge: copy [size] bytes of [src] into a fresh cache by
    [strategy] (default [`History]), map it at 0x4000_0000, and
    write-touch the first [pages] pages of the [writer] (default
    [`Source], mapped at 0: forcing the real copies; [`Copy] is
    ablation C's copy writing into itself). *)

val teardown : Core.Types.pvm -> Core.Types.cache * Core.Types.region -> unit
(** Destroy the region, then the cache. *)

val mach_zero_fill :
  Shadow.Shadow_vm.t ->
  Shadow.Shadow_vm.space ->
  size:int ->
  pages:int ->
  Shadow.Shadow_vm.entry

val mach_diverge :
  Shadow.Shadow_vm.t ->
  Shadow.Shadow_vm.space ->
  src:Shadow.Shadow_vm.entry ->
  pages:int ->
  Shadow.Shadow_vm.entry
(** {!zero_fill} and {!diverge} on the shadow-object baseline; the
    teardown is [Shadow.Shadow_vm.entry_destroy]. *)

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

(** {2 The fork and copy-technique ablations}

    Bench's ablation A times {!fork_cycle} and {!mach_fork_cycle},
    ablation C [diverge ~strategy ~writer:`Copy]; ablations B, D and E
    time {!exec_loop}, {!ipc_round} and {!dsm_rounds}. *)

val fork_cycle :
  Core.Types.pvm ->
  Core.Types.context ->
  src:Core.Types.cache ->
  size:int ->
  unit
(** The shell's fork (§4.2.5): history-copy [size] bytes of the
    parent's [src] (mapped at 0) into a child cache, write the parent's
    first two pages, destroy the child. *)

val mach_fork_cycle :
  Shadow.Shadow_vm.t ->
  Shadow.Shadow_vm.space ->
  src:Shadow.Shadow_vm.entry ->
  unit
(** The same fork on the shadow-object baseline. *)

val chains : t
(** Four {!fork_cycle}s of a written 16-page parent on a 900-frame PVM
    (bench's ablation A, PVM side). *)

val pervpage : t
(** An 8-page written source on a 900-frame PVM {!diverge}d by each of
    [`History], [`Per_page] and [`Eager] with the copy writing 2 pages,
    each copy torn down (bench's ablation C at one size). *)

val orphan_pair :
  ?on_cycle:(Core.Types.cache -> Core.Types.cache -> unit) ->
  Core.Types.pvm ->
  Core.Types.cache
(** Two hidden caches [a] and [b] that read each other, built with
    [Cache.copy], [move], [write_through] and [destroy] only: [b]
    history-copies [a]'s first two pages and writes 8 ['b'] bytes over
    [a]'s ['a']s, a per-page copy of [b]'s first page moves onto [a] at
    page 4, and a fourth cache history-copies [b].  [on_cycle]
    (default: nothing) is called with [a] and [b] once the cycle is
    closed; then the per-page copy, [a] and [b] are destroyed.  Returns
    the fourth cache, the pair's last visible reader (§4.2.5). *)

val orphans : t
(** Two {!orphan_pair}s on a 64-frame PVM: the first loses its reader
    to [Cache.destroy], the second to a history copy from a fresh cache
    over the reader's range.  Each pair must be collected at once. *)

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
