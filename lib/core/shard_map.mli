(** The global map's N-shard hash table (paper §4.1, scaled out).

    The paper's global map is a single hash table keyed by
    [(cache, offset)] and sized by real memory only.  That shape is
    naturally shardable: each key hashes to one of N independent
    shards, so writes to unrelated fragments never contend.  A key is
    two ints, the cache id and an offset, passed and stored unboxed;
    the map does not interpret them beyond hashing and comparing them
    (the global map passes page offsets, the stub-source table the
    offsets of source pages).

    Readers ({!find_opt}, {!mem}) take no lock and allocate nothing:
    they load one bucket's chain, which writers never mutate but
    replace whole, publishing it with [Atomic.set].  Writers
    ({!replace}, {!remove}, {!add_if_absent}) serialise on their
    shard's lock, taken only inside parallel engine slices
    ({!Hw.Engine.in_parallel_slice}); on the zero-worker engine and on
    the coordinator no lock is touched.  Point results equal a single
    [Hashtbl] holding at most one binding per key; a qcheck suite pins
    that equivalence at shard counts 1, 2 and 8, and a multi-domain
    hammer pins the lock-free reads.

    Per-shard probe counts and lock waits feed the [gmap.*] metrics
    surfaced by [chorus stats].  Probes are counted in per-domain
    {!Obs.Cells} rows, lock waits by each shard's {!Obs.Lockstat};
    both are exact when read at quiescence. *)

type 'v t

val create : ?name:string -> ?shards:int -> ?capacity:int -> unit -> 'v t
(** [shards] defaults to 8 and must be at least 1.  [name] (default
    ["gmap"]) labels the per-shard lock statistics
    [name/shard0], [name/shard1], ...  [capacity] (default 0) is the
    number of bindings the map is expected to hold: each shard starts
    with a bucket per binding of its share (16 at least), half the load
    that doubles a shard, so filling the map to [capacity] does not
    rehash.  It is a size hint only: the map still grows past it. *)

val shard_count : 'v t -> int

val shard_of : 'v t -> int -> int -> int
(** [shard_of t cid off]: the shard index the key hashes to — exposed
    for the occupancy metrics and the equivalence tests. *)

val find_opt : 'v t -> int -> int -> 'v option
(** [find_opt t cid off].  Lock-free and allocation-free; returns the
    binding current at some instant during the call. *)

val mem : 'v t -> int -> int -> bool
val replace : 'v t -> int -> int -> 'v -> unit
val remove : 'v t -> int -> int -> unit

val add_if_absent : 'v t -> int -> int -> 'v -> bool
(** Atomically install a binding if the key is unbound; returns
    whether the binding was installed.  The probe and the insert
    happen under one shard lock — this is the primitive that closes
    the probe-then-insert race on the parallel fresh-fault path, and
    the linearisation point when two installs race. *)

val length : 'v t -> int

val iter : (int -> int -> 'v -> unit) -> 'v t -> unit
(** Visit every binding as [f cid off v].  The order is unspecified:
    callers that need one sort what they collect.  Takes no lock;
    bindings changed concurrently may or may not be seen, so callers
    run at quiescence (between slices). *)

val fold : (int -> int -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc
(** As {!iter}, folding; same unspecified order. *)

val occupancy : 'v t -> int array
(** Bindings per shard, by shard index. *)

val probes : 'v t -> int
(** Total point operations (find/mem/replace/remove/add) served, over
    all shards. *)

val lock_waits : 'v t -> int
(** How many writes found their shard lock held and had to wait for
    it — the contention signal behind [gmap.lock_waits].  Readers
    never wait. *)

val probes_per_shard : 'v t -> int array
(** Point operations served per shard, by shard index — the per-shard
    attribution behind the [gmap.shardN.probes] counters (hot-shard
    skew is invisible in the summed {!probes}). *)

val lock_waits_per_shard : 'v t -> int array
(** Blocked acquisitions per shard, by shard index. *)

val lock_stats : 'v t -> Obs.Lockstat.snapshot list
(** Per-shard lock statistics in shard index order: acquires and
    contended acquires always; wait/hold wall-clock timing when
    {!Obs.Lockstat.enable_timing} is active. *)
