(** The global map's N-shard hash table (paper §4.1, scaled out).

    The paper's global map is a single hash table keyed by
    [(cache, offset)] and sized by real memory only.  That shape is
    naturally shardable: each key hashes to one of N independent
    shards, each with its own lock, so faults on unrelated fragments
    never contend.  On the sequential engine (and on the parallel
    coordinator) the locks are skipped entirely —
    {!Hw.Engine.in_parallel_slice} is false — so the sharded map is
    observationally identical to the seed's single [Hashtbl]; a qcheck
    suite pins that equivalence at shard counts 1, 2 and 8.

    Per-shard [Atomic] counters (probes, lock waits) feed the
    [gmap.*] metrics surfaced by [chorus stats]. *)

type key = int * int
(** [(cache id, offset)] — or [(cache id, offset lsr 12)] for the
    stub-source table; the map does not interpret the pair beyond
    hashing it. *)

type 'v t

val create : ?name:string -> ?shards:int -> unit -> 'v t
(** [shards] defaults to 8 and must be at least 1.  [name] (default
    ["gmap"]) labels the per-shard lock statistics
    [name/shard0], [name/shard1], ... *)

val shard_count : 'v t -> int

val shard_of : 'v t -> key -> int
(** The shard index a key hashes to — exposed for the occupancy
    metrics and the equivalence tests. *)

val find_opt : 'v t -> key -> 'v option
val mem : 'v t -> key -> bool
val replace : 'v t -> key -> 'v -> unit
val remove : 'v t -> key -> unit

val add_if_absent : 'v t -> key -> 'v -> bool
(** Atomically install a binding if the key is unbound; returns
    whether the binding was installed.  The probe and the insert
    happen under one shard lock — this is the primitive that closes
    the probe-then-insert race on the parallel fresh-fault path. *)

val length : 'v t -> int

val iter : (key -> 'v -> unit) -> 'v t -> unit
(** Iterate every binding, shard by shard in index order.  Each
    shard's lock is held only for that shard's portion; bindings added
    or removed concurrently in other shards may or may not be seen. *)

val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

val occupancy : 'v t -> int array
(** Bindings per shard, by shard index. *)

val probes : 'v t -> int
(** Total point operations (find/mem/replace/remove/add) served, over
    all shards. *)

val lock_waits : 'v t -> int
(** How many point operations found their shard lock held and had to
    block — the contention signal behind [gmap.lock_waits]. *)

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
