(** Contention accounting for the real mutexes behind the parallel
    engine (pool lock, per-PVM mm-lock, global-map shard locks).

    Blocked time on an OS mutex never advances the simulated clock, so
    it is invisible to the cost model; a [Lockstat.t] wraps a mutex's
    lock/unlock pair and counts acquisitions and contended
    acquisitions (always on), plus wall-clock wait/hold times when
    timing has been switched on with {!enable_timing}.  The counts
    are plain ints updated only while the instrumented mutex is held,
    so the lock guards its own accounting: they are exact at
    quiescence, and reports read them only then, via {!snapshot}; the
    traced [perfbench] run turns them into its per-operation [mm.*]
    and [engine.pool.*] metrics.

    A third, normally-off tier records {e order witnesses}: with
    {!enable_witnessing} on, every acquisition records the lock
    classes the acquiring domain already holds.  [chorus crossval]
    asserts the observed may-hold-while-acquiring pairs are a subset of the static hierarchy in [Lint.Lock_order], so the
    lint's declared order can never silently drift from runtime
    reality. *)

type t

val create : ?cls:string -> string -> t
(** [create ?cls name] — name the lock with ['/'] separators, e.g.
    ["gmap/shard3"].  [cls] tags
    the lock with its class in the [Lint.Lock_order] hierarchy
    (["pool"], ["mm"], ["shard"], ["cond"]) for order witnessing;
    anything else, and the default, buckets as ["other"]. *)

val enable_timing : clock:(unit -> int) -> unit
(** Switch on wall-clock wait/hold measurement for {e all} lockstats.
    [clock] returns nanoseconds (monotonicity is the caller's
    business; [Obs] deliberately has no clock dependency of its own).
    Off by default: without it, instrumentation never makes a
    syscall. *)

val disable_timing : unit -> unit

val lock : t -> Mutex.t -> unit
(** [lock st m] acquires [m], counting the acquisition and — when it
    found [m] held — the contended wait (timed when enabled).  A
    contended acquirer retries [try_lock] for a fixed, short spin
    before it blocks in [Mutex.lock]; it counts as one wait either
    way. *)

val unlock : t -> Mutex.t -> unit
(** Release [m], accumulating the critical section's hold time when
    timing is enabled. *)

val wait : t -> Condition.t -> Mutex.t -> unit
(** [Condition.wait] through the instrumentation: the hold time is
    split around the wait rather than counting the sleep as lock hold
    time. *)

type snapshot = {
  name : string;
  acquires : int;
  waits : int; (* acquisitions that found the lock held (spun or blocked) *)
  wait_ns : int; (* wall-clock; 0 unless timing was enabled *)
  hold_ns : int;
  max_wait_ns : int;
  max_hold_ns : int;
}

val snapshot : t -> snapshot
val name : t -> string
val acquires : t -> int
val waits : t -> int
val reset : t -> unit

val enable_witnessing : unit -> unit
(** Switch on order-witness recording for {e all} lockstats: each
    acquisition records, per already-held lock class, one
    may-hold-while-acquiring pair.  Costs a DLS probe and a few array
    ops per acquisition; off by default. *)

val disable_witnessing : unit -> unit

val reset_witnesses : unit -> unit
(** Zero the global witness matrix (e.g. between benchmark phases). *)

val witness_pairs : unit -> (string * string * int) list
(** Observed [(held_class, acquired_class, count)] triples with
    [count > 0], i.e. the runtime may-hold-while-acquiring relation by
    class name.  Read at quiescence. *)
