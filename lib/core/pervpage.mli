(** Per-virtual-page deferred copy (paper §4.3).

    For small copies (typically IPC messages) the PVM does not build a
    history tree: every destination page gets a copy-on-write page
    stub in the global map.  A stub points at the source page
    descriptor while the source is resident — threaded on that page's
    stub list, so "the source page is accessible, for reads, through
    any cache to which it was copied" — or at the source
    (cache, offset) pair when it is not. *)

val wire : Types.page -> unit
(** Pin the page's frame: a frame allocation cannot steal it until the
    matching {!unwire}.  Callers pair the two around a
    [match ... with exception] so every path drops the pin. *)

val unwire : Types.page -> unit

val setup_copy :
  Types.pvm ->
  src:Types.cache ->
  src_off:int ->
  dst:Types.cache ->
  dst_off:int ->
  size:int ->
  int
(** Install the stubs for a copy; resident source pages are
    read-protected, stub chains from still-deferred sources share the
    original source.  The caller has purged the destination range.
    Each stub's row goes in only on a destination read empty after the
    stub's charge; the result is the number of bytes stubbed before the
    first page a concurrent fault made there meanwhile ([size] when
    none did).  The caller purges the rest of the range again and
    copies it. *)

val source_cache_of : Types.cow_stub -> Types.cache

val reap_source : Types.pvm -> Types.cache -> unit
(** Run the liveness rule ([Cache.install_reaper]) on a cache that
    lost a stub reader: a no-op unless it is hidden and no visible
    cache reads it any more. *)

val kill : Types.pvm -> Types.cow_stub -> unit
(** Discard a stub without materialising (its destination range is
    being overwritten or destroyed), then run the liveness rule on its
    source. *)

val drop : Types.pvm -> Types.cow_stub -> unit
(** [kill] without the liveness rule: for a caller that runs it on the
    source itself, once its own surgery is done. *)

val flush_stubs : Types.pvm -> Types.page -> unit
(** A write is about to hit a page some stubs still read through: give
    every such destination its own copy of the original first. *)

val resolve_read :
  Types.pvm -> Types.cow_stub -> [ `Borrow of Types.page | `Zero ]
(** Resolve a read fault on a stub: the source page (pulled in if
    needed) to map read-only into the faulting context, or [`Zero]
    when the deferred value is zero (the caller materialises with
    {!resolve_write}). *)

val resolve_write : Types.pvm -> Types.cow_stub -> Types.page option
(** The §4.3 write violation: a new page frame with a copy of the
    source value replaces the stub, and hidden caches the stub was the
    last reader of are reaped.  [None] when the stub died, moved or
    lost its cache while the page was made: nothing is kept. *)

val materialize_pending : Types.pvm -> Types.cache -> off:int -> unit
(** Materialise every pending stub whose deferred value lives at
    (cache, off): called before that value is overwritten. *)
