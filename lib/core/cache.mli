(** Local-cache operations: the segment-access half of the GMI
    (Table 1: cacheCreate / copy / move) and the cache-management half
    (Table 4: fillUp / copyBack / moveBack / flush / sync / invalidate
    / setProtection / destroy).

    A local cache manages the real memory currently in use for one
    segment on this site (paper §3.2).  Explicit transfer and mapped
    access share it — the unified interface that dissolves the
    dual-caching problem. *)

val create : Types.pvm -> ?backing:Gmi.backing -> unit -> Types.cache
(** cacheCreate: bind a segment (via its upcall record) to a fresh
    empty cache; without a backing the cache is anonymous
    (zero-fill, swap on demand through the segmentCreate hook). *)

val create_anonymous : Types.pvm -> Types.cache

val copy :
  Types.pvm ->
  ?strategy:Gmi.copy_strategy ->
  ?policy:Gmi.copy_policy ->
  src:Types.cache ->
  src_off:int ->
  dst:Types.cache ->
  dst_off:int ->
  size:int ->
  unit ->
  unit
(** cache.copy (Table 1).  [`Auto] follows the paper: per-virtual-page
    stubs up to the 64 KB IPC size, history objects above, eager when
    alignment forbids page tricks.  A copy onto one of the source's
    own ancestors silently degrades to eager (DESIGN.md).
    @raise Invalid_argument on overlapping same-cache ranges or on a
    deferred strategy with unaligned offsets. *)

val move :
  Types.pvm ->
  src:Types.cache ->
  src_off:int ->
  dst:Types.cache ->
  dst_off:int ->
  size:int ->
  unit ->
  unit
(** cache.move (Table 1): like copy, but the source contents become
    undefined, letting resident pages move by frame reassignment and
    still-deferred stubs move by re-targeting. *)

val fill_up : Types.pvm -> Types.cache -> offset:int -> Bytes.t -> unit
(** fillUp (Table 4): provide data to the cache.  Segment-backed
    caches receive it as clean authoritative data; anonymous caches
    mark it modified (it exists nowhere else). *)

val copy_back : Types.pvm -> Types.cache -> offset:int -> size:int -> Bytes.t
(** copyBack (Table 4): the cache's current logical contents
    (byte-granular, walking the copy tree and pulling as needed). *)

val move_back : Types.pvm -> Types.cache -> offset:int -> size:int -> Bytes.t
(** moveBack (Table 4): copyBack, then drop the cache's own
    non-depended-upon pages in the range. *)

val write_through : Types.pvm -> Types.cache -> offset:int -> Bytes.t -> unit
(** Explicit write access through the cache (the read/write half of
    the unified segment interface, §3.2): byte-granular, resolving
    deferred state exactly like a mapped store would. *)

val sync : Types.pvm -> Types.cache -> offset:int -> size:int -> unit
(** Save modified data to the segment, keeping it cached (Table 4). *)

val sync_all : Types.pvm -> Types.cache -> unit

val flush : Types.pvm -> Types.cache -> offset:int -> size:int -> unit
(** Save modified data and release the real memory (Table 4). *)

val invalidate : Types.pvm -> Types.cache -> offset:int -> size:int -> unit
(** Discard cached data without saving; the segment is authoritative
    (coherence protocols).  Stubs reading through the discarded pages
    are materialised first. *)

val set_protection :
  Types.pvm -> Types.cache -> offset:int -> size:int -> Hw.Prot.t -> unit
(** Cap the access mode of the cached pages (Table 4); a later write
    re-requests access through getWriteAccess. *)

val destroy : Types.pvm -> Types.cache -> unit
(** cacheDestroy.  If descendants still read through this cache it
    lingers as a hidden history node, collected when the last reader
    detaches; garbage cycles of hidden nodes are swept (§4.2.5).
    @raise Invalid_argument while regions still map the cache. *)

val mapping_count : Types.cache -> int
val is_alive : Types.cache -> bool
val stats_of : Types.pvm -> Types.stats

val install_reaper : Types.pvm -> Types.pvm
(** Wire the zombie reaper into a fresh PVM (done by [Pvm.create]). *)

(**/**)

(* Internal surface shared with tests. *)
val sweep_zombies : Types.pvm -> unit
val purge_range : Types.pvm -> Types.cache -> off:int -> size:int -> unit
val has_stub_readers : Types.cache -> bool
val collectable : Types.pvm -> Types.cache -> bool
