(** Locating the logical value of a (cache, offset) pair.

    A cache miss is resolved by looking upwards in the copy tree
    (paper §4.2.1); if the walk ends at a cache bound to a segment,
    the data is pulled in with the §4.1.2 protocol (synchronization
    page stub, [pullIn] upcall, [fillUp] delivery); otherwise the
    value is zero (anonymous memory).  Anonymous caches recover pages
    they pushed to a swap backing here as well.

    The decision on an empty row ({!miss}) and the rights a pull asks
    for ({!pull_own}) are made in this module and nowhere else; the
    fault handler and the explicit copies dispatch on their answers. *)

val deliver :
  Types.pvm -> Types.cache -> offset:int -> ?pos:int -> ?len:int ->
  Bytes.t -> prot:Hw.Prot.t -> dirty:bool -> unit
(** Install segment-provided data (the [fillUp] downcall, Table 4):
    the [len] bytes at [pos] in the buffer (default: all of it),
    copied straight into frames; page-aligned, whole pages, checked
    by {!Gmi.fill_up_slice} before any frame is allocated.  Resolves
    synchronization stubs and wakes their sleepers; refreshes
    already-resident pages.  [dirty] distinguishes authoritative
    segment data (clean) from data that exists nowhere else. *)

type miss = Own | Inherited | Fresh

val miss : Types.cache -> off:int -> miss
(** The §4.1.2 decision on a global-map row read empty: the cache's
    own data to pull (pages it pushed to swap, or its segment's), the
    value of the parent fragment covering [off] (read with
    {!Parents.covering}), or zero.  Charges and allocates nothing; the
    copy-tree walk takes it at every level. *)

val pull_own : Types.pvm -> Types.cache -> off:int -> write:bool -> Types.page
(** The §4.1.2 pull of (cache, off)'s own data: place a
    synchronization stub so concurrent access sleeps, upcall the
    segment's [pullIn] with every right for anonymous data, otherwise
    read-write for a [write] and read-only for a read, and expect the
    page filled up on return.  A failing or lying segment never leaves
    the stub behind.
    @raise Failure if the segment violates the fillUp contract. *)

val inherited_value :
  Types.pvm -> off:int -> Types.frag -> [ `Page of Types.page | `Zero ]
(** The value a miss at [off] inherits through the fragment covering
    it, walking on from it with no second read of the row. *)

val source_value : Types.pvm -> Types.cache -> off:int -> [ `Page of Types.page | `Zero ]
(** Walk the copy tree (through resident pages, deferred-copy stubs
    and parent fragments), performing any needed pull: the resident page
    holding the value, or [`Zero]. *)

val source_value_at :
  Types.pvm -> Types.cache -> off:int -> Types.entry option ->
  [ `Page of Types.page | `Zero ]
(** [source_value], walking on from the entry of (cache, off) its
    caller already read (with {!Global_map.wait_not_in_transit}, and
    no scheduling point since): the row is not probed again.  Every
    hop up the tree charges and counts its lookup as
    [source_value]'s do. *)
