(** Public vocabulary of the Generic Memory management Interface.

    The GMI (paper §3) separates the memory manager proper — which
    lives {e below} the interface (contexts, regions, local caches) —
    from segments, which are implemented {e above} it by external
    segment managers.  This module defines the upcall interface the
    memory manager uses to reach a segment (paper Table 3) and the
    shared exception vocabulary.

    The demand-paged implementation of the GMI is {!Pvm}; a Mach-style
    shadow-object implementation lives in the [shadow] library for the
    paper's comparison benchmarks. *)

type fill_up = offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
(** Downcall handed to a segment during [pullIn]: provides the
    requested data to the cache (paper Table 4, [fillUp]). The offset
    is a byte offset within the segment.  The data is the slice of
    [len] bytes at [pos] in the buffer (default: the whole buffer), so
    a segment can hand over a range of its own store without copying
    it; its length must be a multiple of the page size covering the
    requested range.  The slice is copied into frames before [fill_up]
    returns, and the segment must not write it until then. *)

type copy_back = offset:int -> size:int -> Bytes.t
(** Downcall handed to a segment during [pushOut]: retrieves the data
    to be saved (paper Table 4, [copyBack]). *)

type backing = {
  b_name : string;
  b_pull_in : offset:int -> size:int -> prot:Hw.Prot.t -> fill_up:fill_up -> unit;
      (** [pullIn]: read data in from the segment.  Must call
          [fill_up] for the requested range before returning; may
          block (sleep on simulated I/O). *)
  b_get_write_access : offset:int -> size:int -> unit;
      (** [getWriteAccess]: called when a write access hits data that
          was pulled in read-only; returns once write access is
          granted (used by coherence protocols, see the [dsm]
          library). *)
  b_push_out : offset:int -> size:int -> copy_back:copy_back -> unit;
      (** [pushOut]: write data back to the segment at cache
          synchronisation, flush or eviction time. *)
}
(** The segment-manager upcall interface bound to one local cache
    (paper Table 3).  A cache with no backing is {e anonymous}: misses
    are zero-filled and the [segmentCreate] hook (see
    {!Pvm.set_segment_create_hook}) is consulted before its pages can
    be paged out. *)

type copy_strategy =
  [ `Auto  (** history objects for large copies, per-virtual-page
               stubs for small ones, eager for unaligned ones *)
  | `Eager  (** copy through real memory immediately *)
  | `History  (** force deferred copy via history objects (§4.2) *)
  | `Per_page  (** force per-virtual-page stubs (§4.3) *)
  ]

type copy_policy =
  [ `Copy_on_write  (** defer until either side writes *)
  | `Copy_on_reference  (** defer until the destination is touched *)
  ]

exception Segmentation_fault of int
(** Raised on access to an address covered by no region (§4.1.2). *)

exception Protection_fault of int
(** Raised on an access forbidden by the region's protection. *)

exception No_memory
(** Raised when physical memory is exhausted and no page can be
    reclaimed. *)

val fill_up_slice :
  page_size:int -> offset:int -> pos:int -> ?len:int -> Bytes.t -> int
(** The [fillUp] argument check every implementation shares: the slice
    at [pos] ([len] bytes, default the rest of the buffer) lies inside
    the buffer, [offset] is page-aligned and the slice is whole pages.
    Returns [len].
    @raise Invalid_argument otherwise. *)

val pp_strategy : Format.formatter -> copy_strategy -> unit

(** The Generic Memory management Interface as a module signature.

    The paper's point is that the memory manager below this interface
    is a replaceable unit: "the MM implementation is the only
    difference between these Nucleus versions" (§5.2 lists the PVM, a
    minimal implementation for embedded real-time systems, and a
    simulator).  {!Pvm_gmi} packages the PVM behind it; the [minimal]
    library provides the real-time implementation; the conformance
    suite in [test/gmi] runs identical semantics tests over both. *)
module type S = sig
  type t
  type context
  type region
  type cache

  val name : string

  val create :
    ?page_size:int ->
    ?cost:Hw.Cost.profile ->
    frames:int ->
    engine:Hw.Engine.t ->
    unit ->
    t

  val page_size : t -> int

  (* contexts (Table 2) *)
  val context_create : t -> context
  val context_destroy : t -> context -> unit

  (* regions (Table 2) *)
  val region_create :
    t ->
    context ->
    addr:int ->
    size:int ->
    prot:Hw.Prot.t ->
    cache ->
    offset:int ->
    region

  val region_destroy : t -> region -> unit
  val region_set_protection : t -> region -> Hw.Prot.t -> unit

  val region_lock : t -> region -> unit
  (** After this, accesses within the region take no faults. *)

  val region_unlock : t -> region -> unit

  (* caches (Tables 1 and 4) *)
  val cache_create : t -> ?backing:backing -> unit -> cache
  val cache_destroy : t -> cache -> unit

  val copy :
    t ->
    ?strategy:copy_strategy ->
    src:cache ->
    src_off:int ->
    dst:cache ->
    dst_off:int ->
    size:int ->
    unit ->
    unit
  (** Implementations are free to ignore the strategy hint (the
      minimal implementation always copies eagerly); semantics must
      not depend on it. *)

  val fill_up :
    t -> cache -> offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
  val copy_back : t -> cache -> offset:int -> size:int -> Bytes.t
  val sync : t -> cache -> offset:int -> size:int -> unit

  (* simulated program access *)
  val touch : t -> context -> addr:int -> access:Hw.Mmu.access -> unit
  val read : t -> context -> addr:int -> len:int -> Bytes.t
  val write : t -> context -> addr:int -> Bytes.t -> unit
end
