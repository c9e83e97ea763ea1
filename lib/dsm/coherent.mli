(** Distributed shared virtual memory over the GMI.

    The paper points out (§3.3.3, §5.1.2) that the cache-control
    operations — [flush], [invalidate], [setProtection], plus the
    [accessMode] argument of [pullIn] and the [getWriteAccess] upcall
    — are exactly what a segment mapper needs to implement Li & Hudak
    style coherent distributed virtual memory above different sites'
    local caches.  This module is that mapper: a single-writer /
    multiple-reader invalidation protocol at page granularity.

    Each participating site (its own PVM on the shared discrete-event
    engine) {!attach}es and receives a local cache bound to the shared
    segment.  Reads fault and pull pages with read access; the first
    write triggers the [getWriteAccess] upcall, which invalidates the
    other sites' copies before granting ownership. *)

type t

type site

type mode = Invalid | Reading | Writing

type stats = {
  mutable page_transfers : int; (* pages shipped to a site *)
  mutable invalidations : int; (* remote copies discarded *)
  mutable downgrades : int; (* writers demoted to readers *)
  mutable write_grants : int;
}

val create : ?latency:Hw.Sim_time.span -> size:int -> page_size:int -> unit -> t
(** A coherent segment of [size] bytes.  [latency] is charged per
    protocol message (page transfer, invalidation, grant). *)

val attach : t -> Core.Pvm.t -> site
(** Join a site to the segment; gives it a bound local cache. *)

val cache : site -> Core.Pvm.cache

val mode : site -> page:int -> mode
(** The site's current access mode for a page (for tests). *)

val stats : t -> stats
