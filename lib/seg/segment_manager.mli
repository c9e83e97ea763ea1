(** The segment manager (paper §5.1.2, §5.1.3): the bridge between
    segment capabilities and GMI local caches.

    Given a segment capability, the segment manager finds the
    corresponding local cache or assigns one, translating GMI upcalls
    ([pullIn]/[pushOut]) into read/write requests on the segment's
    mapper.  Unreferenced caches are {e retained} as long as
    configured capacity allows (the "segment caching" strategy whose
    effect on repeated [exec] the paper highlights), and it services
    the [segmentCreate] upcall by allocating temporary swap segments
    with the default mapper. *)

type t

val create :
  ?retention_capacity:int ->
  pvm:Core.Pvm.t ->
  default_mapper_port:int ->
  unit ->
  t
(** [retention_capacity] bounds how many unreferenced local caches are
    kept for reuse (default 64; 0 disables segment caching).  Creating
    the manager installs the PVM's segmentCreate hook. *)

val register_mapper : t -> Mapper.t -> int
(** Make a mapper reachable; returns its port name.  The mapper
    registered as [default_mapper_port] must support temporary
    segments. *)

val mapper_of_port : t -> int -> Mapper.t

val bind : t -> Capability.t -> Core.Pvm.cache
(** Find or create the local cache for a segment.  Reference-counted:
    callers must [unbind] when done.
    @raise Mapper.Bad_capability if the port or key is unknown. *)

val unbind : t -> Capability.t -> unit
(** Drop one reference.  An unreferenced cache is retained for reuse
    (up to the retention capacity, evicting the least recently used
    retained cache, whose dirty pages are flushed to the segment). *)

val create_temporary : t -> Core.Pvm.cache
(** A fresh anonymous local cache ([rgnAllocate] backing store).  Swap
    is allocated from the default mapper on its first pushOut. *)

val destroy_temporary : t -> Core.Pvm.cache -> unit

val retained_count : t -> int

type stats = {
  mutable binds : int;
  mutable bind_hits : int; (* live cache reused *)
  mutable retention_hits : int; (* retained (unreferenced) cache revived *)
  mutable retention_evictions : int;
  mutable swap_segments : int;
}

val stats : t -> stats
