(** Actors and the Nucleus memory-management operations (paper §5.1.4).

    An actor is a protected address space hosting threads.  Its memory
    is a set of regions mapped to segments; the rgn* operations below
    are the Chorus Nucleus interface, each combining a few GMI
    operations through the segment manager:

    - {!rgn_allocate} — fresh anonymous memory (temporary cache);
    - {!rgn_map} — map an existing segment (by capability);
    - {!rgn_init} — new region initialised as a {e copy} of a segment;
    - {!rgn_map_from_actor} — share a region with another actor (used
      by fork for text);
    - {!rgn_init_from_actor} — copy a region of another actor (used by
      fork for data and stack, deferring via history objects). *)

type t = {
  a_id : int;
  a_site : Site.t;
  a_ctx : Core.Pvm.context;
  mutable a_mappings : mapping list;
  mutable a_alive : bool;
}

and mapping = {
  m_region : Core.Pvm.region;
  m_origin : origin;
}

and origin =
  | Temp of Core.Pvm.cache  (** temporary cache owned by this mapping *)
  | Bound of Seg.Capability.t  (** reference-counted segment binding *)
  | Shared_temp of Core.Pvm.cache
      (** temporary cache shared from another actor *)

val create : Site.t -> t
val destroy : t -> unit

val spawn_thread : t -> ?name:string -> (unit -> unit) -> unit
(** A thread of the actor: a fibre of the site's engine. *)

val rgn_allocate :
  t -> addr:int -> size:int -> prot:Hw.Prot.t -> mapping

val rgn_map :
  t ->
  addr:int ->
  size:int ->
  prot:Hw.Prot.t ->
  Seg.Capability.t ->
  offset:int ->
  mapping

val rgn_init :
  t ->
  addr:int ->
  size:int ->
  prot:Hw.Prot.t ->
  Seg.Capability.t ->
  offset:int ->
  mapping
(** Deferred (copy-on-write) initialisation from an existing segment;
    the copy is recorded in the history tree, no data moves. *)

val rgn_map_from_actor :
  t -> addr:int -> src:t -> src_addr:int -> size:int -> prot:Hw.Prot.t ->
  mapping

val rgn_init_from_actor :
  t -> addr:int -> src:t -> src_addr:int -> size:int -> prot:Hw.Prot.t ->
  mapping

val rgn_free : t -> mapping -> unit

val read : t -> addr:int -> len:int -> Bytes.t
(** Simulated program read by one of the actor's threads. *)

val write : t -> addr:int -> Bytes.t -> unit
val touch : t -> addr:int -> access:Hw.Mmu.access -> unit
