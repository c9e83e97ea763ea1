(** Page and cache installation / removal primitives.

    Everything that creates a cache descriptor, or puts a real page
    descriptor into (or takes it out of) a cache, goes through here,
    keeping the page list, the global map, the frame registry, the
    reclaim queue and pending per-virtual-page stubs consistent. *)

(** Test-only fault injection for the schedule explorer's mutation
    suite ({!Check.Explore}): setting [skip_insert_probe] makes
    {!try_insert_fresh} skip its destination re-probe, reintroducing
    the lost-insert race.  Never set outside tests. *)
module For_testing : sig
  val skip_insert_probe : bool ref
end

val new_cache :
  Types.pvm ->
  ?backing:Gmi.backing ->
  anonymous:bool ->
  is_history:bool ->
  unit ->
  Types.cache

(** {2 Per-cache stub indexes}

    [c_dest_stubs] mirrors the per-page stub rows of the global map
    under a cache's id, [c_pending_offs] the pending-stub rows keyed on
    it.  Every site that creates, retargets or drops such a row updates
    the index next to it (never [Global_map.set]/[remove]). *)

val index_dest_stub : Types.pvm -> Types.cow_stub -> unit
(** Record the stub under its destination (cache, offset). *)

val unindex_dest_stub : Types.pvm -> Types.cache -> off:int -> unit
val index_pending : Types.pvm -> Types.cache -> off:int -> unit
val unindex_pending : Types.pvm -> Types.cache -> off:int -> unit

val dest_stubs : Types.cache -> Types.cow_stub list
(** The stubs destined to the cache, by ascending offset. *)

val pending_offsets : Types.cache -> int list
(** The offsets of the pending-stub rows keyed on the cache,
    ascending. *)

val rethread_pending_stubs : Types.pvm -> Types.page -> unit
(** Thread onto a freshly resident page the stubs that were waiting
    for its (cache, offset). *)

val add_pending_stub :
  Types.pvm -> src_cache:Types.cache -> src_off:int -> Types.cow_stub -> unit

val insert_page :
  Types.pvm ->
  Types.cache ->
  off:int ->
  Hw.Phys_mem.frame ->
  pulled_prot:Hw.Prot.t ->
  cow_protected:bool ->
  Types.page
(** Make [frame] the resident entry for (cache, off); the slot must be
    free or hold the caller's synchronization stub. *)

val try_insert_fresh :
  Types.pvm ->
  Types.cache ->
  off:int ->
  Hw.Phys_mem.frame ->
  pulled_prot:Hw.Prot.t ->
  cow_protected:bool ->
  Types.page option
(** Like {!insert_page}, but for creation paths that reach their
    insert through scheduling points (frame allocation, copy/zero
    charges): re-probes the destination and, when a concurrent
    operation filled the slot first, frees [frame] and returns [None]
    so the caller settles on the winning value (§3.3.3). *)

val remove_page : Types.pvm -> Types.page -> free_frame:bool -> unit
(** Detach a page from every structure.  Its threaded stubs must have
    been materialised or retargeted first. *)

val reassign_page :
  Types.pvm ->
  ?preserve:bool ->
  Types.page ->
  Types.cache ->
  dst_off:int ->
  unit
(** Move a page descriptor to another (cache, offset) without touching
    the frame — the move-semantics fast path of Table 1.  [preserve]
    keeps copy-protection state and threaded stubs (zombie-split
    migration). *)
