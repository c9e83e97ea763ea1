(** Page and cache installation / removal primitives, and the one
    writer of per-page stub rows.

    Everything that creates a cache descriptor, puts a real page
    descriptor into (or takes it out of) a cache, or edits a stub row
    of the global map or of the pending-source table goes through here,
    each row together with its per-cache mirror.  An insert reads its
    destination after its last charge: the page maker
    ([Pager.make_page]) re-reads it, then calls {!insert_page}. *)

(** Test-only fault injection for the schedule explorer's mutation
    suite ({!Check.Explore}): setting [skip_insert_probe] makes a fresh
    {!insert_page} overwrite its destination without probing it,
    reintroducing the lost-insert race.  Never set outside tests. *)
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
(** A history cache ([~is_history:true], made by the MM) is born
    hidden: no user holds it, so it lives only while a visible cache
    reads it. *)

(** {2 Stub rows and their mirrors}

    [c_dest_stubs] mirrors the per-page stub rows of the global map
    under a cache's id, [c_pending_offs] the pending-stub rows keyed on
    it.  Only the writers below change a row, each with its mirror. *)

val index_backed : Types.cache -> off:int -> unit
(** Record that an anonymous cache's page at [off] has a swap copy. *)

val has_swapped : Types.cache -> off:int -> bool
(** Does an anonymous cache hold this offset in its swap backing? *)

val has_pending : Types.cache -> off:int -> bool
(** Is a pending-stub row keyed on (cache, off)?  Read from the
    cache's mirror, with no probe of the pending-source table. *)

val dest_stubs : Types.cache -> Types.cow_stub list
(** The stubs destined to the cache, by ascending offset. *)

val pending_offsets : Types.cache -> int list
(** The offsets of the pending-stub rows keyed on the cache,
    ascending. *)

val put_stub : Types.pvm -> Types.entry -> unit
(** Make a [Cow_stub] entry its stub's row at (cs_cache, cs_offset). *)

val remove_stub : Types.pvm -> Types.cow_stub -> unit
(** Drop the stub's row at (cs_cache, cs_offset). *)

val add_pending_stub :
  Types.pvm -> src_cache:Types.cache -> src_off:int -> Types.cow_stub -> unit
(** Thread the stub on the pending row of its non-resident source. *)

val unthread : Types.pvm -> Types.cow_stub -> unit
(** Remove a stub from its source's threading (page list or pending
    row) and mark it dead. *)

val retarget_stubs : Types.pvm -> Types.page -> unit
(** Convert the live stubs threaded on a disappearing page to the
    (cache, offset) form (§4.3): the data stays reachable through the
    segment. *)

val rekey_pending :
  Types.pvm -> Types.cache -> Types.cache -> off:int -> unit
(** [rekey_pending pvm cache z ~off] hands the pending row keyed on
    ([cache], [off]) to [z], which takes over the old contents there. *)

val rehome_stub : Types.pvm -> Types.cow_stub -> Types.cache -> unit
(** Give the cache the stub's destination slot: a copy of the stub
    takes its row and its place in its source's threading, and the
    stub dies. *)

(** {2 Pages} *)

val insert_page :
  Types.pvm ->
  Types.cache ->
  off:int ->
  Hw.Phys_mem.frame ->
  pulled_prot:Hw.Prot.t ->
  cow_protected:bool ->
  fresh:bool ->
  Types.page option
(** Make [frame] the resident entry for (cache, off).  [~fresh:true]:
    only into an empty slot, checked by the probe that installs it;
    [None] on a lost race, with nothing changed.  [~fresh:false]:
    overwrite the slot, which the caller has read after its last
    charge.  The page maker's step; no other caller. *)

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
