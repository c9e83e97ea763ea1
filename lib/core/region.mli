(** Region operations: the mapped-access half of the GMI (Table 2).

    A region is a contiguous portion of a context's virtual address
    space, mapping a window of one segment through its local cache.  A
    protection applies to the whole region; [split] exists so upper
    layers can protect parts differently while still tracking regions
    exactly ("splitting never occurs spontaneously", §3.3.2). *)

type status = {
  s_addr : int;
  s_size : int;
  s_prot : Hw.Prot.t;
  s_cache : Types.cache;
  s_offset : int;
  s_locked : bool;
}

val create :
  Types.pvm ->
  Types.context ->
  addr:int ->
  size:int ->
  prot:Hw.Prot.t ->
  Types.cache ->
  offset:int ->
  Types.region
(** regionCreate: map a cache window.  Lazy — the cost is independent
    of the region size (the paper's Table 6 left column).
    @raise Invalid_argument on misalignment, empty size or overlap. *)

val split : Types.pvm -> Types.region -> offset:int -> Types.region
(** region.split: cut in two at [offset] bytes from the start,
    returning the right half. *)

val set_protection : Types.pvm -> Types.region -> Hw.Prot.t -> unit
(** region.setProtection: change the hardware protection of the whole
    region, refreshing resident translations. *)

val lock_in_memory : Types.pvm -> Types.region -> unit
(** region.lockInMemory: resolve every fault the region could take and
    pin its pages — accesses then take no faults and MMU maps stay
    fixed, the property real-time kernels need (§3.3.2). *)

val unlock : Types.pvm -> Types.region -> unit

val status : Types.region -> status
(** region.status / getStatus. *)

val destroy : Types.pvm -> Types.region -> unit
(** region.destroy: unmap the window.  Unlike creation, destruction
    invalidates the virtual range, so its cost grows mildly with the
    region size (§5.3.2); its host cost follows the mapped pages
    only. *)
