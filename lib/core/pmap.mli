(** Physical-map bookkeeping (the pmap of real kernels).

    Records which MMU translations currently point at each page's
    frame, so read-protecting a copied page, stealing a frame, or
    letting a diverged source go writable again can reach every
    context that mapped it.  Also the frame → page registry.

    The only writer of MMU translations and pmap records.  Each edit
    reads its target after its last charge (a scheduling point), so a
    translation and its record change together in one slice. *)

val register_page : Types.pvm -> Types.page -> unit
val unregister_page : Types.pvm -> Types.page -> unit

val mapped_page : Types.pvm -> Types.region -> vpn:int -> Types.page option
(** The page whose frame the region's context maps at [vpn]. *)

val effective_prot : Types.page -> Types.region -> Hw.Prot.t
(** The hardware protection for the page through the region: region
    protection ∩ pullIn access mode, write-stripped while the page is
    read-protected for a deferred copy, has threaded stubs, is
    borrowed, or is clean (software dirty-bit emulation). *)

exception Page_died

val enter : Types.pvm -> Types.page -> Types.region -> vpn:int -> unit
(** Install (or replace) the translation, retiring the replaced page's
    record so its later teardown cannot unmap us.
    @raise Page_died if the page or the region died during the
    charge. *)

val refresh_prot : Types.pvm -> Types.page -> unit
(** Recompute the protection of every mapping of the page. *)

val cow_protect : Types.pvm -> Types.page -> unit
(** Read-protect everywhere and mark copied — the per-page cost of
    initiating a deferred copy (§5.3.2). *)

val cow_release : Types.pvm -> Types.page -> unit
(** Let a source page go writable once its original is saved; borrowed
    read mappings are invalidated so descendants re-fault onto the
    saved copy. *)

val unmap_all : Types.pvm -> Types.page -> unit

type window_edit = Invalidate | Reprotect

val edit_window :
  Types.pvm -> Types.region -> window_edit -> vpn:int -> count:int -> unit
(** Unmap ([Invalidate_page] each) or re-protect ([Mmu_protect] each)
    every mapped entry of the region in [vpn, vpn+count). *)

val unmap_region : Types.pvm -> Types.region -> unit
(** Region destruction, charged by the caller. *)

val iter_mapped :
  Types.pvm -> Types.region -> (Types.page -> vpn:int -> unit) -> unit
(** The function must not edit the context's MMU. *)

val relabel : Types.pvm -> left:Types.region -> right:Types.region -> unit
(** Hand [left]'s records of the entries [right] now covers to [right]
    (region split). *)
