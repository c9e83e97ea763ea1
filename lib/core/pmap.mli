(** Physical-map bookkeeping (the pmap of real kernels).

    Records which MMU translations currently point at each page's
    frame, so read-protecting a copied page, stealing a frame, or
    letting a diverged source go writable again can reach every
    context that mapped it.  Also the frame → page registry. *)

val register_page : Types.pvm -> Types.page -> unit
val unregister_page : Types.pvm -> Types.page -> unit
val page_at_index : Types.pvm -> int -> Types.page option
(** The page registered on the frame of this index. *)

val mapped_page : Types.pvm -> Types.region -> vpn:int -> Types.page option
(** The page whose frame the region's context maps at [vpn]. *)

val is_borrowed : Types.page -> Types.region -> bool
(** A mapping of a page into a region of a different cache (a child
    context reading an ancestor's page): always read-only. *)

val effective_prot : Types.page -> Types.region -> Hw.Prot.t
(** The hardware protection for the page through the region: region
    protection ∩ pullIn access mode, write-stripped while the page is
    read-protected for a deferred copy, has threaded stubs, is
    borrowed, or is clean (software dirty-bit emulation). *)

val enter : Types.pvm -> Types.page -> Types.region -> vpn:int -> unit
(** Install (or replace) the translation, retiring the replaced page's
    record so its later teardown cannot unmap us. *)

val drop_mapping : Types.page -> Types.region -> vpn:int -> unit

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
