(* Physical-map bookkeeping: which MMU entries currently point at a
   page's frame.  Real kernels keep this reverse map (the pmap) so
   that read-protecting a copied page, stealing a frame, or letting a
   diverging source page go writable again can reach every context
   that mapped it.  We record mappings on the page descriptor and keep
   a frame -> page registry on the PVM. *)

open Types

let register_page pvm (page : page) =
  note_frames pvm;
  pvm.page_of_frame.(page.p_frame.Hw.Phys_mem.index) <- Some page

let unregister_page pvm (page : page) =
  note_frames pvm;
  pvm.page_of_frame.(page.p_frame.Hw.Phys_mem.index) <- None

let page_at_index pvm i =
  note_frames ~write:false pvm;
  pvm.page_of_frame.(i)

let mapped_page pvm (region : region) ~vpn =
  let i = Hw.Mmu.mapped_frame_index region.r_context.ctx_space ~vpn in
  if i < 0 then None else page_at_index pvm i

let is_borrowed (page : page) (region : region) =
  not (region.r_cache == page.p_cache)

(* The hardware protection for [page] seen through [region]: the
   region's protection, capped by the access mode the segment granted
   at pullIn time, write-stripped while the page is read-protected for
   a pending deferred copy (history coverage or threaded per-page
   stubs), and always read-only for borrowed mappings (a child context
   reading an ancestor's page). *)
let effective_prot (page : page) (region : region) =
  let p = Hw.Prot.intersect region.r_prot page.p_pulled_prot in
  if
    page.p_cow_protected || page.p_cow_stubs <> []
    || is_borrowed page region
    (* software dirty-bit emulation: clean pages are mapped read-only
       so the first store faults and marks them dirty *)
    || not page.p_dirty
  then Hw.Prot.remove_write p
  else p

let[@chorus.hot] [@chorus.alloc_ok
     "the mapping record (region, vpn) and its list cell are the pmap \
      bookkeeping a real kernel allocates per MMU entry; the filter \
      closures run only on the rare replacement path"] [@chorus.spanned
     "runs under the fault span opened by Fault.handle"] enter
    pvm (page : page) (region : region) ~vpn =
  (* Shared pages collect mappings from many contexts, so on the
     parallel engine the reverse-map manipulation runs under the mm
     lock (transparent on the oracle path, like every with_mm). *)
  with_mm pvm @@ fun () ->
  (* Replacing another page's entry: retire its pmap record so a later
     teardown of that page does not unmap us. *)
  let old = Hw.Mmu.mapped_frame_index region.r_context.ctx_space ~vpn in
  (if old >= 0 && old <> page.p_frame.Hw.Phys_mem.index then
     match page_at_index pvm old with
     | Some old_page ->
       old_page.p_mappings <-
         List.filter
           (fun ((r : region), v) -> not (r == region && v = vpn))
           old_page.p_mappings
     | None -> ());
  let prot = effective_prot page region in
  charge pvm Hw.Cost.Mmu_map;
  Hw.Mmu.map region.r_context.ctx_space ~vpn page.p_frame prot;
  if
    not
      (List.exists
         (fun (r, v) -> r == region && v = vpn)
         page.p_mappings)
  then page.p_mappings <- (region, vpn) :: page.p_mappings

let drop_mapping (page : page) (region : region) ~vpn =
  page.p_mappings <-
    List.filter
      (fun (r, v) -> not (r == region && v = vpn))
      page.p_mappings

(* Recompute the hardware protection of every mapping of [page];
   charges one protection update per refreshed entry. *)
let[@chorus.spanned
     "leaf helper: callers are the spanned GMI entry points (setProtection, \
      fault resolution)"] refresh_prot pvm (page : page) =
  with_mm pvm @@ fun () ->
  List.iter
    (fun ((region : region), vpn) ->
      charge pvm Hw.Cost.Mmu_protect;
      Hw.Mmu.protect region.r_context.ctx_space ~vpn
        (effective_prot page region))
    page.p_mappings

(* Read-protect [page] everywhere, marking it copied.  This is the
   per-page cost of initiating a deferred copy (paper §5.3.2: ~16us
   per page of the source). *)
let[@chorus.spanned "runs under the copy span (deferred-copy setup)"] cow_protect
    pvm (page : page) =
  if not page.p_cow_protected then begin
    page.p_cow_protected <- true;
    charge pvm Hw.Cost.Mmu_protect;
    List.iter
      (fun ((region : region), vpn) ->
        Hw.Mmu.protect region.r_context.ctx_space ~vpn
          (effective_prot page region))
      page.p_mappings
  end

(* Let a source page go writable again once its original value has
   been saved in the history object.  Borrowed read mappings in
   descendant contexts would otherwise observe the new value, so they
   are invalidated and will re-fault onto the saved copy. *)
let[@chorus.spanned "runs under the fault span (source write resolution)"] cow_release
    pvm (page : page) =
  page.p_cow_protected <- false;
  let borrowed, own = List.partition (fun (r, _) -> is_borrowed page r) page.p_mappings in
  List.iter
    (fun ((region : region), vpn) ->
      charge pvm Hw.Cost.Mmu_protect;
      Hw.Mmu.unmap region.r_context.ctx_space ~vpn)
    borrowed;
  page.p_mappings <- own;
  List.iter
    (fun ((region : region), vpn) ->
      charge pvm Hw.Cost.Mmu_protect;
      Hw.Mmu.protect region.r_context.ctx_space ~vpn
        (effective_prot page region))
    own

(* Remove every MMU entry pointing at [page]'s frame (eviction,
   invalidation, destruction). *)
let[@chorus.spanned
     "leaf helper: callers are the spanned eviction/teardown paths"] unmap_all
    pvm (page : page) =
  List.iter
    (fun ((region : region), vpn) ->
      charge pvm Hw.Cost.Mmu_protect;
      if region.r_alive && region.r_context.ctx_alive then
        Hw.Mmu.unmap region.r_context.ctx_space ~vpn)
    page.p_mappings;
  page.p_mappings <- []
