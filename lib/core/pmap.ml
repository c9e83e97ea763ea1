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

(* Walkers over a page's mapping records: top-level recursions, so a
   probe or a removal allocates no closure. *)
let[@chorus.hot] rec has_mapping (region : region) vpn = function
  | [] -> false
  | ((r : region), v) :: rest ->
    (r == region && v = vpn) || has_mapping region vpn rest

(* [mappings] without the (region, vpn) records, sharing the suffix
   after the last one removed: a list holding none comes back as is,
   so a removal allocates only the cells in front of what it drops. *)
let[@chorus.hot] rec without_mapping (region : region) vpn = function
  | [] -> []
  | (((r : region), v) as m) :: rest as l ->
    if r == region && v = vpn then without_mapping region vpn rest
    else
      let rest' = without_mapping region vpn rest in
      if rest' == rest then l
      else
        (m :: rest')
        [@chorus.alloc_ok
          "the cells in front of a removed record: the shortened list the \
           page keeps"]

let[@chorus.hot] [@chorus.spanned
     "runs under the fault span opened by Fault.handle"] enter pvm
    (page : page) (region : region) ~vpn =
  (* Replacing another page's entry: retire its pmap record so a later
     teardown of that page does not unmap us. *)
  let old = Hw.Mmu.mapped_frame_index region.r_context.ctx_space ~vpn in
  (if old >= 0 && old <> page.p_frame.Hw.Phys_mem.index then
     match page_at_index pvm old with
     | Some old_page ->
       old_page.p_mappings <- without_mapping region vpn old_page.p_mappings
     | None -> ());
  let prot = effective_prot page region in
  charge pvm Hw.Cost.Mmu_map;
  Hw.Mmu.map region.r_context.ctx_space ~vpn page.p_frame prot;
  if not (has_mapping region vpn page.p_mappings) then
    page.p_mappings <-
      ((region, vpn) :: page.p_mappings)
      [@chorus.alloc_ok
        "the mapping record (region, vpn) and its list cell: the pmap \
         bookkeeping a real kernel allocates per MMU entry"]

let[@chorus.hot] drop_mapping (page : page) (region : region) ~vpn =
  page.p_mappings <- without_mapping region vpn page.p_mappings

let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned GMI entry points (setProtection, \
      fault resolution)"] rec refresh_walk pvm (page : page) = function
  | [] -> ()
  | ((region : region), vpn) :: rest ->
    charge pvm Hw.Cost.Mmu_protect;
    Hw.Mmu.protect region.r_context.ctx_space ~vpn (effective_prot page region);
    refresh_walk pvm page rest

(* Recompute the hardware protection of every mapping of [page];
   charges one protection update per refreshed entry. *)
let[@chorus.hot] refresh_prot pvm (page : page) =
  refresh_walk pvm page page.p_mappings

let[@chorus.hot] rec protect_walk (page : page) = function
  | [] -> ()
  | ((region : region), vpn) :: rest ->
    Hw.Mmu.protect region.r_context.ctx_space ~vpn (effective_prot page region);
    protect_walk page rest

(* Read-protect [page] everywhere, marking it copied.  This is the
   per-page cost of initiating a deferred copy (paper §5.3.2: ~16us
   per page of the source). *)
let[@chorus.hot] [@chorus.spanned
     "runs under the copy span (deferred-copy setup)"] cow_protect pvm
    (page : page) =
  if not page.p_cow_protected then begin
    page.p_cow_protected <- true;
    charge pvm Hw.Cost.Mmu_protect;
    protect_walk page page.p_mappings
  end

(* Unmap the borrowed records of [mappings], a snapshot of [page]'s
   list.  Each unmap is charged first, and a charge is a scheduling
   point: a record another fibre dropped meanwhile is skipped, and
   each unmapped record leaves the page's {e current} list at once,
   so a mapping entered during a charge is never lost. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the fault span (source write resolution)"] rec unmap_borrowed
    pvm (page : page) = function
  | [] -> ()
  | ((region : region), vpn) :: rest ->
    if is_borrowed page region then begin
      charge pvm Hw.Cost.Mmu_protect;
      if has_mapping region vpn page.p_mappings then begin
        Hw.Mmu.unmap region.r_context.ctx_space ~vpn;
        page.p_mappings <- without_mapping region vpn page.p_mappings
      end
    end;
    unmap_borrowed pvm page rest

let[@chorus.hot] rec has_borrowed (page : page) = function
  | [] -> false
  | ((region : region), _) :: rest ->
    is_borrowed page region || has_borrowed page rest

(* Let a source page go writable again once its original value has
   been saved in the history object.  Borrowed read mappings in
   descendant contexts would otherwise observe the new value, so they
   are invalidated and will re-fault onto the saved copy.  A borrowed
   mapping entered while the unmaps were being charged is caught by
   the next round. *)
let[@chorus.hot] cow_release pvm (page : page) =
  page.p_cow_protected <- false;
  while has_borrowed page page.p_mappings do
    unmap_borrowed pvm page page.p_mappings
  done;
  refresh_walk pvm page page.p_mappings

(* Remove every MMU entry pointing at [page]'s frame (eviction,
   invalidation, destruction).  Works on the current head of the list,
   not a snapshot: each unmap is charged, a charge is a scheduling
   point, and a mapping a concurrent fault enters meanwhile is unmapped
   in turn instead of being cleared away under a live translation. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned eviction/teardown paths"] rec unmap_all
    pvm (page : page) =
  match page.p_mappings with
  | [] -> ()
  | ((region : region), vpn) :: _ ->
    charge pvm Hw.Cost.Mmu_protect;
    if
      region.r_alive && region.r_context.ctx_alive
      && has_mapping region vpn page.p_mappings
    then Hw.Mmu.unmap region.r_context.ctx_space ~vpn;
    page.p_mappings <- without_mapping region vpn page.p_mappings;
    unmap_all pvm page
