(* Physical-map bookkeeping: which MMU entries currently point at a
   page's frame.  Real kernels keep this reverse map (the pmap) so
   that read-protecting a copied page, stealing a frame, or letting a
   diverging source page go writable again can reach every context
   that mapped it.  We record mappings on the page descriptor and keep
   a frame -> page registry on the PVM.

   This module is the only writer of MMU translations and pmap
   records.  Every edit reads the translation or page it acts on after
   its last charge, never before: a charge is a scheduling point, and
   meanwhile another fibre may map, unmap, evict, free or move.  So a
   translation and its record change together, in one slice, and each
   implies the other.  An edit reads once: [enter] learns the entry it
   replaced from [Hw.Mmu.map] itself, and keeps or adds the record from
   that, with no second page-table probe and no walk of the page's
   records. *)

open Types

let register_page pvm (page : page) =
  note_frames pvm;
  pvm.page_of_frame.(page.p_frame.Hw.Phys_mem.index) <- Some page

let unregister_page pvm (page : page) =
  note_frames pvm;
  pvm.page_of_frame.(page.p_frame.Hw.Phys_mem.index) <- None

let[@inline] page_at_index pvm i =
  note_frames ~write:false pvm;
  pvm.page_of_frame.(i)

let[@inline] mapped_page pvm (region : region) ~vpn =
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
let[@inline] effective_prot (page : page) (region : region) =
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

exception Page_died

let[@chorus.hot] [@inline] [@chorus.spanned
     "runs under the fault span opened by Fault.handle"] enter pvm
    (page : page) (region : region) ~vpn =
  charge pvm Hw.Cost.Mmu_map;
  (* Evicted or freed during the charge: its frame may already hold
     another page.  A region destroyed meanwhile maps nothing. *)
  if not (page.p_alive && region.r_alive) then raise Page_died;
  let old =
    Hw.Mmu.map region.r_context.ctx_space ~vpn page.p_frame
      (effective_prot page region)
  in
  (* A translation and its record imply each other, so the entry the
     map replaced says what to do: re-mapping the page's own frame keeps
     its record; replacing another page's entry retires that page's
     record (a later teardown of it must not unmap us) and records
     ours. *)
  if old <> page.p_frame.Hw.Phys_mem.index then begin
    (if old >= 0 then
       match page_at_index pvm old with
       | Some old_page ->
         old_page.p_mappings <- without_mapping region vpn old_page.p_mappings
       | None -> ());
    page.p_mappings <-
      ((region, vpn) :: page.p_mappings)
      [@chorus.alloc_ok
        "the mapping record (region, vpn) and its list cell: the pmap \
         bookkeeping a real kernel allocates per MMU entry"]
  end

let[@chorus.hot] drop_mapping (page : page) (region : region) ~vpn =
  page.p_mappings <- without_mapping region vpn page.p_mappings

(* Re-protect the records of [mappings], a snapshot of [page]'s list;
   a record dropped during a charge is skipped. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned GMI entry points (setProtection, \
      fault resolution)"] rec refresh_walk pvm (page : page) = function
  | [] -> ()
  | ((region : region), vpn) :: rest ->
    charge pvm Hw.Cost.Mmu_protect;
    if has_mapping region vpn page.p_mappings then
      Hw.Mmu.protect region.r_context.ctx_space ~vpn
        (effective_prot page region);
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

(* Unmap one record of [page], charged first: one another fibre
   dropped meanwhile is skipped. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned eviction, teardown and source \
      write paths"] unmap_one pvm (page : page) (region : region) ~vpn =
  charge pvm Hw.Cost.Mmu_protect;
  if has_mapping region vpn page.p_mappings then begin
    Hw.Mmu.unmap region.r_context.ctx_space ~vpn;
    drop_mapping page region ~vpn
  end

(* Unmap the borrowed records of [mappings], a snapshot of [page]'s
   list. *)
let[@chorus.hot] rec unmap_borrowed pvm (page : page) = function
  | [] -> ()
  | ((region : region), vpn) :: rest ->
    if is_borrowed page region then unmap_one pvm page region ~vpn;
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
   invalidation, destruction).  It takes the current head of the list
   each time, so a mapping a concurrent fault enters meanwhile is
   unmapped in turn. *)
let[@chorus.hot] rec unmap_all pvm (page : page) =
  match page.p_mappings with
  | [] -> ()
  | ((region : region), vpn) :: _ ->
    unmap_one pvm page region ~vpn;
    unmap_all pvm page

type window_edit = Invalidate | Reprotect

(* Edit every mapped entry of [region] in [vpn, vpn + count), in
   ascending order: an entry found is charged, then read again. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned purge and setProtection paths"] edit_window
    pvm (region : region) edit ~vpn ~count =
  let space = region.r_context.ctx_space in
  for vpn = vpn to vpn + count - 1 do
    match mapped_page pvm region ~vpn with
    | None -> ()
    | Some _ -> (
      charge pvm
        (match edit with
        | Invalidate -> Hw.Cost.Invalidate_page
        | Reprotect -> Hw.Cost.Mmu_protect);
      match mapped_page pvm region ~vpn with
      | None -> ()
      | Some page -> (
        match edit with
        | Invalidate ->
          drop_mapping page region ~vpn;
          Hw.Mmu.unmap space ~vpn
        | Reprotect -> Hw.Mmu.protect space ~vpn (effective_prot page region)))
  done

let[@chorus.hot] drop_entry (region : region) ~vpn frame _ =
  match page_at_index region.r_context.ctx_pvm frame.Hw.Phys_mem.index with
  | Some page -> drop_mapping page region ~vpn
  | None -> ()

(* Region destruction: one walk over the mapped entries, not every page
   of the range, drops each entry's record and removes it in one
   probe. *)
let[@chorus.hot] unmap_region pvm (region : region) =
  let ps = page_size pvm in
  ignore
    (Hw.Mmu.invalidate_range region.r_context.ctx_space
       ~vpn:(region.r_addr / ps) ~count:(region.r_size / ps) drop_entry
       region)

(* Calls [f] on the page of every mapped entry of [region]: a walk
   over mapped entries, not over the region's pages. *)
let iter_mapped pvm (region : region) f =
  let ps = page_size pvm in
  Hw.Mmu.iter_range region.r_context.ctx_space ~vpn:(region.r_addr / ps)
    ~count:(region.r_size / ps) (fun ~vpn frame _ ->
      match page_at_index pvm frame.Hw.Phys_mem.index with
      | Some page -> f page ~vpn
      | None -> ())

let relabel pvm ~(left : region) ~(right : region) =
  iter_mapped pvm right (fun page ~vpn ->
      page.p_mappings <- (right, vpn) :: without_mapping left vpn page.p_mappings)
