(* Region operations: the mapped-access half of the GMI (Table 2). *)

open Types

type status = {
  s_addr : int;
  s_size : int;
  s_prot : Hw.Prot.t;
  s_cache : cache;
  s_offset : int;
  s_locked : bool;
}

(* regionCreate: map a cache window into a context.  Mapping is lazy —
   the cost is independent of the region size (paper §5.3.2). *)
let[@chorus.guarded
     "region mapping edits run on the owning process's serial-class \
      fibres; parallel slices fault on regions already mapped and only \
      read ctx_regions/c_mappings"] create pvm (ctx : context) ~addr ~size
    ~prot (cache : cache) ~offset =
  Region_check.validate ~page_size:(page_size pvm) ~ctx_alive:ctx.ctx_alive
    ~cache_alive:cache.c_alive ~addr ~size ~offset
    ~existing:(List.map (fun r -> (r.r_addr, r.r_size)) ctx.ctx_regions);
  spanned pvm "regionCreate" @@ fun () ->
  note_structure pvm;
  charge pvm Hw.Cost.Region_create;
  let region =
    {
      r_id = next_id pvm;
      r_context = ctx;
      r_addr = addr;
      r_size = size;
      r_prot = prot;
      r_cache = cache;
      r_offset = offset;
      r_locked = false;
      r_alive = true;
    }
  in
  ctx.ctx_regions <-
    List.sort (fun a b -> compare a.r_addr b.r_addr) (region :: ctx.ctx_regions);
  cache.c_mappings <- region :: cache.c_mappings;
  region

(* Calls [f] on the page of every mapped entry of [region] — a walk
   over mapped entries, not over the region's pages.  [f] must not
   edit the context's MMU. *)
let iter_mapped pvm (region : region) f =
  let ps = page_size pvm in
  Hw.Mmu.iter_range region.r_context.ctx_space ~vpn:(region.r_addr / ps)
    ~count:(region.r_size / ps) (fun ~vpn frame _ ->
      match Pmap.page_at_index pvm frame.Hw.Phys_mem.index with
      | Some page -> f page ~vpn
      | None -> ())

(* region.split (Table 2): cut a region in two at [offset] bytes from
   its start.  Splitting never occurs spontaneously, so upper layers
   can track regions reliably (§3.3.2). *)
let[@chorus.guarded
     "region mapping edits run on the owning process's serial-class \
      fibres; parallel slices fault on regions already mapped and only \
      read ctx_regions/c_mappings"] split pvm (region : region) ~offset =
  check_region_alive region;
  if not (is_page_aligned pvm offset) then invalid_arg "split: unaligned";
  if offset <= 0 || offset >= region.r_size then
    invalid_arg "split: offset outside region";
  spanned pvm "regionSplit" @@ fun () ->
  note_structure pvm;
  charge pvm Hw.Cost.Region_create;
  let right =
    {
      r_id = next_id pvm;
      r_context = region.r_context;
      r_addr = region.r_addr + offset;
      r_size = region.r_size - offset;
      r_prot = region.r_prot;
      r_cache = region.r_cache;
      r_offset = region.r_offset + offset;
      r_locked = region.r_locked;
      r_alive = true;
    }
  in
  region.r_size <- offset;
  let ctx = region.r_context in
  ctx.ctx_regions <-
    List.sort (fun a b -> compare a.r_addr b.r_addr) (right :: ctx.ctx_regions);
  region.r_cache.c_mappings <- right :: region.r_cache.c_mappings;
  (* Re-label the pmap records of mappings now belonging to the right
     half. *)
  iter_mapped pvm right (fun page ~vpn ->
      Pmap.drop_mapping page region ~vpn;
      page.p_mappings <- (right, vpn) :: page.p_mappings);
  right

(* region.setProtection (Table 2): change the hardware protection of
   the whole region.  A charge is a scheduling point, so the walk
   probes every vpn in ascending order: an entry another fibre maps
   during a charge is still re-protected. *)
let set_protection pvm (region : region) prot =
  check_region_alive region;
  spanned pvm "regionSetProtection" @@ fun () ->
  region.r_prot <- prot;
  let ps = page_size pvm in
  let vpn0 = region.r_addr / ps in
  for vpn = vpn0 to vpn0 + (region.r_size / ps) - 1 do
    match Pmap.mapped_page pvm region ~vpn with
    | None -> ()
    | Some page ->
      charge pvm Hw.Cost.Mmu_protect;
      Hw.Mmu.protect region.r_context.ctx_space ~vpn
        (Pmap.effective_prot page region)
  done

(* region.lockInMemory (Table 2): resolve every fault the region could
   take and pin the pages, guaranteeing access without faults and
   fixed MMU maps — the property real-time kernels rely on. *)
let lock_in_memory pvm (region : region) =
  check_region_alive region;
  let access = if Hw.Prot.allows region.r_prot `Write then `Write else `Read in
  let ps = page_size pvm in
  let vpn0 = region.r_addr / ps in
  for vpn = vpn0 to vpn0 + (region.r_size / ps) - 1 do
    let addr = vpn * ps in
    (match Hw.Mmu.translate region.r_context.ctx_space ~addr ~access with
    | Ok _ -> ()
    | Error _ -> Fault.handle pvm region.r_context ~addr ~access);
    match Pmap.mapped_page pvm region ~vpn with
    | Some page -> page.p_wire_count <- page.p_wire_count + 1
    | None -> assert false
  done;
  region.r_locked <- true

(* region.unlock (Table 2): faults may occur again. *)
let unlock pvm (region : region) =
  check_region_alive region;
  if region.r_locked then begin
    iter_mapped pvm region (fun page ~vpn:_ ->
        if page.p_wire_count > 0 then
          page.p_wire_count <- page.p_wire_count - 1);
    region.r_locked <- false
  end

let status (region : region) =
  check_region_alive region;
  {
    s_addr = region.r_addr;
    s_size = region.r_size;
    s_prot = region.r_prot;
    s_cache = region.r_cache;
    s_offset = region.r_offset;
    s_locked = region.r_locked;
  }

(* region.destroy (Table 2): unmap the cache window.  Destruction
   invalidates the whole virtual range, so unlike creation its
   simulated cost grows (mildly) with the region size (§5.3.2): the
   charge is per page of the region.  The host work follows mapped
   pages only — the pmap records and PTEs are found by walking the
   mapped entries, not every page of the range. *)
let[@chorus.guarded
     "region mapping edits run on the owning process's serial-class \
      fibres; parallel slices fault on regions already mapped and only \
      read ctx_regions/c_mappings"] destroy pvm (region : region) =
  check_region_alive region;
  if region.r_locked then unlock pvm region;
  spanned pvm "regionDestroy" @@ fun () ->
  note_structure pvm;
  charge pvm Hw.Cost.Region_destroy;
  let ps = page_size pvm in
  charge_span pvm Hw.Cost.Invalidate_page (pvm.cost.t_invalidate_page * (region.r_size / ps));
  iter_mapped pvm region (fun page ~vpn -> Pmap.drop_mapping page region ~vpn);
  ignore
    (Hw.Mmu.invalidate_range region.r_context.ctx_space
       ~vpn:(region.r_addr / ps) ~count:(region.r_size / ps));
  let ctx = region.r_context in
  ctx.ctx_regions <- List.filter (fun r -> not (r == region)) ctx.ctx_regions;
  region.r_cache.c_mappings <-
    List.filter (fun r -> not (r == region)) region.r_cache.c_mappings;
  region.r_alive <- false
