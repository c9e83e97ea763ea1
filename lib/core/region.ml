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

(* Does [addr, addr+size) overlap a region of [regions]?  The list is
   sorted by start address and its regions are disjoint, so the walk
   stops at the first region starting at or after [addr + size]. *)
let[@chorus.hot] [@chorus.noted "create notes the topology it checks"] rec overlaps_any
    ~addr ~size = function
  | [] -> false
  | (r : region) :: rest ->
    r.r_addr < addr + size
    && (Region_check.overlap ~addr ~size r.r_addr r.r_size
       || overlaps_any ~addr ~size rest)

(* [regions] with [region] inserted at its address: the cells in front
   of it are rebuilt, the suffix behind it is shared. *)
let[@chorus.hot] rec insert_sorted (region : region) = function
  | (r : region) :: rest when r.r_addr < region.r_addr ->
    (r :: insert_sorted region rest)
    [@chorus.alloc_ok "the cells in front of the new region: the list kept"]
  | l -> (region :: l) [@chorus.alloc_ok "the new region's cell"]

(* [regions] without [region], sharing the suffix behind it: only the
   cells in front of it are rebuilt, and a list without it comes back
   as it is. *)
let[@chorus.hot] rec without_region (region : region) = function
  | [] -> []
  | r :: rest as l ->
    if r == region then rest
    else
      let rest' = without_region region rest in
      if rest' == rest then l
      else
        (r :: rest')
        [@chorus.alloc_ok
          "the cells in front of the removed region: the shortened list kept"]

let[@chorus.hot] [@chorus.spanned "runs under the regionCreate span"] create_in
    pvm (ctx : context) ~addr ~size ~prot (cache : cache) ~offset =
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
    [@chorus.alloc_ok "the region descriptor the context keeps"]
  in
  ctx.ctx_regions <- insert_sorted region ctx.ctx_regions;
  cache.c_mappings <-
    (region :: cache.c_mappings)
    [@chorus.alloc_ok "the region's cell on its cache's mapping list"];
  region

(* regionCreate: map a cache window into a context.  Mapping is lazy —
   the cost is independent of the region size (paper §5.3.2). *)
let[@chorus.hot] [@chorus.noted
     "create_in notes the topology in the same slice: the overlap walk \
      and the note see no scheduling point between them"] create pvm
    (ctx : context) ~addr ~size ~prot (cache : cache) ~offset =
  Region_check.validate ~page_size:(page_size pvm) ~ctx_alive:ctx.ctx_alive
    ~cache_alive:(cache_visible cache) ~addr ~size ~offset
    ~overlaps:(overlaps_any ~addr ~size ctx.ctx_regions);
  let tr = Hw.Engine.tracer pvm.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "regionCreate";
  match create_in pvm ctx ~addr ~size ~prot cache ~offset with
  | region ->
    if traced then Obs.Trace.span_end tr;
    region
  | exception e ->
    if traced then span_raise tr e;
    raise e

(* region.split (Table 2): cut a region in two at [offset] bytes from
   its start.  Splitting never occurs spontaneously, so upper layers
   can track regions reliably (§3.3.2). *)
let split pvm (region : region) ~offset =
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
  ctx.ctx_regions <- insert_sorted right ctx.ctx_regions;
  region.r_cache.c_mappings <- right :: region.r_cache.c_mappings;
  Pmap.relabel pvm ~left:region ~right;
  right

(* region.setProtection (Table 2): change the hardware protection of
   the whole region, re-protecting every mapped entry. *)
let set_protection pvm (region : region) prot =
  check_region_alive region;
  spanned pvm "regionSetProtection" @@ fun () ->
  region.r_prot <- prot;
  let ps = page_size pvm in
  Pmap.edit_window pvm region Reprotect ~vpn:(region.r_addr / ps)
    ~count:(region.r_size / ps)

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
    ignore (Fault.translate pvm region.r_context ~addr ~access);
    match Pmap.mapped_page pvm region ~vpn with
    | Some page -> page.p_wire_count <- page.p_wire_count + 1
    | None -> assert false
  done;
  region.r_locked <- true

(* region.unlock (Table 2): faults may occur again. *)
let unlock pvm (region : region) =
  check_region_alive region;
  if region.r_locked then begin
    Pmap.iter_mapped pvm region (fun page ~vpn:_ ->
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

let[@chorus.hot] [@chorus.spanned "runs under the regionDestroy span"] destroy_in
    pvm (region : region) =
  note_structure pvm;
  charge pvm Hw.Cost.Region_destroy;
  let ps = page_size pvm in
  charge_span pvm Hw.Cost.Invalidate_page (pvm.cost.t_invalidate_page * (region.r_size / ps));
  Pmap.unmap_region pvm region;
  let ctx = region.r_context in
  ctx.ctx_regions <- without_region region ctx.ctx_regions;
  region.r_cache.c_mappings <- without_region region region.r_cache.c_mappings;
  region.r_alive <- false

(* region.destroy (Table 2): unmap the cache window.  Destruction
   invalidates the whole virtual range, so unlike creation its
   simulated cost grows (mildly) with the region size (§5.3.2): the
   charge is per page of the region. *)
let[@chorus.hot] destroy pvm (region : region) =
  check_region_alive region;
  if region.r_locked then unlock pvm region;
  let tr = Hw.Engine.tracer pvm.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "regionDestroy";
  match destroy_in pvm region with
  | () -> if traced then Obs.Trace.span_end tr
  | exception e ->
    if traced then span_raise tr e;
    raise e
