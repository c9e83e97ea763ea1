let name = "minimal (eager, real-time)"

(* The eager baseline never attaches a tracer: there are no spans for
   its charges to land in, and the profiler only reads the real PVM. *)
[@@@chorus.spanned
  "the minimal baseline has no tracer; charges feed the cost model only"]

type cache = {
  c_id : int;
  c_backing : Core.Gmi.backing option;
  c_pages : (int, Hw.Phys_mem.frame) Hashtbl.t; (* offset -> frame *)
  c_dirty : (int, unit) Hashtbl.t;
  mutable c_refs : int; (* regions mapping us *)
  mutable c_alive : bool;
}

type region = {
  r_ctx : context;
  r_addr : int;
  r_size : int;
  mutable r_prot : Hw.Prot.t;
  r_cache : cache;
  r_offset : int;
  mutable r_alive : bool;
}

and context = {
  ctx_space : Hw.Mmu.space;
  mutable ctx_regions : region list;
  mutable ctx_alive : bool;
}

type t = {
  mem : Hw.Phys_mem.t;
  mmu : Hw.Mmu.t;
  cost : Hw.Cost.profile;
  mutable next_id : int;
}

let create ?(page_size = 8192) ?(cost = Hw.Cost.chorus_sun360) ~frames
    ~engine:_ () =
  {
    mem = Hw.Phys_mem.create ~page_size ~frames ();
    mmu = Hw.Mmu.create ~page_size;
    cost;
    next_id = 1;
  }

let page_size t = Hw.Phys_mem.page_size t.mem
let frames_in_use t = Hw.Phys_mem.used_frames t.mem
let charge span = if span > 0 then Hw.Cost.charge span

let context_create t =
  { ctx_space = Hw.Mmu.create_space t.mmu; ctx_regions = []; ctx_alive = true }

let cache_create t ?backing () =
  let id = t.next_id in
  t.next_id <- id + 1;
  charge t.cost.t_cache_create;
  {
    c_id = id;
    c_backing = backing;
    c_pages = Hashtbl.create 16;
    c_dirty = Hashtbl.create 16;
    c_refs = 0;
    c_alive = true;
  }

(* Materialise the cache page at [off]: load from the segment if
   backed, zero-fill otherwise.  Unlike the PVM this happens eagerly,
   at region-creation time. *)
let ensure_page t (cache : cache) ~off =
  match Hashtbl.find_opt cache.c_pages off with
  | Some frame -> frame
  | None ->
    charge t.cost.t_frame_alloc;
    let frame =
      match Hw.Phys_mem.alloc_opt t.mem with
      | Some f -> f
      | None -> raise Core.Gmi.No_memory
    in
    (match cache.c_backing with
    | Some b ->
      let filled = ref false in
      b.Core.Gmi.b_pull_in ~offset:off ~size:(page_size t)
        ~prot:Hw.Prot.read_write
        ~fill_up:(fun ~offset ?(pos = 0) ?len bytes ->
          let len =
            Core.Gmi.fill_up_slice ~page_size:(page_size t) ~offset ~pos ?len
              bytes
          in
          if offset = off && len > 0 then begin
            Hw.Phys_mem.write frame ~off:0
              (Bytes.sub bytes pos (page_size t));
            filled := true
          end);
      if not !filled then Hw.Phys_mem.bzero frame;
      charge t.cost.t_bcopy_page
    | None ->
      charge t.cost.t_bzero_page;
      Hw.Phys_mem.bzero frame);
    Hashtbl.replace cache.c_pages off frame;
    frame

let region_create t (ctx : context) ~addr ~size ~prot cache ~offset =
  Core.Region_check.validate ~page_size:(page_size t) ~ctx_alive:ctx.ctx_alive
    ~cache_alive:cache.c_alive ~addr ~size ~offset
    ~overlaps:
      (List.exists
         (fun r -> Core.Region_check.overlap ~addr ~size r.r_addr r.r_size)
         ctx.ctx_regions);
  let ps = page_size t in
  charge t.cost.t_region_create;
  let region =
    { r_ctx = ctx; r_addr = addr; r_size = size; r_prot = prot;
      r_cache = cache; r_offset = offset; r_alive = true }
  in
  (* eager: allocate, load and map everything now *)
  for i = 0 to (size / ps) - 1 do
    let frame = ensure_page t cache ~off:(offset + (i * ps)) in
    charge t.cost.t_mmu_map;
    ignore (Hw.Mmu.map ctx.ctx_space ~vpn:((addr / ps) + i) frame prot);
    if Hw.Prot.allows prot `Write then
      Hashtbl.replace cache.c_dirty (offset + (i * ps)) ()
  done;
  cache.c_refs <- cache.c_refs + 1;
  ctx.ctx_regions <- region :: ctx.ctx_regions;
  region

let region_destroy t (region : region) =
  if region.r_alive then begin
    charge t.cost.t_region_destroy;
    let ps = page_size t in
    charge (t.cost.t_invalidate_page * (region.r_size / ps));
    ignore
      (Hw.Mmu.invalidate_range region.r_ctx.ctx_space
         ~vpn:(region.r_addr / ps) ~count:(region.r_size / ps));
    region.r_ctx.ctx_regions <-
      List.filter (fun r -> not (r == region)) region.r_ctx.ctx_regions;
    region.r_cache.c_refs <- region.r_cache.c_refs - 1;
    region.r_alive <- false
  end

let region_set_protection t (region : region) prot =
  region.r_prot <- prot;
  let ps = page_size t in
  for i = 0 to (region.r_size / ps) - 1 do
    charge t.cost.t_mmu_protect;
    (match Hw.Mmu.query region.r_ctx.ctx_space ~vpn:((region.r_addr / ps) + i) with
    | Pte _ ->
      Hw.Mmu.protect region.r_ctx.ctx_space ~vpn:((region.r_addr / ps) + i) prot
    | No_pte -> ());
    if Hw.Prot.allows prot `Write then
      Hashtbl.replace region.r_cache.c_dirty
        (region.r_offset + (i * ps)) ()
  done

(* Everything is pinned by construction. *)
let region_lock _t _region = ()
let region_unlock _t _region = ()

let context_destroy t (ctx : context) =
  List.iter (fun r -> region_destroy t r) ctx.ctx_regions;
  Hw.Mmu.destroy_space ctx.ctx_space;
  ctx.ctx_alive <- false

let cache_destroy t (cache : cache) =
  if not cache.c_alive then invalid_arg "minimal: cache already destroyed";
  if cache.c_refs > 0 then
    invalid_arg "cacheDestroy: regions still map this cache";
  Hashtbl.iter
    (fun _ frame ->
      charge t.cost.t_frame_free;
      Hw.Phys_mem.free t.mem frame)
    cache.c_pages;
  Hashtbl.reset cache.c_pages;
  cache.c_alive <- false

(* Copies are always real data movement: the minimal implementation
   has no deferred-copy machinery at all. *)
let copy t ?strategy:_ ~src ~src_off ~dst ~dst_off ~size () =
  let ps = page_size t in
  let rec go copied =
    if copied < size then begin
      let s = src_off + copied and d = dst_off + copied in
      let s_page = s / ps * ps and d_page = d / ps * ps in
      let chunk = min (size - copied) (min (s_page + ps - s) (d_page + ps - d)) in
      let sf = ensure_page t src ~off:s_page in
      let df = ensure_page t dst ~off:d_page in
      Bytes.blit sf.Hw.Phys_mem.bytes (s - s_page) df.Hw.Phys_mem.bytes
        (d - d_page) chunk;
      Hashtbl.replace dst.c_dirty d_page ();
      charge (t.cost.t_bcopy_page * chunk / ps);
      go (copied + chunk)
    end
  in
  go 0

let fill_up t (cache : cache) ~offset ?(pos = 0) ?len bytes =
  let ps = page_size t in
  let len = Core.Gmi.fill_up_slice ~page_size:ps ~offset ~pos ?len bytes in
  for i = 0 to (len / ps) - 1 do
    let off = offset + (i * ps) in
    let frame = ensure_page t cache ~off in
    Hw.Phys_mem.write frame ~off:0 (Bytes.sub bytes (pos + (i * ps)) ps)
  done

let copy_back t (cache : cache) ~offset ~size =
  let ps = page_size t in
  let out = Bytes.create size in
  let rec go done_ =
    if done_ < size then begin
      let o = offset + done_ in
      let o_page = o / ps * ps in
      let chunk = min (size - done_) (o_page + ps - o) in
      let frame = ensure_page t cache ~off:o_page in
      Bytes.blit frame.Hw.Phys_mem.bytes (o - o_page) out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let sync t (cache : cache) ~offset ~size =
  match cache.c_backing with
  | None -> ()
  | Some b ->
    let ps = page_size t in
    Hashtbl.iter
      (fun off frame ->
        if off >= offset && off < offset + size
           && Hashtbl.mem cache.c_dirty off then
          b.Core.Gmi.b_push_out ~offset:off ~size:ps
            ~copy_back:(fun ~offset:o ~size:s ->
              Hw.Phys_mem.read frame ~off:(o - off) ~len:s))
      cache.c_pages

(* Accesses never fault inside live regions; outside they trap. *)
let find_region (ctx : context) ~addr =
  List.find_opt
    (fun r -> addr >= r.r_addr && addr < r.r_addr + r.r_size)
    ctx.ctx_regions

let access_frame _t (ctx : context) ~addr ~access =
  match Hw.Mmu.translate ctx.ctx_space ~addr ~access with
  | Ok frame -> frame
  | Error Hw.Mmu.Unmapped -> raise (Core.Gmi.Segmentation_fault addr)
  | Error Hw.Mmu.Protection -> (
    match find_region ctx ~addr with
    | None -> raise (Core.Gmi.Segmentation_fault addr)
    | Some _ -> raise (Core.Gmi.Protection_fault addr))

let touch t ctx ~addr ~access = ignore (access_frame t ctx ~addr ~access)

let read t ctx ~addr ~len =
  let ps = page_size t in
  let out = Bytes.create len in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame t ctx ~addr:a ~access:`Read in
      Bytes.blit frame.Hw.Phys_mem.bytes in_page out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let write t ctx ~addr bytes =
  let ps = page_size t in
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame t ctx ~addr:a ~access:`Write in
      Bytes.blit bytes done_ frame.Hw.Phys_mem.bytes in_page chunk;
      go (done_ + chunk)
    end
  in
  go 0
