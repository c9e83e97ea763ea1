let name = "simulator (software-only reference)"

type cache = {
  c_backing : Core.Gmi.backing option;
  mutable c_data : Bytes.t; (* grown on demand *)
  c_present : (int, unit) Hashtbl.t; (* page offsets materialised *)
  c_dirty : (int, unit) Hashtbl.t;
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

and context = { mutable ctx_regions : region list; mutable ctx_alive : bool }

type t = { page_size : int }

let create ?(page_size = 8192) ?cost:_ ~frames:_ ~engine:_ () = { page_size }
let page_size t = t.page_size
let context_create _t = { ctx_regions = []; ctx_alive = true }

let cache_create _t ?backing () =
  {
    c_backing = backing;
    c_data = Bytes.create 0;
    c_present = Hashtbl.create 16;
    c_dirty = Hashtbl.create 16;
    c_alive = true;
  }

let grow (cache : cache) size =
  if Bytes.length cache.c_data < size then begin
    let bigger = Bytes.make size '\000' in
    Bytes.blit cache.c_data 0 bigger 0 (Bytes.length cache.c_data);
    cache.c_data <- bigger
  end

(* Copy a fillUp slice into the cache's store; returns its length. *)
let fill_slice t (cache : cache) ~offset ?(pos = 0) ?len bytes =
  let len =
    Core.Gmi.fill_up_slice ~page_size:t.page_size ~offset ~pos ?len bytes
  in
  grow cache (offset + len);
  Bytes.blit bytes pos cache.c_data offset len;
  len

(* Materialise a page: pull from the segment the first time it is
   touched, zero-fill otherwise. *)
let ensure t (cache : cache) ~off =
  grow cache (off + t.page_size);
  if not (Hashtbl.mem cache.c_present off) then begin
    Hashtbl.replace cache.c_present off ();
    match cache.c_backing with
    | None -> ()
    | Some b ->
      b.Core.Gmi.b_pull_in ~offset:off ~size:t.page_size
        ~prot:Hw.Prot.read_write
        ~fill_up:(fun ~offset ?pos ?len bytes ->
          ignore (fill_slice t cache ~offset ?pos ?len bytes))
  end

let region_create t (ctx : context) ~addr ~size ~prot cache ~offset =
  Core.Region_check.validate ~page_size:t.page_size ~ctx_alive:ctx.ctx_alive
    ~cache_alive:cache.c_alive ~addr ~size ~offset
    ~overlaps:
      (List.exists
         (fun r -> Core.Region_check.overlap ~addr ~size r.r_addr r.r_size)
         ctx.ctx_regions);
  let region =
    { r_ctx = ctx; r_addr = addr; r_size = size; r_prot = prot;
      r_cache = cache; r_offset = offset; r_alive = true }
  in
  ctx.ctx_regions <- region :: ctx.ctx_regions;
  region

let region_destroy _t (region : region) =
  region.r_ctx.ctx_regions <-
    List.filter (fun r -> not (r == region)) region.r_ctx.ctx_regions;
  region.r_alive <- false

let region_set_protection _t (region : region) prot = region.r_prot <- prot
let region_lock _t _region = ()
let region_unlock _t _region = ()

let context_destroy t (ctx : context) =
  List.iter (fun r -> region_destroy t r) ctx.ctx_regions;
  ctx.ctx_alive <- false

let cache_destroy _t (cache : cache) =
  cache.c_data <- Bytes.create 0;
  cache.c_alive <- false

let copy t ?strategy:_ ~src ~src_off ~dst ~dst_off ~size () =
  (* eager, page-by-page so segment data is pulled where needed *)
  let rec go copied =
    if copied < size then begin
      let s = src_off + copied and d = dst_off + copied in
      let s_page = s / t.page_size * t.page_size in
      let d_page = d / t.page_size * t.page_size in
      let chunk =
        min (size - copied)
          (min (s_page + t.page_size - s) (d_page + t.page_size - d))
      in
      ensure t src ~off:s_page;
      ensure t dst ~off:d_page;
      Bytes.blit src.c_data s dst.c_data d chunk;
      Hashtbl.replace dst.c_dirty d_page ();
      go (copied + chunk)
    end
  in
  go 0

let fill_up t (cache : cache) ~offset ?pos ?len bytes =
  let len = fill_slice t cache ~offset ?pos ?len bytes in
  for i = 0 to (len / t.page_size) - 1 do
    Hashtbl.replace cache.c_present (offset + (i * t.page_size)) ()
  done

let copy_back t (cache : cache) ~offset ~size =
  let out = Bytes.create size in
  let rec go done_ =
    if done_ < size then begin
      let o = offset + done_ in
      let o_page = o / t.page_size * t.page_size in
      let chunk = min (size - done_) (o_page + t.page_size - o) in
      ensure t cache ~off:o_page;
      Bytes.blit cache.c_data o out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let sync t (cache : cache) ~offset ~size =
  match cache.c_backing with
  | None -> ()
  | Some b ->
    Hashtbl.iter
      (fun off () ->
        if off >= offset && off < offset + size then
          b.Core.Gmi.b_push_out ~offset:off ~size:t.page_size
            ~copy_back:(fun ~offset:o ~size:s -> Bytes.sub cache.c_data o s))
      cache.c_dirty

let find_region (ctx : context) ~addr =
  List.find_opt
    (fun r -> addr >= r.r_addr && addr < r.r_addr + r.r_size)
    ctx.ctx_regions

let locate t (ctx : context) ~addr ~access =
  match find_region ctx ~addr with
  | None -> raise (Core.Gmi.Segmentation_fault addr)
  | Some r ->
    if not (Hw.Prot.allows r.r_prot access) then
      raise (Core.Gmi.Protection_fault addr);
    let off = r.r_offset + (addr - r.r_addr) in
    ensure t r.r_cache ~off:(off / t.page_size * t.page_size);
    if access = `Write then
      Hashtbl.replace r.r_cache.c_dirty (off / t.page_size * t.page_size) ();
    (r.r_cache, off)

let touch t ctx ~addr ~access = ignore (locate t ctx ~addr ~access)

let read t ctx ~addr ~len =
  let out = Bytes.create len in
  let rec go done_ =
    if done_ < len then begin
      let cache, off = locate t ctx ~addr:(addr + done_) ~access:`Read in
      let in_page = off mod t.page_size in
      let chunk = min (len - done_) (t.page_size - in_page) in
      Bytes.blit cache.c_data off out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let write t ctx ~addr bytes =
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let cache, off = locate t ctx ~addr:(addr + done_) ~access:`Write in
      let in_page = off mod t.page_size in
      let chunk = min (len - done_) (t.page_size - in_page) in
      Bytes.blit bytes done_ cache.c_data off chunk;
      go (done_ + chunk)
    end
  in
  go 0
