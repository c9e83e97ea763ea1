(* Page installation / removal primitives.

   Everything that puts a real page descriptor into (or takes it out
   of) a cache goes through here, so the cache page list, the global
   map, the frame registry, the reclaim queue and pending
   per-virtual-page stubs stay consistent. *)

open Types

module For_testing = struct
  (* Reintroduces the lost-insert race for the explorer's mutation
     suite: [try_insert_fresh] skips the re-probe of its destination,
     so two fibres that both zero-fill the same missing page install
     two resident entries for one (cache, offset).  Never set outside
     tests. *)
  let skip_insert_probe = ref false
end

(* Raw local-cache constructor; the public entry point is
   [Cache.create], working caches are made by [History]. *)
let[@chorus.spanned
     "cacheCreate's only charge; attributed to the enclosing GMI span when \
      one is open (copy, fault) and standalone otherwise"] new_cache pvm
    ?backing ~anonymous ~is_history () =
  note_structure pvm;
  charge pvm Hw.Cost.Cache_create;
  let cache =
    {
      c_id = next_id pvm;
      c_pvm = pvm;
      c_backing = backing;
      c_anonymous = anonymous;
      c_backed_offs = Hashtbl.create 8;
      c_pages = [];
      c_dest_stubs = Hashtbl.create 8;
      c_pending_offs = Hashtbl.create 8;
      c_parents = [];
      c_history = None;
      c_children = [];
      c_mappings = [];
      c_is_history = is_history;
      c_policy = `Copy_on_write;
      c_zombie = false;
      c_alive = true;
    }
  in
  with_mm pvm (fun () -> pvm.caches <- cache :: pvm.caches);
  cache

(* --- Per-cache stub indexes ---------------------------------------- *)

(* [c_dest_stubs] mirrors the Cow_stub rows of the global map under a
   cache's id, [c_pending_offs] the pending-stub rows keyed on it.
   Each update sits next to the row change it mirrors, with no
   scheduling point between them, so the sanitizer can compare index
   and rows after any engine event.  Global_map.set/remove stay
   untouched: the resident fault path pays nothing.  Parallel faults
   materialise and re-thread stubs, so the tables change under the mm
   lock (the explicit halves: no closure, and Hashtbl.replace/remove
   cannot raise). *)

let[@chorus.noted
     "mirrors a row change its caller makes next to it; the caller notes \
      that (cache, offset) row"] index_dest_stub pvm (stub : cow_stub) =
  mm_enter pvm;
  Hashtbl.replace stub.cs_cache.c_dest_stubs stub.cs_offset stub;
  mm_exit pvm

let[@chorus.noted
     "mirrors a row change its caller makes next to it; the caller notes \
      that (cache, offset) row"] unindex_dest_stub pvm (cache : cache) ~off =
  mm_enter pvm;
  Hashtbl.remove cache.c_dest_stubs off;
  mm_exit pvm

let[@chorus.noted
     "mirrors a row change its caller makes next to it; the caller notes \
      that (cache, offset) row"] index_pending pvm (cache : cache) ~off =
  mm_enter pvm;
  Hashtbl.replace cache.c_pending_offs off ();
  mm_exit pvm

let[@chorus.noted
     "mirrors a row change its caller makes next to it; the caller notes \
      that (cache, offset) row"] unindex_pending pvm (cache : cache) ~off =
  mm_enter pvm;
  Hashtbl.remove cache.c_pending_offs off;
  mm_exit pvm

(* The stubs destined to [cache] and the offsets of the pending rows
   keyed on it, each in ascending offset order. *)
let[@chorus.noted
     "reads one cache's whole index: its callers (teardown, the zombie \
      sweep) note the topology and run on serial-class fibres or at pool \
      quiescence"] dest_stubs (cache : cache) =
  Hashtbl.fold (fun off s acc -> (off, s) :: acc) cache.c_dest_stubs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let[@chorus.noted
     "reads one cache's whole index: its callers (teardown, the zombie \
      sweep) note the topology and run on serial-class fibres or at pool \
      quiescence"] pending_offsets (cache : cache) =
  Hashtbl.fold (fun off () acc -> off :: acc) cache.c_pending_offs []
  |> List.sort Int.compare

(* Thread onto [page] any per-virtual-page stubs that were waiting for
   its (cache, offset) to become resident (their source had been
   paged out, so they held a (cache, offset) reference). *)
let rethread_pending_stubs pvm (page : page) =
  note_frag pvm page.p_cache ~off:page.p_offset;
  let k = (page.p_cache.c_id, page.p_offset) in
  match Shard_map.find_opt pvm.stub_sources k with
  | None -> ()
  | Some stubs ->
    Shard_map.remove pvm.stub_sources k;
    unindex_pending pvm page.p_cache ~off:page.p_offset;
    let live = List.filter (fun s -> s.cs_alive) stubs in
    List.iter (fun s -> s.cs_source <- Src_page page) live;
    page.p_cow_stubs <- live @ page.p_cow_stubs

let add_pending_stub pvm ~src_cache ~src_off stub =
  note_frag pvm src_cache ~off:src_off;
  let k = (src_cache.c_id, src_off) in
  match Shard_map.find_opt pvm.stub_sources k with
  | Some existing -> Shard_map.replace pvm.stub_sources k (stub :: existing)
  | None ->
    Shard_map.replace pvm.stub_sources k [ stub ];
    index_pending pvm src_cache ~off:src_off

(* Memory-pressure counter samples for the trace (and so for the
   profiler's pressure series): emitted wherever the resident set
   changes, they cost nothing when tracing is off. *)
let[@chorus.noted
     "reads the reclaim queue only when tracing is on; tracing is never on \
      under the explorer"] note_pressure pvm =
  let tr = Hw.Engine.tracer pvm.engine in
  if Obs.Trace.enabled tr then begin
    Obs.Trace.counter tr "pvm.reclaim_queue" (Fifo.length pvm.reclaim);
    Obs.Trace.counter tr "pvm.free_frames" (Hw.Phys_mem.free_frames pvm.mem)
  end

(* Create a page descriptor around [frame] and make it the resident
   entry for (cache, off).  With [~fresh:false] (the default) the
   caller must have made sure no resident page or stub occupies that
   slot (or pass the sync-stub condition to release waiters), and the
   map entry is overwritten.  With [~fresh:true] the map entry is
   installed atomically only if the slot is empty — the parallel-safe
   probe — and a lost race returns [None] with nothing mutated.  The
   map entry goes in first, then the page/frame bookkeeping under the
   mm lock: once the entry is visible, concurrent faulters settle on
   it instead of installing a twin. *)
let insert_page_entry pvm (cache : cache) ~off frame ~pulled_prot
    ~cow_protected ~fresh =
  assert (is_page_aligned pvm off);
  assert cache.c_alive;
  note_frames pvm;
  let page =
    {
      p_cache = cache;
      p_offset = off;
      p_frame = frame;
      p_pulled_prot = pulled_prot;
      p_cow_protected = cow_protected;
      p_cow_stubs = [];
      p_mappings = [];
      p_dirty = false;
      p_wire_count = 0;
      p_alive = true;
    }
  in
  let installed =
    if fresh then Global_map.try_install pvm cache ~off (Resident page)
    else begin
      Global_map.set pvm cache ~off (Resident page);
      true
    end
  in
  if not installed then None
  else begin
    with_mm pvm (fun () ->
        cache.c_pages <- page :: cache.c_pages;
        Pmap.register_page pvm page;
        Fifo.push pvm.reclaim page);
    rethread_pending_stubs pvm page;
    note_pressure pvm;
    Some page
  end

let insert_page pvm (cache : cache) ~off frame ~pulled_prot ~cow_protected =
  match
    insert_page_entry pvm cache ~off frame ~pulled_prot ~cow_protected
      ~fresh:false
  with
  | Some page -> page
  | None -> assert false

(* Install [frame] as the resident page for (cache, off) — unless a
   concurrent operation filled the slot while the caller slept inside
   frame allocation or a copy/zero charge.  Every creation path
   reaches its insert through such scheduling points, so the
   destination must be re-probed at insert time; on a lost race the
   frame is returned to the pool and the caller settles on whatever
   value won (§3.3.3).  The re-probe and the install are fused under
   one shard lock ([~fresh:true]), so on the parallel engine two
   same-slot faulters that both pass an earlier peek still serialise
   here. *)
let[@chorus.spanned
     "leaf helper: callers are the spanned fault/copy resolution paths"] try_insert_fresh
    pvm (cache : cache) ~off frame ~pulled_prot ~cow_protected =
  if !For_testing.skip_insert_probe then
    Some (insert_page pvm cache ~off frame ~pulled_prot ~cow_protected)
  else
    match
      insert_page_entry pvm cache ~off frame ~pulled_prot ~cow_protected
        ~fresh:true
    with
    | Some page -> Some page
    | None ->
      note_frames pvm;
      charge pvm Hw.Cost.Frame_free;
      with_mm pvm (fun () -> Hw.Phys_mem.free pvm.mem frame);
      None

(* Detach a page from every structure.  Per-virtual-page stubs still
   reading through it must have been materialised or retargeted by the
   caller. *)
let[@chorus.spanned
     "leaf helper: callers are the spanned eviction/purge/teardown paths"] remove_page
    pvm (page : page) ~free_frame =
  assert (page.p_alive);
  assert (page.p_cow_stubs = []);
  note_frames pvm;
  with_mm pvm (fun () ->
      Pmap.unmap_all pvm page;
      Pmap.unregister_page pvm page;
      let cache = page.p_cache in
      cache.c_pages <- List.filter (fun p -> not (p == page)) cache.c_pages;
      (match Global_map.peek pvm cache ~off:page.p_offset with
      | Some (Resident p) when p == page ->
        Global_map.remove pvm cache ~off:page.p_offset
      | _ -> ());
      Fifo.remove_phys pvm.reclaim page;
      page.p_alive <- false;
      if free_frame then begin
        charge pvm Hw.Cost.Frame_free;
        Hw.Phys_mem.free pvm.mem page.p_frame
      end);
  note_pressure pvm

(* Move a page descriptor to another (cache, offset) without touching
   the frame: the move-semantics fast path of Table 1 ("changing the
   real-page-to-cache assignments rather than copying").  With
   [preserve] the page keeps its copy-protection state and threaded
   stubs — used when a purged range migrates to a hidden history node
   rather than transferring data. *)
let reassign_page pvm ?(preserve = false) (page : page) (dst : cache) ~dst_off
    =
  if not preserve then assert (page.p_cow_stubs = []);
  with_mm pvm (fun () ->
      Pmap.unmap_all pvm page;
      let src = page.p_cache in
      src.c_pages <- List.filter (fun p -> not (p == page)) src.c_pages;
      (match Global_map.peek pvm src ~off:page.p_offset with
      | Some (Resident p) when p == page ->
        Global_map.remove pvm src ~off:page.p_offset
      | _ -> ());
      page.p_cache <- dst;
      page.p_offset <- dst_off;
      if not preserve then page.p_cow_protected <- false;
      dst.c_pages <- page :: dst.c_pages;
      Global_map.set pvm dst ~off:dst_off (Resident page));
  rethread_pending_stubs pvm page;
  if not preserve then
    bump pvm.stats.sc_moved_pages
