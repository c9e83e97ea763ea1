(* Page installation and removal, and the one writer of stub rows.

   Everything that puts a real page descriptor into (or takes it out
   of) a cache goes through here, and so does every edit of a per-page
   stub row: the [Cow_stub] entries of the global map and the pending
   rows of [stub_sources].  Each row changes together with its
   per-cache mirror ([c_dest_stubs], [c_pending_offs]) in one call, so
   the cache page lists, the global map, the frame registry, the
   reclaim queue and the stub indexes stay consistent.

   The rule for inserts (§3.3.3): an insert reads its destination after
   its last charge.  Frame allocation and the copy or zero charges are
   scheduling points; meanwhile another fibre may fill the slot, kill
   the stub the page replaces or destroy the cache.  The page maker
   ([Pager.make_page]) re-reads all three before it calls
   [insert_page]. *)

open Types

module For_testing = struct
  (* Reintroduces the lost-insert race for the explorer's mutation
     suite: a fresh [insert_page] skips the probe of its destination,
     so two fibres that both zero-fill the same missing page install
     two resident entries for one (cache, offset).  Never set outside
     tests. *)
  let skip_insert_probe = ref false
end

(* Raw local-cache constructor; the public entry point is
   [Cache.create], working caches are made by [History]. *)
let[@chorus.hot] [@chorus.spanned
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
      c_backed_offs = no_offsets;
      c_pages = [];
      c_dest_stubs = no_stubs;
      c_pending_offs = no_offsets;
      c_parents = [];
      c_history = None;
      c_children = [];
      c_mappings = [];
      c_is_history = is_history;
      c_policy = `Copy_on_write;
      c_zombie = is_history;
      c_alive = true;
      c_newer = None;
      c_older = None;
    }
    [@chorus.alloc_ok "the cache descriptor the PVM keeps"]
  in
  link_cache pvm cache;
  cache

(* --- Rows and their mirrors ---------------------------------------- *)

(* [c_dest_stubs] mirrors the Cow_stub rows of the global map under a
   cache's id, [c_pending_offs] the pending-stub rows keyed on it.
   Only the writers below change such a row, each together with its
   mirror and with no scheduling point between them, so the sanitizer
   can compare index and rows after any engine event.
   Global_map.set/remove stay untouched: the resident fault path pays
   nothing. *)

let[@chorus.noted "its callers note the row's (cache, offset) first"] index_pending
    (cache : cache) ~off =
  if cache.c_pending_offs == no_offsets then
    cache.c_pending_offs <- Hashtbl.create 8;
  Hashtbl.replace cache.c_pending_offs off ()

(* An anonymous cache's swap copy of [off] now exists (the pager's
   push-out). *)
let[@chorus.noted
     "the pager's push-out notes the page it writes back"] index_backed
    (cache : cache) ~off =
  if cache.c_backed_offs == no_offsets then
    cache.c_backed_offs <- Hashtbl.create 8;
  Hashtbl.replace cache.c_backed_offs off ()

(* A cache that never swapped still shares [no_offsets]; the test does
   not read that table, which every fault would otherwise read. *)
let has_swapped (cache : cache) ~off =
  cache.c_anonymous
  && cache.c_backed_offs != no_offsets
  && Hashtbl.mem cache.c_backed_offs off

(* Is a pending-stub row keyed on (cache, off)?  The mirror answers
   exactly, with no probe of [stub_sources]; a cache that never had
   such a row still shares [no_offsets], and the test stops there. *)
let[@chorus.hot] [@chorus.noted
     "its callers note the row's (cache, offset) first"] has_pending
    (cache : cache) ~off =
  cache.c_pending_offs != no_offsets && Hashtbl.mem cache.c_pending_offs off

(* The stubs destined to [cache] and the offsets of the pending rows
   keyed on it, each in ascending offset order; an empty index costs
   nothing. *)
let[@chorus.noted
     "reads one cache's whole index: its callers (teardown, the liveness \
      walk) note the topology and run on serial-class fibres"] dest_stubs (cache : cache) =
  if Hashtbl.length cache.c_dest_stubs = 0 then []
  else
    Hashtbl.fold (fun off s acc -> (off, s) :: acc) cache.c_dest_stubs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd

let[@chorus.noted
     "reads one cache's whole index: its callers (teardown, the liveness \
      walk) note the topology and run on serial-class fibres"] pending_offsets (cache : cache) =
  if Hashtbl.length cache.c_pending_offs = 0 then []
  else
    Hashtbl.fold (fun off () acc -> off :: acc) cache.c_pending_offs []
    |> List.sort Int.compare

(* [put_stub] makes a [Cow_stub] entry its stub's row at (cs_cache,
   cs_offset); [remove_stub] drops that row. *)
let[@chorus.hot] [@chorus.noted "Global_map.set notes the row"] put_stub pvm
    entry =
  match entry with
  | Cow_stub ({ cs_cache = c; cs_offset = off; _ } as stub) ->
    Global_map.set pvm c ~off entry;
    if c.c_dest_stubs == no_stubs then c.c_dest_stubs <- Hashtbl.create 8;
    Hashtbl.replace c.c_dest_stubs off stub
  | Resident _ | Sync_stub _ -> invalid_arg "Install.put_stub"

let[@chorus.hot] [@chorus.noted "Global_map.remove notes the row"] remove_stub
    pvm (stub : cow_stub) =
  Global_map.remove pvm stub.cs_cache ~off:stub.cs_offset;
  Hashtbl.remove stub.cs_cache.c_dest_stubs stub.cs_offset

(* [stubs] without [stub], sharing the suffix behind it. *)
let[@chorus.hot] rec without_stub (stub : cow_stub) = function
  | [] -> []
  | s :: rest as l ->
    if s == stub then without_stub stub rest
    else
      let rest' = without_stub stub rest in
      if rest' == rest then l
      else
        (s :: rest')
        [@chorus.alloc_ok
          "the cells in front of the removed stub: the shortened list the \
           source keeps"]

let add_pending_stub pvm ~src_cache ~src_off stub =
  note_frag pvm src_cache ~off:src_off;
  let cid = src_cache.c_id in
  match Frag_map.find_opt pvm.stub_sources cid src_off with
  | Some existing ->
    Frag_map.replace pvm.stub_sources cid src_off (stub :: existing)
  | None ->
    Frag_map.replace pvm.stub_sources cid src_off [ stub ];
    index_pending src_cache ~off:src_off

(* Remove [stub] from its source's threading (page list or pending
   row) and mark it dead. *)
let unthread pvm (stub : cow_stub) =
  stub.cs_alive <- false;
  match stub.cs_source with
  | Src_page p -> p.p_cow_stubs <- without_stub stub p.p_cow_stubs
  | Src_cache (c, o) -> (
    note_frag pvm c ~off:o;
    match Frag_map.find_opt pvm.stub_sources c.c_id o with
    | None -> ()
    | Some stubs -> (
      match without_stub stub stubs with
      | [] ->
        Frag_map.remove pvm.stub_sources c.c_id o;
        Hashtbl.remove c.c_pending_offs o
      | rest -> Frag_map.replace pvm.stub_sources c.c_id o rest))

(* Retarget the live per-virtual-page stubs still reading through
   [page] to the (cache, offset) form: the data stays reachable through
   the segment once the page is gone (§4.3). *)
let retarget_stubs pvm (page : page) =
  let stubs = List.filter (fun s -> s.cs_alive) page.p_cow_stubs in
  page.p_cow_stubs <- [];
  List.iter
    (fun s ->
      s.cs_source <- Src_cache (page.p_cache, page.p_offset);
      add_pending_stub pvm ~src_cache:page.p_cache ~src_off:page.p_offset s)
    stubs

(* Take the pending row keyed on (cache, off) out, with its mirror. *)
let[@chorus.noted "its callers note the row's (cache, offset) first"] take_pending
    pvm (cache : cache) ~off =
  if not (has_pending cache ~off) then []
  else
    match Frag_map.find_opt pvm.stub_sources cache.c_id off with
    | None -> []
    | Some stubs ->
      Frag_map.remove pvm.stub_sources cache.c_id off;
      Hashtbl.remove cache.c_pending_offs off;
      stubs

(* Thread onto [page] any per-virtual-page stubs that were waiting for
   its (cache, offset) to become resident (their source had been
   paged out, so they held a (cache, offset) reference). *)
let rethread_pending_stubs pvm (page : page) =
  note_frag pvm page.p_cache ~off:page.p_offset;
  match take_pending pvm page.p_cache ~off:page.p_offset with
  | [] -> ()
  | stubs ->
    let live = List.filter (fun s -> s.cs_alive) stubs in
    List.iter (fun s -> s.cs_source <- Src_page page) live;
    page.p_cow_stubs <- live @ page.p_cow_stubs

(* Hand the pending row keyed on ([cache], [off]) to [z], which takes
   over the old contents there: its stubs now read [z]. *)
let rekey_pending pvm (cache : cache) (z : cache) ~off =
  note_frag pvm cache ~off;
  note_frag pvm z ~off;
  match take_pending pvm cache ~off with
  | [] -> ()
  | stubs ->
    List.iter
      (fun s ->
        match s.cs_source with
        | Src_cache (c, so) when c == cache -> s.cs_source <- Src_cache (z, so)
        | Src_cache _ | Src_page _ -> ())
      stubs;
    Frag_map.replace pvm.stub_sources z.c_id off stubs;
    index_pending z ~off

(* Give [z] the stub destined to (s.cs_cache, s.cs_offset): a copy of
   [s] takes its row and its place in its source's threading, and [s]
   dies. *)
let rehome_stub pvm (s : cow_stub) (z : cache) =
  remove_stub pvm s;
  let s' = { s with cs_cache = z } in
  s.cs_alive <- false;
  (match s.cs_source with
  | Src_page p -> p.p_cow_stubs <- s' :: without_stub s p.p_cow_stubs
  | Src_cache (c, so) -> (
    note_frag pvm c ~off:so;
    match Frag_map.find_opt pvm.stub_sources c.c_id so with
    | Some stubs ->
      Frag_map.replace pvm.stub_sources c.c_id so (s' :: without_stub s stubs)
    | None -> ()));
  put_stub pvm (Cow_stub s')

(* Memory-pressure counter samples for the trace (and so for the
   profiler's pressure series): emitted wherever the resident set
   changes, they cost nothing when tracing is off. *)
let[@chorus.noted
     "reads the reclaim queue only when tracing is on; tracing is never on \
      under the explorer"] note_pressure pvm =
  let tr = Hw.Engine.tracer pvm.engine in
  if Obs.Trace.enabled tr then begin
    Obs.Trace.counter tr "pvm.reclaim_queue" (Reclaim.length pvm.reclaim);
    Obs.Trace.counter tr "pvm.free_frames" (Hw.Phys_mem.free_frames pvm.mem)
  end

(* Create a page descriptor around [frame] and make it the resident
   entry for (cache, off), the map entry first, then the page/frame
   bookkeeping.  With [~fresh:true] the entry goes in only if the slot
   is empty, in the one probe that installs it, and a lost race returns
   [None] with nothing mutated; with [~fresh:false] it overwrites what
   the caller has checked is there (nothing, or its synchronization
   stub).  Only the page maker ([Pager.make_page]) calls this, once it
   has read the destination after its last charge. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: the page maker's callers open the fault/copy span"] insert_page
    pvm (cache : cache) ~off frame ~pulled_prot ~cow_protected ~fresh =
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
    [@chorus.alloc_ok "the page descriptor the cache keeps"]
  in
  let entry = Resident page [@chorus.alloc_ok "the page's global-map entry"] in
  let installed =
    if fresh && not !For_testing.skip_insert_probe then
      Global_map.try_install pvm cache ~off entry
    else begin
      Global_map.set pvm cache ~off entry;
      true
    end
  in
  if not installed then None
  else begin
    cache.c_pages <-
      (page :: cache.c_pages)
      [@chorus.alloc_ok "the page's cell on its cache's page list"];
    Pmap.register_page pvm page;
    Reclaim.push pvm.reclaim frame.Hw.Phys_mem.index;
    rethread_pending_stubs pvm page;
    note_pressure pvm;
    Some page [@chorus.alloc_ok "the installed page, handed to the caller"]
  end

(* Detach a page from every structure.  Per-virtual-page stubs still
   reading through it must have been materialised or retargeted by the
   caller. *)
(* [pages] without [page], sharing the suffix behind it. *)
let[@chorus.hot] rec without_page (page : page) = function
  | [] -> []
  | p :: rest as l ->
    if p == page then without_page page rest
    else
      let rest' = without_page page rest in
      if rest' == rest then l
      else
        (p :: rest')
        [@chorus.alloc_ok
          "the cells in front of the removed page: the shortened list the \
           cache keeps"]

(* Detach a page from every structure.  Per-virtual-page stubs still
   reading through it must have been materialised or retargeted by the
   caller. *)
let[@chorus.hot] [@chorus.spanned
     "leaf helper: callers are the spanned eviction/purge/teardown paths"] remove_page
    pvm (page : page) ~free_frame =
  assert (page.p_alive);
  assert (page.p_cow_stubs = []);
  note_frames pvm;
  Pmap.unmap_all pvm page;
  Pmap.unregister_page pvm page;
  Reclaim.remove pvm.reclaim page.p_frame.Hw.Phys_mem.index;
  let cache = page.p_cache in
  cache.c_pages <- without_page page cache.c_pages;
  (match Global_map.peek pvm cache ~off:page.p_offset with
  | Some (Resident p) when p == page ->
    Global_map.remove pvm cache ~off:page.p_offset
  | _ -> ());
  page.p_alive <- false;
  if free_frame then begin
    charge pvm Hw.Cost.Frame_free;
    Hw.Phys_mem.free pvm.mem page.p_frame
  end;
  note_pressure pvm

(* Move a page descriptor to another (cache, offset) without touching
   the frame: the move-semantics fast path of Table 1 ("changing the
   real-page-to-cache assignments rather than copying").  With
   [preserve] the page keeps its copy-protection state and threaded
   stubs — used when a purged range migrates to a hidden history node
   rather than transferring data. *)
let[@chorus.hot] reassign_page pvm ?preserve (page : page) (dst : cache)
    ~dst_off =
  let preserve = preserve = Some true in
  if not preserve then assert (page.p_cow_stubs = []);
  Pmap.unmap_all pvm page;
  let src = page.p_cache in
  src.c_pages <- without_page page src.c_pages;
  (match Global_map.peek pvm src ~off:page.p_offset with
  | Some (Resident p) when p == page ->
    Global_map.remove pvm src ~off:page.p_offset
  | _ -> ());
  page.p_cache <- dst;
  page.p_offset <- dst_off;
  if not preserve then page.p_cow_protected <- false;
  dst.c_pages <-
    (page :: dst.c_pages)
    [@chorus.alloc_ok "the moved page's cell on its new cache's page list"];
  Global_map.set pvm dst ~off:dst_off
    (Resident page [@chorus.alloc_ok "the moved page's global-map entry"]);
  rethread_pending_stubs pvm page;
  if not preserve then bump pvm.stats sc_moved_pages
