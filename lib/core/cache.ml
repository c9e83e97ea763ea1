(* Local-cache operations: the segment-access half of the GMI
   (Table 1: cacheCreate / copy / move) and the cache-management half
   (Table 4: fillUp / copyBack / moveBack / flush / sync / invalidate
   / setProtection / destroy). *)

open Types

let[@chorus.hot] create pvm ?backing () =
  Install.new_cache pvm ?backing ~anonymous:(backing = None) ~is_history:false
    ()

(* --- Purging a destination range --------------------------------- *)

(* Before a range of a cache is overwritten (by a new copy, a move, or
   destruction), every structure that still depends on its current
   contents must be satisfied:
   - per-page stubs reading through our resident pages get their own
     copies;
   - pending stubs whose deferred value lives in this range are
     materialised;
   - originals our history object has not yet saved are pushed to it
     (otherwise our descendants would observe the overwrite);
   then our own pages, stubs and incoming fragments in the range are
   dropped. *)

let own_pages_in_range (cache : cache) ~off ~size =
  List.filter
    (fun p -> p.p_offset >= off && p.p_offset < off + size)
    cache.c_pages

(* Materialise the stubs reading through [p], pinned meanwhile. *)
let[@chorus.hot] flush_pinned pvm (p : page) =
  Pervpage.wire p;
  match Pervpage.flush_stubs pvm p with
  | () -> Pervpage.unwire p
  | exception e ->
    Pervpage.unwire p;
    raise e

(* Does any per-page stub still read through this cache (pending keyed
   on it, or threaded on its pages)? *)
let[@chorus.noted
     "callers (the liveness rule) note the topology this emptiness test \
      decides on"] has_stub_readers (cache : cache) =
  Hashtbl.length cache.c_pending_offs > 0
  || List.exists (fun (p : page) -> p.p_cow_stubs <> []) cache.c_pages

(* Does nothing read this cache: no fragment child, no stub reader? *)
let[@chorus.noted "callers (the liveness rule) note the topology first"] unread
    (cache : cache) =
  Parents.children cache = [] && not (has_stub_readers cache)

(* Teardown's walkers: top-level, so a teardown builds no closure. *)
let[@chorus.hot] rec kill_stubs pvm = function
  | [] -> ()
  | s :: rest ->
    if s.cs_alive then Pervpage.kill pvm s;
    kill_stubs pvm rest

let[@chorus.hot] rec kill_destination_stubs pvm (cache : cache) budget =
  if budget = 0 then failwith "teardown: destination stubs not draining";
  match Install.dest_stubs cache with
  | [] -> ()
  | stubs ->
    kill_stubs pvm stubs;
    kill_destination_stubs pvm cache (budget - 1)

let[@chorus.hot] rec materialize_pending pvm (cache : cache) = function
  | [] -> ()
  | o :: rest ->
    Pervpage.materialize_pending pvm cache ~off:o;
    materialize_pending pvm cache rest

let[@chorus.hot] rec drop_pages pvm = function
  | [] -> ()
  | (p : page) :: rest ->
    if p.p_alive then begin
      if p.p_cow_stubs <> [] then flush_pinned pvm p;
      if p.p_alive then Install.remove_page pvm p ~free_frame:true
    end;
    drop_pages pvm rest

let[@chorus.hot] rec drain_pages pvm (cache : cache) budget =
  if budget = 0 then failwith "teardown: pages not draining";
  match cache.c_pages with
  | [] -> ()
  | pages ->
    drop_pages pvm pages;
    drain_pages pvm cache (budget - 1)

(* The liveness walk: the hidden caches that read [c], directly or
   through other hidden caches, [c] included, found backwards along
   reader edges — fragment children, then the destinations of the live
   stubs threaded on its pages, then those of its pending rows.  It
   raises [Read] at the first reader that keeps [c] alive: a visible
   cache, or a hidden one nothing reads.  The latter is being torn
   down, or is about to be by the rule that follows the loss of its
   last reader, and its teardown runs the rule again on what it
   reads. *)
exception Read

let[@chorus.noted "the liveness rule notes the topology before the walk"] readers
    pvm (c : cache) =
  let rec visit seen (c : cache) =
    if cache_visible c || (c.c_zombie && unread c) then raise_notrace Read
    else if (not c.c_alive) || List.memq c seen then seen
    else
      let seen = List.fold_left visit (c :: seen) (Parents.children c) in
      let seen =
        List.fold_left
          (fun seen (p : page) -> List.fold_left via seen p.p_cow_stubs)
          seen c.c_pages
      in
      List.fold_left
        (fun seen o ->
          match Frag_map.find_opt pvm.stub_sources c.c_id o with
          | Some stubs -> List.fold_left via seen stubs
          | None -> seen)
        seen (Install.pending_offsets c)
  and via seen s = if s.cs_alive then visit seen s.cs_cache else seen in
  visit [] c

(* Detach [cache]'s fragment links to parents it no longer references,
   and run the liveness rule on each parent it leaves. *)
let[@chorus.hot] rec detach_unreferenced pvm (cache : cache)
    ~parents_before =
  note_structure pvm;
  detach_parents pvm cache parents_before

and[@chorus.hot] [@chorus.noted
     "detach_unreferenced notes the topology before the walk"] detach_parents
    pvm (cache : cache) = function
  | [] -> ()
  | (parent : cache) :: rest ->
    if Parents.leave cache ~parent then begin
      History.child_detached parent cache;
      reap pvm parent
    end;
    detach_parents pvm cache rest

(* Fully dismantle a cache that nothing depends on any more. *)
and[@chorus.hot] teardown pvm (cache : cache) =
  assert (Parents.children cache = []);
  (* Stubs we are the destination of die first: they thread through
     OTHER caches' pages, and leaving them alive would let a cascaded
     teardown of those caches materialise pages back into us after our
     own page sweep.  Killing one may recursively tear down a hidden
     node and spawn further kills, so iterate to a fixpoint. *)
  kill_destination_stubs pvm cache 64;
  (* pending stubs reading through us get their values now *)
  materialize_pending pvm cache (Install.pending_offsets cache);
  (* drop our pages; flushing can insert new ones behind the
     iteration, so drain to a fixpoint *)
  drain_pages pvm cache 64;
  let parents_before = Parents.parents cache in
  Parents.detach_all cache;
  cache.c_alive <- false;
  cache.c_zombie <- false;
  note_structure pvm;
  unlink_cache pvm cache;
  detach_unreferenced pvm cache ~parents_before

(* The liveness rule (§4.2, §4.2.5), run wherever a hidden cache can
   lose a reader: a fragment child detached, a stub killed or
   materialised, the cache itself destroyed.  A hidden cache nothing
   reads is torn down.  One whose readers no visible cache reads
   either — a cycle through per-page stubs, which [move] can close —
   dies with them all at once, by trial deletion: the stubs destined
   to the set are dropped, which leaves it a forest of fragment
   children; the rule run on every member then tears the forest down
   from its leaves (each teardown runs it on the parents), and last
   on the stub sources outside the set. *)
and reap pvm (cache : cache) =
  note_structure ~write:false pvm;
  if cache.c_alive && cache.c_zombie then
    if unread cache then teardown pvm cache
    else
      match readers pvm cache with
      | exception Read -> ()
      | dead ->
        let sources = ref [] in
        List.iter
          (fun (c : cache) ->
            List.iter
              (fun s ->
                if s.cs_alive then begin
                  Pervpage.drop pvm s;
                  sources := Pervpage.source_cache_of s :: !sources
                end)
              (Install.dest_stubs c))
          dead;
        List.iter (reap pvm) dead;
        List.iter (reap pvm) !sources

(* Is a pending-stub row keyed on [cache] at some page offset in
   [o, last)?  Each probed offset is noted, as a read or a write. *)
let[@chorus.hot] rec pending_in pvm (cache : cache) ~write ~o ~last =
  o < last
  && begin
    if write then note_frag pvm cache ~off:o
    else note_frag ~write:false pvm cache ~off:o;
    Install.has_pending cache ~off:o
    || pending_in pvm cache ~write ~o:(o + page_size pvm) ~last
  end

(* Does anything still read the current contents of this range through
   the cache itself (rather than through a resident page)?  History
   children and other fragment children do; so do pending per-page
   stubs whose source key names this cache. *)
let[@chorus.hot] range_has_readers pvm (cache : cache) ~off ~size =
  Parents.range_read cache ~off ~size
  || pending_in pvm cache ~write:false ~o:(page_align_down pvm off)
       ~last:(page_align_up pvm (off + size))

(* Give the purged range a new hidden identity: a zombie history node
   [z] inherits the range's resident pages, parent fragments, child
   links, destination stubs and pending-stub keys — everything that
   encodes the range's {e old} contents — so existing readers are
   untouched while [cache] starts afresh.  This mirrors the problem
   Mach solves with shadow chains ("the actual reference of a cache
   changes dynamically", §4.2.5); our inverted structures make it a
   pointer splice. *)
let split_to_zombie pvm (cache : cache) ~off
    ~size =
  note_structure pvm;
  let z = Install.new_cache pvm ~anonymous:cache.c_anonymous ~is_history:true () in
  (* Old values already pushed to an anonymous swap are pulled back so
     they can migrate: z cannot share cache's swap offsets, future
     push-outs of new contents would clobber them.  Once the swap copy
     is forgotten the in-memory page is the only copy, so it is marked
     dirty and pinned until the migration below is done. *)
  let pinned = ref [] in
  let pin (p : page) =
    p.p_wire_count <- p.p_wire_count + 1;
    pinned := p :: !pinned
  in
  (* Pin every resident page of the range first: the swap pull-backs
     below allocate frames and must not be able to steal them. *)
  List.iter pin (own_pages_in_range cache ~off ~size);
  let ps = page_size pvm in
  let first = page_align_down pvm off in
  let n = (page_align_up pvm (off + size) - first) / ps in
  if cache.c_anonymous then
    for i = 0 to n - 1 do
      let o = first + (i * ps) in
      if Hashtbl.mem cache.c_backed_offs o then begin
        (match Global_map.wait_not_in_transit pvm cache ~off:o with
        | Some (Resident p) -> p.p_dirty <- true
        | None ->
          let p = Value.pull_own pvm cache ~off:o ~write:true in
          p.p_dirty <- true;
          pin p
        | Some (Cow_stub _) ->
          (* a deferred value shadows the swap copy; the swap copy is
             dead *)
          ()
        | Some (Sync_stub _) -> assert false);
        Hashtbl.remove cache.c_backed_offs o
      end
    done
  else z.c_backing <- cache.c_backing;
  (* Re-key pending stubs first so migrating pages re-thread them. *)
  for i = 0 to n - 1 do
    Install.rekey_pending pvm cache z ~off:(first + (i * ps))
  done;
  (* Migrate resident pages (frame reassignment, no copying). *)
  List.iter
    (fun (p : page) ->
      Install.reassign_page pvm ~preserve:true p z ~dst_off:p.p_offset)
    (own_pages_in_range cache ~off ~size);
  (* Migrate destination-side stubs: they are part of the range's old
     contents. *)
  for i = 0 to n - 1 do
    let o = first + (i * ps) in
    match Global_map.wait_not_in_transit pvm cache ~off:o with
    | Some (Cow_stub s) -> Install.rehome_stub pvm s z
    | _ -> ()
  done;
  (* Migrate parent fragments covering the range.  If this cache was a
     parent's history object over a migrated fragment, the history role
     moves to z: the parent's future originals belong to the old
     contents.  When the cache also reads that parent outside the
     range, it needs those originals too: a working cache is
     interposed instead, and the cache and z both read through it. *)
  let frags = Parents.frags cache in
  let outside (g : frag) = g.f_off < off || g.f_off + g.f_size > off + size in
  List.iter
    (fun f ->
      match f.f_parent.c_history with
      | Some h when h == cache && f.f_off < off + size && off < f.f_off + f.f_size
        ->
        if List.exists (fun g -> g.f_parent == f.f_parent && outside g) frags
        then ignore (History.insert_working_cache pvm f.f_parent)
        else f.f_parent.c_history <- Some z
      | Some _ | None -> ())
    frags;
  Parents.inherit_range cache ~dst:z ~off ~size;
  (* Children's fragments over the range read z; those left reading
     nothing of this cache stop being its children. *)
  List.iter
    (fun (child : cache) ->
      Parents.redirect child ~old_parent:cache ~new_parent:z ~off ~size;
      History.child_detached cache child)
    (Parents.children cache);
  List.iter (fun (p : page) -> p.p_wire_count <- p.p_wire_count - 1) !pinned;
  z

(* The purged range's contents change: every MMU translation of the
   window — including borrowed read mappings installed through
   per-page stubs, which no page descriptor of this cache records —
   must be invalidated so the next access faults onto the new
   contents. *)
let[@chorus.hot] [@chorus.spanned
     "runs under purge_range, whose callers (copy, move) open the span"] rec invalidate_regions
    pvm ~off ~size = function
  | [] -> ()
  | (region : region) :: rest ->
    let ps = page_size pvm in
    let lo = max off region.r_offset
    and hi = min (off + size) (region.r_offset + region.r_size) in
    if lo < hi then
      Pmap.edit_window pvm region Invalidate
        ~vpn:((region.r_addr + (lo - region.r_offset)) / ps)
        ~count:((hi - lo + ps - 1) / ps);
    invalidate_regions pvm ~off ~size rest

let[@chorus.hot] invalidate_window pvm (cache : cache) ~off ~size =
  note_structure pvm;
  invalidate_regions pvm ~off ~size cache.c_mappings

let[@chorus.hot] rec has_page_in (cache : cache) ~off ~size = function
  | [] -> false
  | (p : page) :: rest ->
    (p.p_cache == cache && p.p_offset >= off && p.p_offset < off + size)
    || has_page_in cache ~off ~size rest

(* Drop the pages of [pages], a snapshot of the cache's list, that lie
   in the range, materialising the stubs reading through them first. *)
let[@chorus.hot] rec remove_in_range pvm (cache : cache) ~off ~size = function
  | [] -> ()
  | (p : page) :: rest ->
    if
      p.p_cache == cache && p.p_offset >= off
      && p.p_offset < off + size
      && p.p_alive
    then begin
      if p.p_cow_stubs <> [] then flush_pinned pvm p;
      if p.p_alive then Install.remove_page pvm p ~free_frame:true
    end;
    remove_in_range pvm cache ~off ~size rest

(* Drop the range's pages.  Materialisation can evict pages and pull
   them back in behind the walk, so loop until the range is really
   empty. *)
let[@chorus.hot] rec drain_range pvm (cache : cache) ~off ~size budget =
  if budget = 0 then failwith "purge_range: pages not draining";
  let pages = cache.c_pages in
  if has_page_in cache ~off ~size pages then begin
    remove_in_range pvm cache ~off ~size pages;
    drain_range pvm cache ~off ~size (budget - 1)
  end

(* Draining may have evicted in-range pages, retargeting their threaded
   stubs into pending ones keyed on this cache; those still denote the
   old contents and must be materialised (from swap) before we forget
   them.  Materialising a pending stub pulls its source value back into
   this very range, so each round is followed by another page drain —
   otherwise the stale page stays behind and the caller's next insert
   at its offset silently orphans it (the descriptor lingers on
   [c_pages] with no global-map entry, its frame held forever). *)
let[@chorus.hot] rec drain_pending pvm (cache : cache) ~off ~size ~first ~last
    budget =
  if budget = 0 then failwith "purge_range: pending stubs not draining";
  if pending_in pvm cache ~write:true ~o:first ~last then begin
    let ps = page_size pvm in
    for i = 0 to ((last - first) / ps) - 1 do
      Pervpage.materialize_pending pvm cache ~off:(first + (i * ps))
    done;
    drain_range pvm cache ~off ~size 64;
    drain_pending pvm cache ~off ~size ~first ~last (budget - 1)
  end

let[@chorus.hot] purge_range pvm (cache : cache) ~off ~size =
  if size > 0 then begin
    note_structure pvm;
    invalidate_window pvm cache ~off ~size;
    if range_has_readers pvm cache ~off ~size then
      ignore (split_to_zombie pvm cache ~off ~size)
    else
      (* Nothing reads the old contents through the cache: drop them. *)
      drain_range pvm cache ~off ~size 64;
    let first = page_align_down pvm off
    and last = page_align_up pvm (off + size) in
    drain_pending pvm cache ~off ~size ~first ~last 64;
    (* Destination-side stubs left in the range die with the old
       contents (the zombie path migrated the ones that mattered), and
       swapped-out old contents are forgotten. *)
    let ps = page_size pvm in
    for i = 0 to ((last - first) / ps) - 1 do
      let o = first + (i * ps) in
      Hashtbl.remove cache.c_backed_offs o;
      match Global_map.wait_not_in_transit pvm cache ~off:o with
      | Some (Cow_stub s) -> Pervpage.kill pvm s
      | _ -> ()
    done;
    let parents_before = Parents.parents cache in
    Parents.remove_range cache ~off ~size;
    detach_unreferenced pvm cache ~parents_before
  end

(* --- Explicit data transfer (Table 1) ----------------------------- *)

let per_page_limit_pages = 8 (* 64 KB with 8 KB pages: the IPC slot size *)

(* One chunk of an eager copy: [chunk] bytes from [s] in [src] to [d]
   in [dst], within one page on each side.  The destination page stays
   pinned while the source lookup may allocate. *)
let[@chorus.hot] copy_chunk pvm ~(src : cache) ~s ~(dst : cache) ~d ~chunk =
  let s_page = page_align_down pvm s and d_page = page_align_down pvm d in
  let dp = Fault.own_writable_page pvm dst ~off:d_page in
  Pervpage.wire dp;
  match
    match Value.source_value pvm src ~off:s_page with
    | `Page sp ->
      (* no scheduling point between the lookup and the blit: [sp]
         cannot be reclaimed under it *)
      Bytes.blit sp.p_frame.Hw.Phys_mem.bytes (s - s_page)
        dp.p_frame.Hw.Phys_mem.bytes (d - d_page) chunk
    | `Zero -> Bytes.fill dp.p_frame.Hw.Phys_mem.bytes (d - d_page) chunk '\000'
  with
  | () -> Pervpage.unwire dp
  | exception e ->
    Pervpage.unwire dp;
    raise e

(* Copy [size] bytes eagerly through real memory, honouring page
   boundaries on both sides; works for any (mis)alignment. *)
let[@chorus.hot] [@chorus.spanned "runs under the copy/move span of its callers"] rec eager_copy_from
    pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size copied =
  if copied < size then begin
    let ps = page_size pvm in
    let s = src_off + copied and d = dst_off + copied in
    let chunk =
      min (size - copied)
        (min (page_align_down pvm s + ps - s) (page_align_down pvm d + ps - d))
    in
    copy_chunk pvm ~src ~s ~dst ~d ~chunk;
    charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
    bump pvm.stats sc_eager_pages;
    eager_copy_from pvm ~src ~src_off ~dst ~dst_off ~size (copied + chunk)
  end

let[@chorus.hot] eager_copy pvm ~src ~src_off ~dst ~dst_off ~size =
  eager_copy_from pvm ~src ~src_off ~dst ~dst_off ~size 0

let aligned3 pvm a b c =
  is_page_aligned pvm a && is_page_aligned pvm b && is_page_aligned pvm c

let ranges_overlap ~a_off ~b_off ~size = abs (a_off - b_off) < size

let strategy_name = function
  | `Eager -> "eager"
  | `Per_page -> "per-page"
  | `History -> "history"

let end_copy_span tr ~(src : cache) ~(dst : cache) ~size name =
  Obs.Trace.span_end tr
    ~args:
      [
        ("src", Obs.Trace.Int src.c_id);
        ("dst", Obs.Trace.Int dst.c_id);
        ("size", Obs.Trace.Int size);
        ("strategy", Obs.Trace.Str name);
      ]

(* Auto strategy follows §4.2/§4.3: history objects for large copies,
   per-virtual-page stubs for small ones, eager transfer when alignment
   forbids page tricks. *)
let[@chorus.hot] choose_strategy pvm strategy ~(src : cache) ~src_off
    ~(dst : cache) ~dst_off ~size =
  let aligned = aligned3 pvm src_off dst_off size in
  let chosen =
    match strategy with
    | `Auto ->
      if not aligned then `Eager
      else if size <= per_page_limit_pages * page_size pvm then `Per_page
      else `History
    | (`Eager | `History | `Per_page) as s ->
      if (not aligned) && s <> `Eager then
        invalid_arg "copy: deferred strategies need page alignment";
      s
  in
  (* Copying onto one of the source's own ancestors would close a
     cycle in the copy graph, and lookups could loop.  Unix workloads
     never do this; fall back to an eager copy when they would.
     (Hidden caches that end up reading each other — [move] can close
     such a cycle through a stub — are collected by the liveness
     rule.) *)
  if chosen <> `Eager && History.reachable ~from:src dst then `Eager
  else chosen

(* A per-page copy onto a purged range; a destination page a
   concurrent fault filled during the stubs' charges is purged again,
   with the rest of the range, and the copy resumes there. *)
let[@chorus.hot] rec per_page_copy pvm ~src ~src_off ~dst ~dst_off ~size =
  purge_range pvm dst ~off:dst_off ~size;
  let stubbed = Pervpage.setup_copy pvm ~src ~src_off ~dst ~dst_off ~size in
  if stubbed < size then
    per_page_copy pvm ~src ~src_off:(src_off + stubbed) ~dst
      ~dst_off:(dst_off + stubbed) ~size:(size - stubbed)

let[@chorus.hot] copy_with pvm chosen ~policy ~(src : cache) ~src_off
    ~(dst : cache) ~dst_off ~size =
  match chosen with
  | `Eager -> eager_copy pvm ~src ~src_off ~dst ~dst_off ~size
  | `Per_page -> per_page_copy pvm ~src ~src_off ~dst ~dst_off ~size
  | `History ->
    purge_range pvm dst ~off:dst_off ~size;
    History.record_copy pvm ~src ~src_off ~dst ~dst_off ~size ~policy

(* cache.copy (Table 1): copy data from a source cache to a
   destination cache, by the strategy [choose_strategy] picks.  The
   copy span closes on every path, naming the strategy once chosen. *)
let[@chorus.hot] copy pvm ?strategy ?policy ~(src : cache) ~src_off
    ~(dst : cache) ~dst_off ~size () =
  let strategy = match strategy with Some s -> s | None -> `Auto in
  let policy = match policy with Some p -> p | None -> `Copy_on_write in
  check_cache_alive src;
  check_cache_alive dst;
  if size < 0 then invalid_arg "copy: negative size";
  if src == dst && ranges_overlap ~a_off:src_off ~b_off:dst_off ~size then
    invalid_arg "copy: overlapping ranges within one cache";
  if size > 0 then begin
    let tr = Hw.Engine.tracer pvm.engine in
    let traced = Obs.Trace.enabled tr in
    if traced then Obs.Trace.span_begin tr ~cat:"vm" "copy";
    match choose_strategy pvm strategy ~src ~src_off ~dst ~dst_off ~size with
    | exception e ->
      if traced then end_copy_span tr ~src ~dst ~size "?";
      raise e
    | chosen -> (
      match copy_with pvm chosen ~policy ~src ~src_off ~dst ~dst_off ~size with
      | () ->
        if traced then end_copy_span tr ~src ~dst ~size (strategy_name chosen)
      | exception e ->
        if traced then end_copy_span tr ~src ~dst ~size (strategy_name chosen);
        raise e)
  end

(* A page move writes its destination row after a charge, so it reads
   the row again first: a page a concurrent fault made there meanwhile
   is purged before the row goes in, not orphaned under it. *)

(* The row of a stub re-targeted to (dst, d_off).  A stub materialised
   meanwhile already holds its page there. *)
let[@chorus.hot] rec put_moved_stub pvm (s : cow_stub) entry ~(dst : cache)
    ~d_off =
  if s.cs_alive then
    match Global_map.wait_not_in_transit pvm dst ~off:d_off with
    | None ->
      Install.put_stub pvm entry;
      bump pvm.stats sc_moved_pages
    | Some _ ->
      purge_range pvm dst ~off:d_off ~size:(page_size pvm);
      put_moved_stub pvm s entry ~dst ~d_off

let movable (p : page) = p.p_cow_stubs = [] && not p.p_cow_protected

(* One page of an aligned move: a resident page moves by frame
   reassignment, a still-deferred value by re-targeting its stub;
   anything else has its value copied, and the source keeps its old
   page (its contents are undefined after a move).  A resident page
   moves once its translations are gone; the unmaps are charged too, so
   the page is read again after them, and the offset's move restarts
   when it changed. *)
let[@chorus.hot] [@chorus.spanned "runs under the move span opened by move"] rec move_page
    pvm ~(src : cache) ~o ~(dst : cache) ~d_off =
  match Global_map.wait_not_in_transit pvm src ~off:o with
  | Some (Resident p) when movable p ->
    charge pvm Hw.Cost.Mmu_map;
    move_resident pvm p ~src ~o ~dst ~d_off
  | Some (Cow_stub s as entry) when Parents.history_off src ~off:o < 0 ->
    (* a still-deferred value moves by re-targeting the stub — unless a
       history child snapshots the source, in which case the stub must
       stay (the fallback below copies) *)
    Install.remove_stub pvm s;
    s.cs_cache <- dst;
    s.cs_offset <- d_off;
    charge pvm Hw.Cost.Stub_insert;
    put_moved_stub pvm s entry ~dst ~d_off
  | entry -> (
    match Value.source_value_at pvm src ~off:o entry with
    | `Page sp ->
      Pervpage.wire sp;
      (match
         let dp = Fault.own_writable_page pvm dst ~off:d_off in
         charge pvm Hw.Cost.Bcopy_page;
         Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:dp.p_frame
       with
      | () -> Pervpage.unwire sp
      | exception e ->
        Pervpage.unwire sp;
        raise e);
      bump pvm.stats sc_eager_pages
    | `Zero -> ())

and[@chorus.hot] move_resident pvm (p : page) ~src ~o ~dst ~d_off =
  Pmap.unmap_all pvm p;
  match Global_map.wait_not_in_transit pvm dst ~off:d_off with
  | Some _ ->
    purge_range pvm dst ~off:d_off ~size:(page_size pvm);
    move_resident pvm p ~src ~o ~dst ~d_off
  | None ->
    if not (p.p_alive && p.p_cache == src && p.p_offset = o && movable p)
    then move_page pvm ~src ~o ~dst ~d_off
    else if p.p_mappings <> [] then move_resident pvm p ~src ~o ~dst ~d_off
    else begin
      Install.reassign_page pvm p dst ~dst_off:d_off;
      p.p_dirty <- true
    end

let[@chorus.hot] [@chorus.spanned "runs under the move span opened by move"] move_range
    pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size =
  if aligned3 pvm src_off dst_off size then begin
    purge_range pvm dst ~off:dst_off ~size;
    let ps = page_size pvm in
    for i = 0 to (size / ps) - 1 do
      move_page pvm ~src ~o:(src_off + (i * ps)) ~dst ~d_off:(dst_off + (i * ps))
    done
  end
  else eager_copy pvm ~src ~src_off ~dst ~dst_off ~size

(* cache.move (Table 1): like copy but the source contents become
   undefined, letting resident pages move by frame reassignment
   whenever alignment allows. *)
let[@chorus.hot] move pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off
    ~size () =
  check_cache_alive src;
  check_cache_alive dst;
  if src == dst && ranges_overlap ~a_off:src_off ~b_off:dst_off ~size then
    invalid_arg "move: overlapping ranges within one cache";
  if size > 0 then begin
    let tr = Hw.Engine.tracer pvm.engine in
    let traced = Obs.Trace.enabled tr in
    if traced then Obs.Trace.span_begin tr ~cat:"vm" "move";
    match move_range pvm ~src ~src_off ~dst ~dst_off ~size with
    | () -> if traced then Obs.Trace.span_end tr
    | exception e ->
      if traced then span_raise tr e;
      raise e
  end

(* --- Cache management (Table 4) ----------------------------------- *)

(* fillUp: provide data to the cache (performed by segment managers,
   and by the PVM itself while resolving pullIn). *)
let fill_up pvm (cache : cache) ~offset ?pos ?len bytes =
  check_cache_alive cache;
  (* For an anonymous cache the data exists nowhere else, so it must
     be considered modified; for a segment-backed cache the segment
     manager is providing authoritative (clean) data. *)
  Value.deliver pvm cache ~offset ?pos ?len bytes ~prot:Hw.Prot.read_write
    ~dirty:cache.c_anonymous

(* Explicit write access through the cache (the read/write half of the
   unified segment interface, §3.2): byte-granular, resolving deferred
   state exactly like a mapped store would. *)
let write_through pvm (cache : cache) ~offset bytes =
  check_cache_alive cache;
  spanned pvm "writeThrough" @@ fun () ->
  let ps = page_size pvm in
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let o = offset + done_ in
      let o_page = page_align_down pvm o in
      let chunk = min (len - done_) (o_page + ps - o) in
      let p = Fault.own_writable_page pvm cache ~off:o_page in
      (* no scheduling point between the resolution and the blit *)
      Bytes.blit bytes done_ p.p_frame.Hw.Phys_mem.bytes (o - o_page) chunk;
      charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
      go (done_ + chunk)
    end
  in
  go 0

(* copyBack: read the cache's current logical contents. *)
let copy_back pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  spanned pvm "copyBack" @@ fun () ->
  let ps = page_size pvm in
  let out = Bytes.create size in
  let rec go done_ =
    if done_ < size then begin
      let o = offset + done_ in
      let o_page = page_align_down pvm o in
      let chunk = min (size - done_) (o_page + ps - o) in
      (match Value.source_value pvm cache ~off:o_page with
      | `Page p ->
        Bytes.blit p.p_frame.Hw.Phys_mem.bytes (o - o_page) out done_ chunk
      | `Zero -> Bytes.fill out done_ chunk '\000');
      charge_span pvm Hw.Cost.Bcopy_page (pvm.cost.t_bcopy_page * chunk / ps);
      go (done_ + chunk)
    end
  in
  go 0;
  out

(* moveBack: copyBack, then drop the cache's own pages in the range
   (used while handling pushOut to avoid double buffering). *)
let move_back pvm (cache : cache) ~offset ~size =
  let out = copy_back pvm cache ~offset ~size in
  List.iter
    (fun (p : page) ->
      if p.p_cow_stubs <> [] then
        flush_pinned pvm p;
      if p.p_alive && not p.p_cow_protected then
        Install.remove_page pvm p ~free_frame:true)
    (own_pages_in_range cache ~off:offset ~size);
  out

(* sync: save modified data to the segment, keeping it cached. *)
let sync pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if p.p_dirty then Pager.push_out pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* sync the whole cache, whatever its extent. *)
let sync_all pvm (cache : cache) =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if p.p_dirty then Pager.push_out pvm p)
    cache.c_pages

(* flush: save modified data and release the real memory. *)
let flush pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) -> if Pager.can_evict pvm p then Pager.evict pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* invalidate: discard cached data without saving it; the segment is
   authoritative (used by coherence protocols).  Stubs reading through
   the discarded pages are materialised first. *)
let invalidate pvm (cache : cache) ~offset ~size =
  check_cache_alive cache;
  List.iter
    (fun (p : page) ->
      if p.p_cow_stubs <> [] then
        flush_pinned pvm p;
      if p.p_alive && p.p_wire_count = 0 then
        Install.remove_page pvm p ~free_frame:true)
    (own_pages_in_range cache ~off:offset ~size)

(* setProtection on cached data: caps the access mode of the resident
   pages; a later write re-requests access through getWriteAccess. *)
let set_protection pvm (cache : cache) ~offset ~size prot =
  check_cache_alive cache;
  List.iter
    (fun (p : page) ->
      p.p_pulled_prot <- prot;
      Pmap.refresh_prot pvm p)
    (own_pages_in_range cache ~off:offset ~size)

(* cacheDestroy: drop the binding.  If descendants still read through
   this cache it lingers as a hidden history node (§4.2.5 discussion),
   which no GMI call accepts any more; the liveness rule decides at
   once whether a visible cache still reads it, and again whenever it
   loses a reader. *)
let[@chorus.hot] destroy pvm (cache : cache) =
  check_cache_alive cache;
  note_structure pvm;
  if cache.c_mappings <> [] then
    invalid_arg "cacheDestroy: regions still map this cache";
  if Parents.children cache = [] then teardown pvm cache
  else begin
    cache.c_zombie <- true;
    cache.c_is_history <- true;
    reap pvm cache
  end;
  note_structure pvm

let mapping_count (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  List.length cache.c_mappings
let is_alive = cache_visible

(* The liveness rule behind stub death ([Pervpage.reap_source]), which
   sits below this module.  Installed on every PVM instance at
   creation. *)
let install_reaper pvm =
  pvm.zombie_reaper <-
    Some
      (fun cache ->
        note_structure pvm;
        reap pvm cache);
  pvm
