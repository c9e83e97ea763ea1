(* Frame allocation and page-out.

   The data-management policy (page-in / page-out decisions) belongs
   to the memory manager below the GMI (paper §3.3.3).  We reclaim in
   FIFO order over the PVM-wide queue; a victim's data is saved with a
   pushOut upcall to its segment, anonymous caches first being
   declared to the upper layer through the segmentCreate hook so they
   can be given a swap segment (paper Table 3, [segmentCreate];
   §5.1.2: "the segment manager waits for the first pushOut upcall for
   such a temporary cache to allocate it a swap temporary segment"). *)

open Types

module For_testing = struct
  (* Reintroduces the pre-sanitizer eviction race for the explorer's
     mutation suite: [evict] pays a charge (a scheduling point) BEFORE
     claiming its victim with a synchronization stub, re-opening the
     window in which a concurrent allocator can elect the same victim
     (double remove / double free).  Never set outside tests. *)
  let evict_claim_late = ref false
end

(* One trace span around a pager upcall/eviction, closed on the way
   out even when the segment fails. *)
let spanned pvm ~name ~args body =
  let tr = Hw.Engine.tracer pvm.engine in
  if not (Obs.Trace.enabled tr) then body ()
  else begin
    Obs.Trace.span_begin tr ~cat:"pager" name;
    match body () with
    | v ->
      Obs.Trace.span_end tr ~args;
      v
    | exception e ->
      Obs.Trace.span_end tr ~args:(("ok", Obs.Trace.Str "false") :: args);
      raise e
  end

(* Give an anonymous cache a backing via the segmentCreate hook, if
   the upper layer installed one. *)
let ensure_backing pvm (cache : cache) =
  match cache.c_backing with
  | Some b -> Some b
  | None -> (
    match pvm.segment_create_hook with
    | None -> None
    | Some hook ->
      let backing = hook cache in
      cache.c_backing <- backing;
      backing)

let can_evict pvm (page : page) =
  page.p_wire_count = 0
  && (match Global_map.peek pvm page.p_cache ~off:page.p_offset with
     | Some (Resident p) -> p == page (* not already in transit *)
     | _ -> false)
  && ((not page.p_dirty)
     || page.p_cache.c_backing <> None
     || pvm.segment_create_hook <> None)

(* Save a dirty page to its segment, keeping it resident ([sync]
   semantics).  While the push is in progress the global-map entry is
   a synchronization stub, so concurrent access to the fragment
   sleeps. *)
let push_out pvm (page : page) =
  let cache = page.p_cache and off = page.p_offset in
  bump pvm.stats sc_push_outs;
  (* Claim the fragment before the first scheduling point: the
     segmentCreate upcall below may charge or block, and until the
     synchronization stub is in the map a concurrent allocator could
     still elect this page for eviction (§3.3.3). *)
  let cond = Global_map.insert_sync_stub pvm cache ~off in
  match ensure_backing pvm cache with
  | None ->
    Global_map.finish_sync_stub pvm cache ~off cond (Some (Resident page));
    invalid_arg "Pager.push_out: cache has no backing"
  | Some backing ->
    spanned pvm ~name:"pushOut"
      ~args:
        [
          ("segment", Str backing.Gmi.b_name);
          ("cache", Int cache.c_id);
          ("off", Int off);
        ]
    @@ fun () ->
    let copy_back ~offset ~size =
      assert (offset >= off && offset + size <= off + page_size pvm);
      Hw.Phys_mem.read page.p_frame ~off:(offset - off) ~len:size
    in
    (* whatever the mapper does, the page must come back out of the
       in-transit state, or waiters sleep forever *)
    Fun.protect
      ~finally:(fun () ->
        Global_map.finish_sync_stub pvm cache ~off cond
          (Some (Resident page)))
      (fun () ->
        backing.b_push_out ~offset:off ~size:(page_size pvm) ~copy_back;
        if cache.c_anonymous then Install.index_backed cache ~off;
        page.p_dirty <- false;
        (* back to read-only mappings so the next store re-dirties *)
        Pmap.refresh_prot pvm page)

(* Steal [page]'s frame, in two halves.  [claim_evict] elects and
   claims the victim before any scheduling point, so no other fibre
   can elect it too; [complete_evict] does the (possibly blocking) save
   and removal, where a segment pushOut may park the fibre.  A dirty
   victim is first saved to its segment; the frame is freed
   before the (possibly slow) pushOut completes, working from a
   snapshot, so allocation latency does not include segment I/O
   twice. *)
let[@chorus.spanned
     "the only charge here is the evict_claim_late fault-injection knob; \
      real eviction costs land inside complete_evict's evict span"]
    claim_evict pvm (page : page) =
  assert (can_evict pvm page);
  bump pvm.stats sc_evictions;
  note_frames pvm;
  Install.retarget_stubs pvm page;
  let cache = page.p_cache and off = page.p_offset in
  (* Claim the victim before the first scheduling point (nothing above
     this line charges): [remove_page] and the segmentCreate upcall
     both yield inside charged primitives, and until the resident
     entry is replaced by a synchronization stub a concurrent
     allocator can elect the same victim (double-freeing its frame)
     and a concurrent fault can map the dying page (§3.3.3). *)
  if !For_testing.evict_claim_late then charge pvm Hw.Cost.Stub_insert;
  Global_map.claim_sync_stub pvm cache ~off

let complete_evict pvm (page : page) cond =
  let cache = page.p_cache and off = page.p_offset in
  spanned pvm ~name:"evict"
    ~args:
      [
        ("cache", Int cache.c_id);
        ("off", Int off);
        ("dirty", Str (if page.p_dirty then "true" else "false"));
      ]
  @@ fun () ->
  if page.p_dirty then begin
    match ensure_backing pvm cache with
    | None ->
      Global_map.finish_sync_stub pvm cache ~off cond
        (Some (Resident page));
      invalid_arg "Pager.evict: dirty page with no backing"
    | Some backing ->
      bump pvm.stats sc_push_outs;
      charge pvm Hw.Cost.Stub_insert;
      let ps = page_size pvm in
      let snapshot = Hw.Phys_mem.read page.p_frame ~off:0 ~len:ps in
      Install.remove_page pvm page ~free_frame:true;
      let copy_back ~offset ~size =
        assert (offset >= off && offset + size <= off + ps);
        (* [b_push_out] asks for the whole page: the snapshot is
           private to this eviction, so hand it over uncopied *)
        if size = ps then snapshot else Bytes.sub snapshot (offset - off) size
      in
      (* a failing swap device loses the page (as on real hardware);
         the error propagates, but waiters must not hang *)
      Fun.protect
        ~finally:(fun () ->
          Global_map.finish_sync_stub pvm cache ~off cond None)
        (fun () ->
          backing.b_push_out ~offset:off ~size:ps ~copy_back;
          if cache.c_anonymous then Install.index_backed cache ~off)
  end
  else begin
    Install.remove_page pvm page ~free_frame:true;
    Global_map.finish_sync_stub pvm cache ~off cond None
  end

let evict pvm (page : page) =
  let cond = claim_evict pvm page in
  complete_evict pvm page cond

(* The FIFO victim walk: the oldest evictable page at or after queued
   frame [i].  One O(1) queue step per page passed over (wired or in
   transit), and the [Some] returned is the frame registry's own, so
   nothing is allocated. *)
let[@chorus.hot] [@chorus.noted
     "the victim walk: its callers note the frame pool before it"] rec evictable_from
    pvm i =
  if i < 0 then None
  else
    match pvm.page_of_frame.(i) with
    | Some page as victim when can_evict pvm page -> victim
    | Some _ | None -> evictable_from pvm (Reclaim.newer pvm.reclaim i)

let[@chorus.hot] [@chorus.noted
     "the victim walk: its callers note the frame pool before it"] oldest_evictable
    pvm =
  evictable_from pvm (Reclaim.oldest pvm.reclaim)

(* Background page-out: the data-management policy the paper places
   below the GMI can also run asynchronously.  The daemon keeps free
   memory between watermarks so allocations rarely pay for eviction
   (and its pushOut latency) synchronously.  Like [reclaim_for_frame],
   it elects and claims each victim in one step and then completes the
   eviction. *)
let rec daemon_reclaim pvm ~high_water =
  note_frames pvm;
  if Hw.Phys_mem.free_frames pvm.mem < high_water then
    match oldest_evictable pvm with
    | None -> ()
    | Some victim ->
      let cond = claim_evict pvm victim in
      complete_evict pvm victim cond;
      daemon_reclaim pvm ~high_water

let rec daemon_loop pvm ~low_water ~high_water ~period =
  Hw.Engine.sleep period;
  if Hw.Phys_mem.free_frames pvm.mem < low_water then
    daemon_reclaim pvm ~high_water;
  daemon_loop pvm ~low_water ~high_water ~period

let start_daemon pvm ~low_water ~high_water ~period =
  if low_water >= high_water then invalid_arg "Pager.start_daemon: watermarks";
  Hw.Engine.spawn pvm.engine ~name:"pageout-daemon" ~daemon:true (fun () ->
      daemon_loop pvm ~low_water ~high_water ~period)

let transfer_in_flight pvm =
  (* the in-flight transfer with the smallest (cache id, offset): the
     map's fold order is unspecified, the choice must not be *)
  (Frag_map.fold
     (fun cid off entry acc ->
       match (entry, acc) with
       | Sync_stub cond, None -> Some (cid, off, cond)
       | Sync_stub cond, Some (c, o, _) when cid < c || (cid = c && off < o) ->
         Some (cid, off, cond)
       | (Sync_stub _ | Resident _ | Cow_stub _), _ -> acc)
     pvm.gmap None
  |> Option.map (fun (_, _, cond) -> cond))
  [@chorus.noted
    "last-resort scan for any in-flight transfer when the pool and the \
     reclaim queue are both empty; key-set footprints cannot express a \
     whole-table read — see DESIGN.md §4f"]

(* Block until the in-flight transfer behind [cond] completes, then
   retry: under contention every unwired page can be mid-transfer at
   once, and each such transfer either frees a frame (eviction) or
   makes its page evictable again when it completes, so this is
   pressure, not exhaustion.  (Not a plain yield: the clock only
   advances once this fibre genuinely sleeps.) *)
let await_transfer pvm cond =
  Hw.Engine.declare_wait pvm.engine ~on:"frame"
    ~owner:(Hw.Engine.Cond.owner cond) ();
  pvm.stub_sleeps <- pvm.stub_sleeps + 1;
  Hw.Engine.Cond.await_unfinished cond

(* The slow path of [alloc_frame], entered only when the frame pool is
   empty: evict FIFO victims, or block on an in-flight transfer when
   every unwired page is mid-transfer at once.  Victim election and
   the claim are one step, before any scheduling point; the blocking
   halves (completing an eviction, waiting out a transfer) follow it.
   The eviction path allocates only what it keeps: the claim's
   condition and the eviction's own records. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the spans of every allocation path (fault, copy, \
      history-materialise, pager upcalls)"] rec reclaim_for_frame pvm =
  note_frames pvm;
  let i = Hw.Phys_mem.alloc_index pvm.mem in
  if i >= 0 then Hw.Phys_mem.frame pvm.mem i
  else
    match oldest_evictable pvm with
    | Some victim ->
      let cond = claim_evict pvm victim in
      complete_evict pvm victim cond;
      reclaim_for_frame pvm
    | None -> (
      (* nothing evictable: wait out a transfer, or give up *)
      match transfer_in_flight pvm with
      | Some cond ->
        await_transfer pvm cond;
        reclaim_for_frame pvm
      | None -> raise Gmi.No_memory)

(* Allocate a frame, reclaiming FIFO victims when physical memory is
   exhausted. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the spans of every allocation path (fault, copy, \
      history-materialise, pager upcalls)"] alloc_frame pvm =
  note_frames pvm;
  charge pvm Hw.Cost.Frame_alloc;
  (* taking a frame by index allocates nothing *)
  let i = Hw.Phys_mem.alloc_index pvm.mem in
  if i >= 0 then Hw.Phys_mem.frame pvm.mem i else reclaim_for_frame pvm

(* --- Making a page ------------------------------------------------ *)

(* What a new page holds, and its destination as the caller last read
   it (see pager.mli). *)
type source = [ `Zero | `Page of page | `Data of Bytes.t * int ]
type slot = Vacant | Original | Peeked of entry option | Stub of cow_stub

(* The one maker of pages (§4.1.2, §4.2, §4.3).  Pin the source,
   allocate a frame, pay the zero or copy charge, fill, unpin.  The
   rule for inserts: read the destination after the last charge, never
   before.  So only now check that the cache is alive, the slot holds
   what [slot] says, and a replaced stub is alive and still destined
   there; then insert.  Otherwise free the frame, charged as a lost
   race, and return [None]: the caller settles on what won, or on the
   destruction.  The source is a value, never a closure, so the maker
   allocates only the page it keeps. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the span of every page-making path (fault, copy, \
      history-materialise, fillUp)"] make_page pvm (cache : cache) ~off slot
    (source : source) ~prot ~protect ~dirty =
  let frame =
    match source with
    | `Zero ->
      let frame = alloc_frame pvm in
      charge pvm Hw.Cost.Bzero_page;
      Hw.Phys_mem.bzero frame;
      frame
    | `Data (bytes, pos) ->
      let frame = alloc_frame pvm in
      Bytes.blit bytes pos frame.Hw.Phys_mem.bytes 0 (page_size pvm);
      frame
    | `Page sp -> (
      sp.p_wire_count <- sp.p_wire_count + 1;
      match
        let frame = alloc_frame pvm in
        charge pvm Hw.Cost.Bcopy_page;
        Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:frame;
        frame
      with
      | frame ->
        sp.p_wire_count <- sp.p_wire_count - 1;
        frame
      | exception e ->
        sp.p_wire_count <- sp.p_wire_count - 1;
        raise e)
  in
  (match slot with
  | Original -> charge pvm Hw.Cost.Stub_insert
  | Vacant | Peeked _ | Stub _ -> ());
  let fits =
    cache.c_alive
    &&
    match slot with
    | Vacant | Original -> true
    | Peeked before -> (
      match Global_map.peek pvm cache ~off with
      | None -> Option.is_none before
      | Some (Sync_stub c') -> (
        match before with Some (Sync_stub c) -> c == c' | _ -> false)
      | Some (Resident _ | Cow_stub _) -> false)
    | Stub stub ->
      stub.cs_alive && stub.cs_cache == cache && stub.cs_offset = off
  in
  let inserted =
    if not fits then None
    else begin
      (match slot with
      | Stub stub ->
        Install.unthread pvm stub;
        Install.remove_stub pvm stub
      | Vacant | Original | Peeked _ -> ());
      Install.insert_page pvm cache ~off frame ~pulled_prot:prot
        ~cow_protected:(protect && Parents.history_off cache ~off >= 0)
        ~fresh:
          (match slot with
          | Vacant | Original -> true
          | Peeked _ | Stub _ -> false)
    end
  in
  match inserted with
  | Some page ->
    page.p_dirty <- dirty;
    inserted
  | None ->
    note_frames pvm;
    charge pvm Hw.Cost.Frame_free;
    Hw.Phys_mem.free pvm.mem frame;
    None
