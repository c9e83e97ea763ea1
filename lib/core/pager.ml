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

(* Retarget per-virtual-page stubs still reading through [page] to the
   (cache, offset) form: the data stays reachable through the segment
   once the page is gone (paper §4.3). *)
let retarget_stubs pvm (page : page) =
  let stubs = List.filter (fun s -> s.cs_alive) page.p_cow_stubs in
  page.p_cow_stubs <- [];
  List.iter
    (fun s ->
      s.cs_source <- Src_cache (page.p_cache, page.p_offset);
      Install.add_pending_stub pvm ~src_cache:page.p_cache
        ~src_off:page.p_offset s)
    stubs

(* Save a dirty page to its segment, keeping it resident ([sync]
   semantics).  While the push is in progress the global-map entry is
   a synchronization stub, so concurrent access to the fragment
   sleeps. *)
let push_out pvm (page : page) =
  let cache = page.p_cache and off = page.p_offset in
  bump pvm.stats.sc_push_outs;
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
        if cache.c_anonymous then Hashtbl.replace cache.c_backed_offs off ();
        page.p_dirty <- false;
        (* back to read-only mappings so the next store re-dirties *)
        Pmap.refresh_prot pvm page)

(* Steal [page]'s frame, in two halves.  [claim_evict] elects and
   claims the victim — on the parallel engine it runs under the mm
   lock, so election and claim are one atomic step against concurrent
   allocators; [complete_evict] does the (possibly blocking) save and
   removal OUTSIDE that lock, because a segment pushOut may park the
   fibre and a parked fibre must not carry a mutex away with it.  A
   dirty victim is first saved to its segment; the frame is freed
   before the (possibly slow) pushOut completes, working from a
   snapshot, so allocation latency does not include segment I/O
   twice. *)
let[@chorus.spanned
     "the only charge here is the evict_claim_late fault-injection knob; \
      real eviction costs land inside complete_evict's evict span"]
    claim_evict pvm (page : page) =
  assert (can_evict pvm page);
  bump pvm.stats.sc_evictions;
  note_frames pvm;
  retarget_stubs pvm page;
  let cache = page.p_cache and off = page.p_offset in
  (* Claim the victim before the first scheduling point (nothing above
     this line charges): [remove_page] and the segmentCreate upcall
     both yield inside charged primitives, and until the resident
     entry is replaced by a synchronization stub a concurrent
     allocator can elect the same victim (double-freeing its frame)
     and a concurrent fault can map the dying page (§3.3.3). *)
  let cond = Hw.Engine.Cond.create () in
  Hw.Engine.Cond.set_owner cond (Hw.Engine.current_fibre pvm.engine);
  if !For_testing.evict_claim_late then charge pvm Hw.Cost.Stub_insert;
  Global_map.set pvm cache ~off (Sync_stub cond);
  cond

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
      bump pvm.stats.sc_push_outs;
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
          if cache.c_anonymous then Hashtbl.replace cache.c_backed_offs off ())
  end
  else begin
    Install.remove_page pvm page ~free_frame:true;
    Global_map.finish_sync_stub pvm cache ~off cond None
  end

let evict pvm (page : page) =
  let cond = claim_evict pvm page in
  complete_evict pvm page cond

(* Background page-out: the data-management policy the paper places
   below the GMI can also run asynchronously.  The daemon keeps free
   memory between watermarks so allocations rarely pay for eviction
   (and its pushOut latency) synchronously. *)
let start_daemon pvm ~low_water ~high_water ~period =
  if low_water >= high_water then invalid_arg "Pager.start_daemon: watermarks";
  Hw.Engine.spawn pvm.engine ~name:"pageout-daemon" ~daemon:true (fun () ->
      let rec loop () =
        Hw.Engine.sleep period;
        let rec reclaim () =
          note_frames pvm;
          if Hw.Phys_mem.free_frames pvm.mem < high_water then
            match Fifo.find_opt (can_evict pvm) pvm.reclaim with
            | Some victim ->
              evict pvm victim;
              reclaim ()
            | None -> ()
        in
        if Hw.Phys_mem.free_frames pvm.mem < low_water then reclaim ();
        loop ()
      in
      loop ())

let transfer_in_flight pvm =
  (Shard_map.fold
     (fun _ entry acc ->
       match (acc, entry) with
       | Some _, _ -> acc
       | None, Sync_stub cond -> Some cond
       | None, (Resident _ | Cow_stub _) -> None)
     pvm.gmap None)
  [@chorus.noted
    "last-resort scan for any in-flight transfer when the pool and the \
     reclaim queue are both empty; key-set footprints cannot express a \
     whole-table read — see DESIGN.md §4f"]

(* The slow path of [alloc_frame], entered only when the frame pool is
   empty: evict FIFO victims, or block on an in-flight transfer when
   every unwired page is mid-transfer at once.  Cold by construction,
   so unlike [alloc_frame] it may allocate freely. *)
let[@chorus.spanned
     "runs under the spans of every allocation path (fault, copy, \
      history-materialise, pager upcalls)"] rec reclaim_for_frame pvm =
  note_frames pvm;
  (* Allocation retry, victim election and the claim are one atomic
     step under the mm lock on the parallel engine (transparent on the
     oracle path); the blocking halves — completing an eviction,
     waiting out a transfer — happen outside it. *)
  let next =
    with_mm pvm (fun () ->
        match Hw.Phys_mem.alloc_opt pvm.mem with
        | Some frame -> `Frame frame
        | None -> (
          match Fifo.find_opt (can_evict pvm) pvm.reclaim with
          | Some victim -> `Evict (victim, claim_evict pvm victim)
          | None -> (
            match transfer_in_flight pvm with
            | Some cond -> `Wait cond
            | None -> `Exhausted)))
  in
  match next with
  | `Frame frame -> frame
  | `Evict (victim, cond) ->
    complete_evict pvm victim cond;
    reclaim_for_frame pvm
  | `Wait cond ->
    (* Under contention every unwired page can be mid-transfer at
       once; each such transfer either frees a frame (eviction) or
       makes its page evictable again when it completes, so this
       is pressure, not exhaustion: block until one finishes and
       retry.  (Not a plain yield — the clock only advances once
       this fibre genuinely sleeps.) *)
    Hw.Engine.declare_wait pvm.engine ~on:"frame"
      ~owner:(Hw.Engine.Cond.owner cond) ();
    Atomic.incr pvm.stub_sleeps;
    Hw.Engine.Cond.await_unfinished cond;
    reclaim_for_frame pvm
  | `Exhausted -> raise Gmi.No_memory

(* Allocate a frame, reclaiming FIFO victims when physical memory is
   exhausted. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the spans of every allocation path (fault, copy, \
      history-materialise, pager upcalls)"] alloc_frame pvm =
  note_frames pvm;
  charge pvm Hw.Cost.Frame_alloc;
  (* the explicit lock halves: a [with_mm] closure here would be a
     per-fault allocation, and [alloc_opt] cannot raise *)
  mm_enter pvm;
  let frame = Hw.Phys_mem.alloc_opt pvm.mem in
  mm_exit pvm;
  match frame with
  | Some frame -> frame
  | None -> reclaim_for_frame pvm
