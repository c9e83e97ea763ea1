(* Per-virtual-page deferred copy (paper §4.3).

   For small copies (typically IPC messages) the PVM does not build a
   history tree; instead every destination page gets a copy-on-write
   page stub in the global map.  A stub points at the source page
   descriptor when the source is resident (and is threaded on that
   page's stub list, so the source page is readable through every
   cache it was copied to), or at the source (cache, offset) pair when
   it is not. *)

open Types

(* Pin [page]'s frame so a frame allocation cannot steal it, and
   release the pin.  Explicit halves rather than a closure-taking
   wrapper: the hot paths pair them around a [match ... with exception]
   so the count drops on every path without a per-call closure. *)
let[@chorus.hot] wire (page : page) = page.p_wire_count <- page.p_wire_count + 1
let[@chorus.hot] unwire (page : page) = page.p_wire_count <- page.p_wire_count - 1

let source_cache_of (stub : cow_stub) =
  match stub.cs_source with Src_page p -> p.p_cache | Src_cache (c, _) -> c

(* A dead stub may have been the last reader of a hidden history
   cache: run the liveness rule on it. *)
let reap_source pvm (source : cache) =
  match pvm.zombie_reaper with
  | Some reap -> reap source
  | None -> ()

(* Materialise [stub]: give the destination its own page holding the
   deferred value, replacing the stub in the global map, then run the
   liveness rule on the caches the stub read and was destined to.
   [None] when the stub died, moved or lost its cache while the page
   was made: then nothing is kept. *)
let[@chorus.spanned
     "runs under the fault span of resolve_read/resolve_write or the \
      write_through span of the overwrite paths"] materialize pvm
    (stub : cow_stub) =
  assert (stub.cs_alive);
  let source = source_cache_of stub in
  bump pvm.stats sc_stub_resolves;
  let value : Pager.source =
    match stub.cs_source with
    | Src_page p -> `Page p
    | Src_cache (c, o) -> (Value.source_value pvm c ~off:o :> Pager.source)
  in
  let made =
    Pager.make_page pvm stub.cs_cache ~off:stub.cs_offset (Pager.Stub stub)
      value ~prot:Hw.Prot.all ~protect:true ~dirty:true
  in
  bump pvm.stats (match value with `Zero -> sc_zero_fills | _ -> sc_cow_copies);
  (match made with
  | Some _ ->
    reap_source pvm source;
    (* The destination may itself be a hidden (zombie) cache whose last
       reader was this stub: collect it too.  Safe for live callers —
       the rule passes over visible caches, and no region maps a hidden
       one. *)
    reap_source pvm stub.cs_cache
  | None -> ());
  made

(* Discard [stub] without materialising (its destination range is
   being overwritten or destroyed); [drop] leaves its source to the
   caller, [kill] runs the liveness rule on it. *)
let drop pvm (stub : cow_stub) =
  Install.unthread pvm stub;
  match Global_map.peek pvm stub.cs_cache ~off:stub.cs_offset with
  | Some (Cow_stub s) when s == stub -> Install.remove_stub pvm stub
  | _ -> ()

let kill pvm (stub : cow_stub) =
  let source = source_cache_of stub in
  drop pvm stub;
  reap_source pvm source

(* Stub the pages of a copy src[src_off..+size) -> dst[dst_off..) from
   byte [done_] on, and return how many bytes got their stub.  Each
   stub is built once its source is known, so it is the only record a
   page costs.  Its row goes in after its charge, and only on a
   destination read empty then: a page a concurrent fault made there
   during the copy's charges is not orphaned under the row.  The copy
   stops at such a page, its stub undone, and the caller purges the
   rest of the range again.  A stub materialised meanwhile already
   holds its page there. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the copy/move span opened by Cache.copy and Cache.move"] rec stub_pages
    pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size ~done_ =
  if done_ = size then size
  else begin
    let s_off = src_off + done_ and d_off = dst_off + done_ in
    let stub =
      match Global_map.wait_not_in_transit pvm src ~off:s_off with
      | Some (Resident p) ->
        (* Source page in real memory: protect it read-only and thread
           the stub on its descriptor. *)
        Pmap.cow_protect pvm p;
        let stub =
          {
            cs_cache = dst;
            cs_offset = d_off;
            cs_source = Src_page p;
            cs_alive = true;
          }
          [@chorus.alloc_ok "the per-virtual-page stub the copy keeps"]
        in
        p.p_cow_stubs <-
          (stub :: p.p_cow_stubs)
          [@chorus.alloc_ok "the stub's threading cell on its source page"];
        stub
      | Some (Cow_stub s) -> (
        (* Copying from a destination of an earlier per-page copy whose
           value is still deferred: share its source. *)
        let stub =
          { cs_cache = dst; cs_offset = d_off; cs_source = s.cs_source;
            cs_alive = true }
          [@chorus.alloc_ok "the per-virtual-page stub the copy keeps"]
        in
        match s.cs_source with
        | Src_page p ->
          p.p_cow_stubs <-
            (stub :: p.p_cow_stubs)
            [@chorus.alloc_ok "the stub's threading cell on its source page"];
          stub
        | Src_cache (c, o) ->
          Install.add_pending_stub pvm ~src_cache:c ~src_off:o stub;
          stub)
      | Some (Sync_stub _) -> assert false
      | None ->
        let stub =
          {
            cs_cache = dst;
            cs_offset = d_off;
            cs_source = Src_cache (src, s_off);
            cs_alive = true;
          }
          [@chorus.alloc_ok "the per-virtual-page stub the copy keeps"]
        in
        Install.add_pending_stub pvm ~src_cache:src ~src_off:s_off stub;
        stub
    in
    charge pvm Hw.Cost.Stub_insert;
    if not stub.cs_alive then
      stub_pages pvm ~src ~src_off ~dst ~dst_off ~size
        ~done_:(done_ + page_size pvm)
    else
      match Global_map.peek pvm dst ~off:d_off with
      | None ->
        Install.put_stub pvm
          (Cow_stub stub [@chorus.alloc_ok "the stub's global-map entry"]);
        stub_pages pvm ~src ~src_off ~dst ~dst_off ~size
          ~done_:(done_ + page_size pvm)
      | Some _ ->
        kill pvm stub;
        done_
  end

(* Install the stubs for a copy; see [stub_pages]. *)
let setup_copy pvm ~src ~src_off ~dst ~dst_off ~size =
  assert (size mod page_size pvm = 0);
  stub_pages pvm ~src ~src_off ~dst ~dst_off ~size ~done_:0

(* A write is about to hit [page] while per-page stubs still read
   through it: give every such destination its own copy of the
   original value first. *)
let rec flush_stubs pvm (page : page) =
  match page.p_cow_stubs with
  | [] -> ()
  | stub :: _ ->
    ignore (materialize pvm stub);
    flush_stubs pvm page

(* Resolve a read fault on a stub: find the source page (pulling it in
   if needed) so it can be mapped read-only into the faulting context;
   a zero-valued source is left to the caller to materialise. *)
let resolve_read pvm (stub : cow_stub) =
  match stub.cs_source with
  | Src_page p -> `Borrow p
  | Src_cache (c, o) -> (
    match Value.source_value pvm c ~off:o with
    | `Page p ->
      (* Retarget to the now-resident page for future accesses. *)
      Install.unthread pvm stub;
      stub.cs_alive <- true;
      stub.cs_source <- Src_page p;
      Pmap.cow_protect pvm p;
      p.p_cow_stubs <- stub :: p.p_cow_stubs;
      (* The located page may belong to an ancestor of [c]; if so the
         stub no longer reads through [c], which may have been its
         last reader (the new threading keeps the ancestor safe from
         the cascade). *)
      if not (p.p_cache == c) then reap_source pvm c;
      `Borrow p
    | `Zero -> `Zero)

(* Resolve a write fault on a stub (§4.3): allocate a new page frame
   with a copy of the source page, replacing the stub. *)
let resolve_write pvm (stub : cow_stub) = materialize pvm stub

(* Materialise every pending stub whose deferred source value lives at
   (cache, off): called before that value is overwritten. *)
let materialize_pending pvm (cache : cache) ~off =
  note_frag ~write:false pvm cache ~off;
  if Install.has_pending cache ~off then
    match Frag_map.find_opt pvm.stub_sources cache.c_id off with
    | None -> ()
    | Some stubs ->
      List.iter (fun s -> if s.cs_alive then ignore (materialize pvm s)) stubs
