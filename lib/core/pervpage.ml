(* Per-virtual-page deferred copy (paper §4.3).

   For small copies (typically IPC messages) the PVM does not build a
   history tree; instead every destination page gets a copy-on-write
   page stub in the global map.  A stub points at the source page
   descriptor when the source is resident (and is threaded on that
   page's stub list, so the source page is readable through every
   cache it was copied to), or at the source (cache, offset) pair when
   it is not. *)

open Types

(* Run [f] with [page]'s frame pinned, so a frame allocation inside
   [f] cannot steal it. *)
let with_wired (page : page) f =
  page.p_wire_count <- page.p_wire_count + 1;
  Fun.protect ~finally:(fun () -> page.p_wire_count <- page.p_wire_count - 1) f

(* Install the stubs for a copy src[src_off..+size) -> dst[dst_off..).
   The caller has purged the destination range. *)
let[@chorus.spanned
     "runs under the copy/move span opened by Cache.copy and Cache.move"]
    setup_copy pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size =
  let ps = page_size pvm in
  assert (size mod ps = 0);
  let n = size / ps in
  for i = 0 to n - 1 do
    let s_off = src_off + (i * ps) and d_off = dst_off + (i * ps) in
    let stub =
      { cs_cache = dst; cs_offset = d_off; cs_source = Src_cache (src, s_off);
        cs_alive = true }
    in
    (match Global_map.wait_not_in_transit pvm src ~off:s_off with
    | Some (Resident p) ->
      (* Source page in real memory: protect it read-only and thread
         the stub on its descriptor. *)
      Pmap.cow_protect pvm p;
      stub.cs_source <- Src_page p;
      p.p_cow_stubs <- stub :: p.p_cow_stubs
    | Some (Cow_stub s) -> (
      (* Copying from a destination of an earlier per-page copy whose
         value is still deferred: share its source. *)
      match s.cs_source with
      | Src_page p ->
        stub.cs_source <- Src_page p;
        p.p_cow_stubs <- stub :: p.p_cow_stubs
      | Src_cache (c, o) ->
        stub.cs_source <- Src_cache (c, o);
        Install.add_pending_stub pvm ~src_cache:c ~src_off:o stub
    )
    | Some (Sync_stub _) -> assert false
    | None ->
      Install.add_pending_stub pvm ~src_cache:src ~src_off:s_off stub);
    charge pvm Hw.Cost.Stub_insert;
    Global_map.set pvm dst ~off:d_off (Cow_stub stub);
    Install.index_dest_stub pvm stub
  done

let unthread pvm (stub : cow_stub) =
  stub.cs_alive <- false;
  match stub.cs_source with
  | Src_page p ->
    p.p_cow_stubs <- List.filter (fun s -> not (s == stub)) p.p_cow_stubs
  | Src_cache (c, o) -> (
    note_frag pvm c ~off:o;
    let k = (c.c_id, o) in
    match Shard_map.find_opt pvm.stub_sources k with
    | None -> ()
    | Some stubs -> (
      match List.filter (fun s -> not (s == stub)) stubs with
      | [] ->
        Shard_map.remove pvm.stub_sources k;
        Install.unindex_pending pvm c ~off:o
      | rest -> Shard_map.replace pvm.stub_sources k rest))

let source_cache_of (stub : cow_stub) =
  match stub.cs_source with Src_page p -> p.p_cache | Src_cache (c, _) -> c

(* A dead stub may have been the last reader of a hidden history
   cache: give the reaper a chance. *)
let reap_source pvm (source : cache) =
  match pvm.zombie_reaper with
  | Some reap -> reap source
  | None -> ()

(* Materialise [stub]: give the destination its own page holding the
   deferred value, replacing the stub in the global map. *)
let[@chorus.spanned
     "runs under the fault span of resolve_read/resolve_write or the \
      write_through span of the overwrite paths"] materialize pvm
    (stub : cow_stub) =
  assert (stub.cs_alive);
  let source = source_cache_of stub in
  bump pvm.stats.sc_stub_resolves;
  let copy_from (sp : page) =
    with_wired sp (fun () ->
        let frame = Pager.alloc_frame pvm in
        charge pvm Hw.Cost.Bcopy_page;
        Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:frame;
        bump pvm.stats.sc_cow_copies;
        frame)
  in
  let frame =
    match stub.cs_source with
    | Src_page p -> copy_from p
    | Src_cache (c, o) -> (
      match Value.source_value pvm c ~off:o with
      | `Page p -> copy_from p
      | `Zero ->
        let frame = Pager.alloc_frame pvm in
        charge pvm Hw.Cost.Bzero_page;
        Hw.Phys_mem.bzero frame;
        bump pvm.stats.sc_zero_fills;
        frame)
  in
  unthread pvm stub;
  Global_map.remove pvm stub.cs_cache ~off:stub.cs_offset;
  Install.unindex_dest_stub pvm stub.cs_cache ~off:stub.cs_offset;
  let page =
    Install.insert_page pvm stub.cs_cache ~off:stub.cs_offset frame
      ~pulled_prot:Hw.Prot.all
      ~cow_protected:(History.is_covered stub.cs_cache ~off:stub.cs_offset)
  in
  page.p_dirty <- true;
  reap_source pvm source;
  (* The destination may itself be a hidden (zombie) cache whose last
     reader was this stub: collect it too.  Safe for live callers —
     the reaper refuses caches that still have regions mapping them,
     and only region-less teardown paths materialise into zombies. *)
  reap_source pvm stub.cs_cache;
  page

(* Discard [stub] without materialising (its destination range is
   being overwritten or destroyed). *)
let kill pvm (stub : cow_stub) =
  let source = source_cache_of stub in
  unthread pvm stub;
  (match Global_map.peek pvm stub.cs_cache ~off:stub.cs_offset with
  | Some (Cow_stub s) when s == stub ->
    Global_map.remove pvm stub.cs_cache ~off:stub.cs_offset;
    Install.unindex_dest_stub pvm stub.cs_cache ~off:stub.cs_offset
  | _ -> ());
  reap_source pvm source

(* A write is about to hit [page] while per-page stubs still read
   through it: give every such destination its own copy of the
   original value first. *)
let flush_stubs pvm (page : page) =
  let rec go () =
    match page.p_cow_stubs with
    | [] -> ()
    | stub :: _ ->
      ignore (materialize pvm stub);
      go ()
  in
  go ()

(* Resolve a read fault on a stub: find the source page (pulling it in
   if needed) so it can be mapped read-only into the faulting context;
   a zero-valued source materialises the destination page directly. *)
let resolve_read pvm (stub : cow_stub) =
  match stub.cs_source with
  | Src_page p -> `Borrow p
  | Src_cache (c, o) -> (
    match Value.source_value pvm c ~off:o with
    | `Page p ->
      (* Retarget to the now-resident page for future accesses. *)
      unthread pvm stub;
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
    | `Zero -> `Own (materialize pvm stub))

(* Resolve a write fault on a stub (§4.3): allocate a new page frame
   with a copy of the source page, replacing the stub. *)
let resolve_write pvm (stub : cow_stub) = materialize pvm stub

(* Materialise every pending stub whose deferred source value lives at
   (cache, off): called before that value is overwritten. *)
let materialize_pending pvm (cache : cache) ~off =
  note_frag ~write:false pvm cache ~off;
  let k = (cache.c_id, off) in
  match Shard_map.find_opt pvm.stub_sources k with
  | None -> ()
  | Some stubs ->
    List.iter (fun s -> if s.cs_alive then ignore (materialize pvm s)) stubs
