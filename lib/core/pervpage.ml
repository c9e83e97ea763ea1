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

(* Install the stubs for a copy src[src_off..+size) -> dst[dst_off..).
   The caller has purged the destination range.  Each stub is built
   once its source is known, so it is the only record a page costs. *)
let[@chorus.hot] [@chorus.spanned
     "runs under the copy/move span opened by Cache.copy and Cache.move"]
    setup_copy pvm ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size =
  let ps = page_size pvm in
  assert (size mod ps = 0);
  let n = size / ps in
  for i = 0 to n - 1 do
    let s_off = src_off + (i * ps) and d_off = dst_off + (i * ps) in
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
    Global_map.set pvm dst ~off:d_off
      (Cow_stub stub [@chorus.alloc_ok "the stub's global-map entry"]);
    Install.index_dest_stub stub
  done

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
        Install.unindex_pending c ~off:o
      | rest -> Frag_map.replace pvm.stub_sources c.c_id o rest))

let source_cache_of (stub : cow_stub) =
  match stub.cs_source with Src_page p -> p.p_cache | Src_cache (c, _) -> c

(* A dead stub may have been the last reader of a hidden history
   cache: run the liveness rule on it. *)
let reap_source pvm (source : cache) =
  match pvm.zombie_reaper with
  | Some reap -> reap source
  | None -> ()

(* A fresh frame holding a copy of [sp]'s, with [sp] pinned meanwhile
   so the allocation cannot steal it. *)
let[@chorus.spanned
     "runs under the span of materialize's callers (fault, overwrite)"] copy_frame
    pvm (sp : page) =
  wire sp;
  match
    let frame = Pager.alloc_frame pvm in
    charge pvm Hw.Cost.Bcopy_page;
    Hw.Phys_mem.bcopy ~src:sp.p_frame ~dst:frame;
    bump pvm.stats sc_cow_copies;
    frame
  with
  | frame ->
    unwire sp;
    frame
  | exception e ->
    unwire sp;
    raise e

(* Materialise [stub]: give the destination its own page holding the
   deferred value, replacing the stub in the global map. *)
let[@chorus.spanned
     "runs under the fault span of resolve_read/resolve_write or the \
      write_through span of the overwrite paths"] materialize pvm
    (stub : cow_stub) =
  assert (stub.cs_alive);
  let source = source_cache_of stub in
  bump pvm.stats sc_stub_resolves;
  let frame =
    match stub.cs_source with
    | Src_page p -> copy_frame pvm p
    | Src_cache (c, o) -> (
      match Value.source_value pvm c ~off:o with
      | `Page p -> copy_frame pvm p
      | `Zero ->
        let frame = Pager.alloc_frame pvm in
        charge pvm Hw.Cost.Bzero_page;
        Hw.Phys_mem.bzero frame;
        bump pvm.stats sc_zero_fills;
        frame)
  in
  unthread pvm stub;
  Global_map.remove pvm stub.cs_cache ~off:stub.cs_offset;
  Install.unindex_dest_stub stub.cs_cache ~off:stub.cs_offset;
  let page =
    Install.insert_page pvm stub.cs_cache ~off:stub.cs_offset frame
      ~pulled_prot:Hw.Prot.all
      ~cow_protected:(History.is_covered stub.cs_cache ~off:stub.cs_offset)
  in
  page.p_dirty <- true;
  reap_source pvm source;
  (* The destination may itself be a hidden (zombie) cache whose last
     reader was this stub: collect it too.  Safe for live callers —
     the rule passes over visible caches, and no region maps a hidden
     one. *)
  reap_source pvm stub.cs_cache;
  page

(* Discard [stub] without materialising (its destination range is
   being overwritten or destroyed); [drop] leaves its source to the
   caller, [kill] runs the liveness rule on it. *)
let drop pvm (stub : cow_stub) =
  unthread pvm stub;
  match Global_map.peek pvm stub.cs_cache ~off:stub.cs_offset with
  | Some (Cow_stub s) when s == stub ->
    Global_map.remove pvm stub.cs_cache ~off:stub.cs_offset;
    Install.unindex_dest_stub stub.cs_cache ~off:stub.cs_offset
  | _ -> ()

let kill pvm (stub : cow_stub) =
  let source = source_cache_of stub in
  drop pvm stub;
  reap_source pvm source

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
  match Frag_map.find_opt pvm.stub_sources cache.c_id off with
  | None -> ()
  | Some stubs ->
    List.iter (fun s -> if s.cs_alive then ignore (materialize pvm s)) stubs
