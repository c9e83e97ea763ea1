(* Locating the logical value of a (cache, offset) pair.

   A cache miss is resolved by looking upwards in the copy tree
   (paper §4.2.1); if the walk ends at a cache bound to a segment the
   data is pulled in (§4.1.2), otherwise the value is zero (anonymous
   memory).  An anonymous cache that has pushed pages to a swap
   backing recovers them here as well. *)

open Types

type located =
  [ `Page of page  (* resident page holding the value *)
  | `Pull of cache * int  (* must be pulled into this cache *)
  | `Zero  (* anonymous, never written: zero-filled *) ]

let has_swapped (cache : cache) ~off =
  cache.c_anonymous && Hashtbl.mem cache.c_backed_offs off

let[@chorus.hot] [@chorus.alloc_ok
     "the located sum is the function's result type: one word per \
      resolution, freed by the minor collector"] [@chorus.spanned
     "tree walk under the fault/copy span of every caller"] rec locate pvm
    (cache : cache) ~off : located =
  match Global_map.wait_not_in_transit pvm cache ~off with
  | Some (Resident p) -> `Page p
  | Some (Cow_stub s) -> (
    match s.cs_source with
    | Src_page p -> `Page p
    | Src_cache (c, o) ->
      charge pvm Hw.Cost.Tree_lookup;
      locate pvm c ~off:o)
  | Some (Sync_stub _) -> assert false (* wait_not_in_transit excludes it *)
  | None ->
    if has_swapped cache ~off then `Pull (cache, off)
    else (
      match Parents.find_covering cache ~off with
      | Some f ->
        charge pvm Hw.Cost.Tree_lookup;
        bump pvm.stats.sc_tree_lookups;
        locate pvm f.f_parent ~off:(off - f.f_off + f.f_parent_off)
      | None ->
        if cache.c_backing <> None && not cache.c_anonymous then
          `Pull (cache, off)
        else `Zero)

(* Install the data a segment provides (the [fillUp] downcall of
   Table 4).  [offset] must be page-aligned and the data length a
   multiple of the page size; a segment may deliver more than was
   asked (read-ahead).  Chunks colliding with pages already resident
   refresh their contents; chunks resolving a synchronization stub
   wake the sleepers. *)
let[@chorus.spanned
     "fillUp runs under the pullIn pager span or a segment manager's own \
      request"] deliver pvm (cache : cache) ~offset (bytes : Bytes.t) ~prot
    ~dirty =
  let ps = page_size pvm in
  if not (is_page_aligned pvm offset) then
    invalid_arg "fillUp: offset not page-aligned";
  if Bytes.length bytes mod ps <> 0 then
    invalid_arg "fillUp: data not a whole number of pages";
  let n = Bytes.length bytes / ps in
  (* Frame allocation is a scheduling point, so the destination probed
     before it may have changed by insert time (a read-ahead chunk
     colliding with a concurrent pull, say): re-probe and restart the
     chunk when the entry moved under us. *)
  let rec place ~off ~src =
    match Global_map.peek pvm cache ~off with
    | (Some (Sync_stub _) | None) as before -> (
      let frame = Pager.alloc_frame pvm in
      let unchanged =
        match (before, Global_map.peek pvm cache ~off) with
        | None, None -> true
        | Some (Sync_stub c), Some (Sync_stub c') -> c == c'
        | _, _ -> false
      in
      if not unchanged then begin
        note_frames pvm;
        charge pvm Hw.Cost.Frame_free;
        Hw.Phys_mem.free pvm.mem frame;
        place ~off ~src
      end
      else begin
        Bytes.blit bytes src frame.Hw.Phys_mem.bytes 0 ps;
        let page =
          Install.insert_page pvm cache ~off frame ~pulled_prot:prot
            ~cow_protected:(History.is_covered cache ~off)
        in
        page.p_dirty <- dirty;
        match before with
        | Some (Sync_stub cond) -> Hw.Engine.Cond.broadcast cond
        | _ -> ()
      end)
    | Some (Resident p) ->
      charge pvm Hw.Cost.Bcopy_page;
      Bytes.blit bytes src p.p_frame.Hw.Phys_mem.bytes 0 ps;
      p.p_dirty <- dirty;
      Pmap.refresh_prot pvm p
    | Some (Cow_stub _) ->
      (* The destination of a pending per-virtual-page copy is being
         overwritten by its segment manager; the deferred value is
         superseded.  Rare; handled by the higher-level purge before
         copies, so refuse here rather than guess. *)
      invalid_arg "fillUp: offset holds a deferred-copy stub"
  in
  for i = 0 to n - 1 do
    place ~off:(offset + (i * ps)) ~src:(i * ps)
  done

(* Pull one page in from the cache's segment (paper §4.1.2): place a
   synchronization stub, upcall pullIn, and expect the segment to have
   filled the page up before returning. *)
let pull_in_page pvm (cache : cache) ~off ~prot =
  match cache.c_backing with
  | None -> invalid_arg "pullIn: cache has no backing"
  | Some b ->
    bump pvm.stats.sc_pull_ins;
    let tr = Hw.Engine.tracer pvm.engine in
    let traced = Obs.Trace.enabled tr in
    if traced then Obs.Trace.span_begin tr ~cat:"pager" "pullIn";
    let close ok =
      if traced then
        Obs.Trace.span_end tr
          ~args:
            [
              ("segment", Str b.Gmi.b_name);
              ("cache", Int cache.c_id);
              ("off", Int off);
              ("ok", Str (if ok then "true" else "false"));
            ]
    in
    let go () =
      let cond = Global_map.insert_sync_stub pvm cache ~off in
      let fill_up ~offset bytes =
        deliver pvm cache ~offset bytes ~prot ~dirty:false
      in
      (* A failing mapper must not leave the synchronization stub
         behind: waiters would sleep forever.  Remove it and wake them
         so they retry (and fail in turn if the segment stays broken). *)
      (try b.b_pull_in ~offset:off ~size:(page_size pvm) ~prot ~fill_up
       with e ->
         (match Global_map.peek pvm cache ~off with
         | Some (Sync_stub c) when c == cond ->
           Global_map.finish_sync_stub pvm cache ~off cond None
         | _ -> ());
         raise e);
      match Global_map.peek pvm cache ~off with
      | Some (Resident p) -> p
      | Some (Sync_stub c) when c == cond ->
        Global_map.finish_sync_stub pvm cache ~off cond None;
        failwith
          (Printf.sprintf "GMI: segment '%s' pullIn did not provide offset %d"
             b.b_name off)
      | _ ->
        failwith
          (Printf.sprintf "GMI: segment '%s' pullIn did not provide offset %d"
             b.b_name off)
    in
    (match go () with
    | p ->
      close true;
      p
    | exception e ->
      close false;
      raise e)

(* Allocate a zero-filled page owned by [cache].  Allocation and the
   zeroing charge are scheduling points: when a concurrent fibre fills
   the slot first, settle on its value instead of orphaning it. *)
let[@chorus.spanned
     "runs under the fault span of Fault.handle or the copy span of the \
      eager paths"] rec zero_fill_page pvm (cache : cache) ~off =
  let frame = Pager.alloc_frame pvm in
  charge pvm Hw.Cost.Bzero_page;
  Hw.Phys_mem.bzero frame;
  match
    Install.try_insert_fresh pvm cache ~off frame ~pulled_prot:Hw.Prot.all
      ~cow_protected:(History.is_covered cache ~off)
  with
  | Some page ->
    bump pvm.stats.sc_zero_fills;
    page
  | None -> (
    match Global_map.wait_not_in_transit pvm cache ~off with
    | Some (Resident p) -> p
    | _ -> zero_fill_page pvm cache ~off)

(* The resident page holding the logical value of (cache, off),
   pulling from a segment if necessary; [`Zero] when the value is
   untouched anonymous memory. *)
let source_value pvm (cache : cache) ~off : [ `Page of page | `Zero ] =
  match locate pvm cache ~off with
  | `Page p -> `Page p
  | `Zero -> `Zero
  | `Pull (c, o) ->
    let prot = if c.c_anonymous then Hw.Prot.all else Hw.Prot.read_only in
    `Page (pull_in_page pvm c ~off:o ~prot)
