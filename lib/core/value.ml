(* Locating the logical value of a (cache, offset) pair: the copy-tree
   walk of §4.2.1, and the miss decision and the pull of §4.1.2. *)

open Types

type located =
  [ `Page of page  (* resident page holding the value *)
  | `Pull of cache * int  (* must be pulled into this cache *)
  | `Zero  (* anonymous, never written: zero-filled *) ]

type miss = Own | Inherited | Fresh

(* The §4.1.2 decision on an empty row; an [Inherited] miss reads its
   fragment with [Parents.covering]. *)
let[@chorus.hot] [@inline] miss (cache : cache) ~off =
  if Install.has_swapped cache ~off then Own
  else if Parents.covers cache ~off then Inherited
  else if cache.c_backing <> None && not cache.c_anonymous then Own
  else Fresh

let[@chorus.hot] [@chorus.spanned
     "tree walk under the fault/copy span of every caller"] rec locate pvm
    (cache : cache) ~off : located =
  locate_at pvm cache ~off (Global_map.wait_not_in_transit pvm cache ~off)

(* The walk from (cache, off)'s entry as its caller last read it, with
   no scheduling point since: the row is not probed again. *)
and[@chorus.hot] [@chorus.alloc_ok
     "the located sum is the function's result type: one word per \
      resolution, freed by the minor collector"] [@chorus.spanned
     "tree walk under the fault/copy span of every caller"] locate_at pvm
    (cache : cache) ~off (entry : entry option) : located =
  match entry with
  | Some (Resident p) -> `Page p
  | Some (Cow_stub s) -> (
    match s.cs_source with
    | Src_page p -> `Page p
    | Src_cache (c, o) ->
      charge pvm Hw.Cost.Tree_lookup;
      locate pvm c ~off:o)
  | Some (Sync_stub _) -> assert false (* wait_not_in_transit excludes it *)
  | None -> (
    match miss cache ~off with
    | Own -> `Pull (cache, off)
    | Inherited -> step_up pvm ~off (Parents.covering cache ~off)
    | Fresh -> `Zero)

(* One step up the tree, through the fragment covering [off]. *)
and[@chorus.hot] [@chorus.spanned
     "tree walk under the fault/copy span of every caller"] step_up pvm ~off
    (f : frag) =
  charge pvm Hw.Cost.Tree_lookup;
  bump pvm.stats sc_tree_lookups;
  locate pvm f.f_parent ~off:(off - f.f_off + f.f_parent_off)

(* Install the data a segment provides (the [fillUp] downcall of
   Table 4): the [len] bytes at [pos] in [bytes], often a view of the
   segment's own store.  [offset] must be page-aligned and the slice a
   whole number of pages; a segment may deliver more than was asked
   (read-ahead).  Chunks colliding with pages already resident refresh
   their contents; chunks resolving a synchronization stub wake the
   sleepers. *)
let[@chorus.spanned
     "fillUp runs under the pullIn pager span or a segment manager's own \
      request"] deliver pvm (cache : cache) ~offset ?(pos = 0) ?len
    (bytes : Bytes.t) ~prot ~dirty =
  let ps = page_size pvm in
  let len = Gmi.fill_up_slice ~page_size:ps ~offset ~pos ?len bytes in
  let n = len / ps in
  (* The page maker re-reads the destination after its frame
     allocation (a read-ahead chunk colliding with a concurrent pull,
     say): the chunk restarts when the entry moved under us, and stops
     when the cache died. *)
  let rec place ~off ~src =
    match Global_map.peek pvm cache ~off with
    | (Some (Sync_stub _) | None) as before -> (
      match
        Pager.make_page pvm cache ~off (Pager.Peeked before)
          (`Data (bytes, src)) ~prot ~protect:true ~dirty
      with
      | Some _ -> (
        match before with
        | Some (Sync_stub cond) -> Hw.Engine.Cond.broadcast cond
        | _ -> ())
      | None -> if cache.c_alive then place ~off ~src)
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
    place ~off:(offset + (i * ps)) ~src:(pos + (i * ps))
  done

(* Pull one page in from the cache's segment (paper §4.1.2): place a
   synchronization stub, upcall pullIn, and expect the segment to have
   filled the page up before returning. *)
let pull_in_page pvm (cache : cache) ~off ~prot =
  match cache.c_backing with
  | None -> invalid_arg "pullIn: cache has no backing"
  | Some b ->
    bump pvm.stats sc_pull_ins;
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
      let fill_up ~offset ?pos ?len bytes =
        deliver pvm cache ~offset ?pos ?len bytes ~prot ~dirty:false
      in
      (* A failing or lying mapper must not leave the synchronization
         stub behind: waiters would sleep forever.  Remove it and wake
         them so they retry (and fail in turn if the segment stays
         broken). *)
      let abandon entry =
        match entry with
        | Some (Sync_stub c) when c == cond ->
          Global_map.finish_sync_stub pvm cache ~off cond None
        | _ -> ()
      in
      (try b.b_pull_in ~offset:off ~size:(page_size pvm) ~prot ~fill_up
       with e ->
         abandon (Global_map.peek pvm cache ~off);
         raise e);
      match Global_map.peek pvm cache ~off with
      | Some (Resident p) -> p
      | entry ->
        abandon entry;
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

(* pullIn's accessMode (§3.3.3): a read-only pull is upgraded through
   getWriteAccess by the first write. *)
let pull_own pvm (cache : cache) ~off ~write =
  let prot =
    if cache.c_anonymous then Hw.Prot.all
    else if write then Hw.Prot.read_write
    else Hw.Prot.read_only
  in
  pull_in_page pvm cache ~off ~prot

let[@inline] pulled pvm : located -> [ `Page of page | `Zero ] = function
  | `Page p -> `Page p
  | `Zero -> `Zero
  | `Pull (c, o) -> `Page (pull_own pvm c ~off:o ~write:false)

let inherited_value pvm ~off f = pulled pvm (step_up pvm ~off f)

let source_value_at pvm (cache : cache) ~off entry =
  pulled pvm (locate_at pvm cache ~off entry)

let source_value pvm (cache : cache) ~off =
  source_value_at pvm cache ~off (Global_map.wait_not_in_transit pvm cache ~off)
