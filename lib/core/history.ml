(* History objects (paper §4.2): deferred copy of large data.

   Copies between segments build trees of their caches.  The shape
   invariant: the tree is binary, and each source of a copy operation
   has a single immediate descendant, its history object.  As pages
   are modified in a source, their original version is placed in its
   history object; pages missing from a cache are found by looking
   upwards in the tree (the [c_parents] fragments).

   Two refinements over the paper's prose, both documented in
   DESIGN.md:
   - the paper's "simple case" (the fresh copy itself serves as the
     source's history) is only taken when source and destination
     offsets coincide, because originals are stored at source offsets;
     shifted copies get a working cache straight away;
   - working caches cover the whole source window with an identity
     fragment, so they can absorb originals for any later-copied
     range. *)

open Types

let whole_window = max_int / 2

let end_store_span tr (h : cache) ~h_off =
  Obs.Trace.span_end tr
    ~args:[ ("cache", Obs.Trace.Int h.c_id); ("off", Obs.Trace.Int h_off) ]

(* Store the source page's original value into history [h] at [h_off]
   (see [save_original]). *)
let[@chorus.hot] store_original pvm (src : [ `Page of page ]) ~(h : cache)
    ~h_off =
  let tr = Hw.Engine.tracer pvm.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "history-materialise";
  match
    Pager.make_page pvm h ~off:h_off Pager.Original (src :> Pager.source)
      ~prot:Hw.Prot.all ~protect:true ~dirty:true
  with
  | Some _ ->
    bump pvm.stats sc_cow_copies;
    if traced then end_store_span tr h ~h_off
  | None -> if traced then end_store_span tr h ~h_off
  | exception e ->
    if traced then end_store_span tr h ~h_off;
    raise e

(* Save [value], (src, off)'s value before a write, into the source's
   history iff the history covers [off] and has not yet got its own
   version of the page — resident, deferred (stub), in transit, or paged
   out to its swap (its miss there is its own).  The stored page is dirty
   and read-protected when the history has a covering history.  The
   page maker's charges are scheduling points: a concurrent writer may
   have saved the original meanwhile, and a history destroyed meanwhile
   has nothing left to save; either way the write proceeds.  A [`Zero]
   is the §4.2.3 complication: a copy's first write to a page it
   inherited from nowhere. *)
let[@chorus.hot] save_original pvm (src : cache) ~off
    (value : [ `Page of page | `Zero ]) =
  let h_off = Parents.history_off src ~off in
  if h_off >= 0 then begin
    let h = Parents.history src in
    match Global_map.peek pvm h ~off:h_off with
    | Some _ -> ()
    | None -> (
      match Value.miss h ~off:h_off with
      | Own -> ()
      | Inherited | Fresh -> (
        match value with
        | `Page _ as original -> store_original pvm original ~h ~h_off
        | `Zero ->
          ignore
            (Pager.make_page pvm h ~off:h_off Pager.Vacant `Zero
               ~prot:Hw.Prot.all ~protect:true ~dirty:true)))
  end

(* Resolve a write violation on a read-protected page of a copy
   source (§4.2.2): push the original value into the history object if
   it does not already have its own version, then let the page go
   writable. *)
let resolve_source_write pvm (page : page) =
  save_original pvm page.p_cache ~off:page.p_offset (`Page page);
  Pmap.cow_release pvm page;
  page.p_dirty <- true

(* Insert a fresh working cache between [src] and its previous
   history, preserving the shape invariant (§4.2.3, Figure 3.c/3.d). *)
let insert_working_cache
    pvm (src : cache) =
  note_structure pvm;
  (* nobody holds a handle to a working cache: it is born hidden, and
     collected once no visible cache reads it *)
  let w = Install.new_cache pvm ~anonymous:true ~is_history:true () in
  (match src.c_history with
  | Some old ->
    Parents.redirect old ~old_parent:src ~new_parent:w ~off:0
      ~size:whole_window
  | None -> ());
  Parents.insert w
    {
      f_off = 0;
      f_size = whole_window;
      f_parent = src;
      f_parent_off = 0;
      f_policy = `Copy_on_write;
    };
  src.c_history <- Some w;
  bump pvm.stats sc_history_created;
  let tr = Hw.Engine.tracer pvm.engine in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"vm" "history-create"
      ~args:[ ("src", Int src.c_id); ("working", Int w.c_id) ];
  w

(* Read-protect the source's resident pages over the copied range.
   Pages the source itself inherits from its ancestors are already
   protected (they were protected when their own cache was copied). *)
let protect_source_range pvm (src : cache) ~off ~size =
  List.iter
    (fun p ->
      if p.p_offset >= off && p.p_offset < off + size then
        Pmap.cow_protect pvm p)
    src.c_pages

(* Record a deferred copy src[src_off, src_off+size) ->
   dst[dst_off, ...).  The caller (Cache.copy) has already purged the
   destination range.  Builds or extends the history tree and
   read-protects the source. *)
let[@chorus.spanned "runs under the copy span opened by Cache.copy"]
   record_copy pvm
    ~(src : cache) ~src_off ~(dst : cache) ~dst_off ~size ~policy =
  note_structure pvm;
  charge pvm Hw.Cost.Tree_setup;
  charge pvm Hw.Cost.Copy_setup;
  let tr = Hw.Engine.tracer pvm.engine in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"vm" "deferred-copy"
      ~args:
        [
          ("src", Int src.c_id);
          ("dst", Int dst.c_id);
          ("size", Int size);
          ( "policy",
            Str
              (match policy with
              | `Copy_on_write -> "copy-on-write"
              | `Copy_on_reference -> "copy-on-reference") );
        ];
  let parent =
    match src.c_history with
    | None when src_off = dst_off ->
      (* Simple case (§4.2.2): the new copy is the history object. *)
      src.c_history <- Some dst;
      src
    | Some h when h == dst ->
      (* Re-copying onto the same destination; the purge has removed
         the old fragments, re-link directly. *)
      src
    | None | Some _ -> insert_working_cache pvm src
  in
  (* Offsets in a working cache coincide with source offsets. *)
  Parents.insert dst
    {
      f_off = dst_off;
      f_size = size;
      f_parent = parent;
      f_parent_off = src_off;
      f_policy = policy;
    };
  protect_source_range pvm src ~off:src_off ~size

(* Called when [child] stops referencing [parent] (destruction or
   purge removed the last fragment).  If the child was the parent's
   history object, the parent no longer needs to save originals: flip
   the copy-protection flags (lazily; hardware entries are refreshed
   at the next fault, costing nothing now — see DESIGN.md). *)
let child_detached (parent : cache) (child : cache) =
  note_structure parent.c_pvm;
  if not (Parents.names child parent) then begin
    match parent.c_history with
    | Some h when h == child ->
      parent.c_history <- None;
      List.iter (fun p -> p.p_cow_protected <- false) parent.c_pages
    | _ -> ()
  end

exception Reached

(* The walk threads the caches it has visited through a list searched
   with [List.memq], as [Cache.readers] does: copy trees are shallow,
   and the walk builds no table and no closure over parent fragments. *)
let[@chorus.noted "Cache.copy's strategy check; see [reachable]"] rec reach
    target seen (c : cache) =
  if c == target then raise_notrace Reached
  else if List.memq c seen then seen
  else
    let seen = reach_frags target (c :: seen) (Parents.frags c) in
    if Hashtbl.length c.c_dest_stubs = 0 then seen
    else Hashtbl.fold (reach_stub target) c.c_dest_stubs seen

and reach_frags target seen = function
  | [] -> seen
  | f :: rest -> reach_frags target (reach target seen f.f_parent) rest

and[@chorus.noted "Cache.copy's strategy check; see [reachable]"] reach_stub
    target _ (s : cow_stub) seen =
  if not s.cs_alive then seen
  else
    match s.cs_source with
    | Src_cache (sc, _) -> reach target seen sc
    | Src_page p -> reach target seen p.p_cache

(* [reachable ~from target]: can a value lookup starting at [from]
   reach [target], through parent fragments or deferred per-page stub
   sources?  Used by Cache.copy to refuse building a cyclic tree when
   a cache is copied onto one of its own ancestors (the paper's Unix
   workloads never do this; we fall back to an eager copy).  Stub
   edges come from each visited cache's own destination index.  A
   source with neither edge reaches only itself, with no walk to set
   up: the per-page copies of IPC take that exit. *)
let[@chorus.noted
     "the check only picks Cache.copy's strategy: the deferred strategies \
      note the topology in purge_range before the slice's next scheduling \
      point, and the eager fallback edits no topology"] reachable
    ~(from : cache) (target : cache) =
  if Parents.frags from = [] && Hashtbl.length from.c_dest_stubs = 0 then
    from == target
  else
    match reach target [] from with
    | _ -> false
    | exception Reached -> true

(* --- Introspection ---------------------------------------------- *)

let rec root_of (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  match Parents.frags cache with
  | [] -> cache
  | f :: _ -> root_of f.f_parent

let rec depth_to_root (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  match Parents.frags cache with
  | [] -> 0
  | f :: _ -> 1 + depth_to_root f.f_parent

(* Pretty-print the history tree containing [cache] (for the Figure 3
   scenarios).  Pages are shown by page index within the segment, with
   [*] marking read-protected (grey in the paper's figure) frames. *)
let[@chorus.noted "debug pretty-printer; never runs inside an engine task"] pp_tree
    ppf (cache : cache) =
  let pvm = cache.c_pvm in
  let ps = page_size pvm in
  let label c =
    Format.asprintf "%s%d%s"
      (if c.c_is_history then "w" else "cache")
      c.c_id
      (match c.c_history with
      | Some h -> Printf.sprintf " (history -> %d)" h.c_id
      | None -> "")
  in
  let pages c =
    c.c_pages
    |> List.sort (fun a b -> compare a.p_offset b.p_offset)
    |> List.map (fun p ->
           Printf.sprintf "%d%s" (p.p_offset / ps)
             (if p.p_cow_protected then "*" else ""))
    |> String.concat ","
  in
  let rec pp_node ppf (indent, c) =
    Format.fprintf ppf "%s%s  pages:[%s]@," indent (label c) (pages c);
    List.iter
      (fun child ->
        if child.c_alive then pp_node ppf (indent ^ "  ", child))
      (List.sort (fun a b -> compare a.c_id b.c_id) (Parents.children c))
  in
  Format.fprintf ppf "@[<v>%a@]" pp_node ("", root_of cache)
