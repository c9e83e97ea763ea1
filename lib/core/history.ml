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

(* The copied range (in source offsets) that [src]'s history object is
   responsible for, derived from the fragments of the history that
   name [src] as parent — no separate bookkeeping needed. *)
let covering_history (src : cache) ~off =
  note_structure ~write:false src.c_pvm;
  match src.c_history with
  | None -> None
  | Some h ->
    let covers f =
      f.f_parent == src && off >= f.f_parent_off
      && off < f.f_parent_off + f.f_size
    in
    (match List.find_opt covers h.c_parents with
    | Some f -> Some (h, off - f.f_parent_off + f.f_off)
    | None -> None)

(* A source write at [off] must save the original iff the history
   covers the offset and has not yet got its own version of the page —
   resident, deferred (stub), in transit, or paged out to its swap. *)
let covered_and_missing pvm (src : cache) ~off =
  match covering_history src ~off with
  | None -> None
  | Some (h, h_off) -> (
    match Global_map.peek pvm h ~off:h_off with
    | Some _ -> None
    | None ->
      if h.c_anonymous && Hashtbl.mem h.c_backed_offs h_off then None
      else Some (h, h_off))

let is_covered src ~off = covering_history src ~off <> None

(* Store a copy of [src_page] (its original value) into history cache
   [h] at [h_off].  The stored page is dirty (its value exists nowhere
   else) and itself read-protected when [h] has a history covering it. *)
let store_original pvm ~(src_page : page) ~(h : cache) ~h_off =
  let tr = Hw.Engine.tracer pvm.engine in
  let traced = Obs.Trace.enabled tr in
  if traced then Obs.Trace.span_begin tr ~cat:"vm" "history-materialise";
  Fun.protect
    ~finally:(fun () ->
      if traced then
        Obs.Trace.span_end tr
          ~args:
            [ ("cache", Obs.Trace.Int h.c_id); ("off", Obs.Trace.Int h_off) ])
  @@ fun () ->
  (* Pin the source page: the frame allocation below may otherwise
     reclaim it. *)
  src_page.p_wire_count <- src_page.p_wire_count + 1;
  let frame =
    Fun.protect
      ~finally:(fun () ->
        src_page.p_wire_count <- src_page.p_wire_count - 1)
      (fun () ->
        let frame = Pager.alloc_frame pvm in
        charge pvm Hw.Cost.Bcopy_page;
        Hw.Phys_mem.bcopy ~src:src_page.p_frame ~dst:frame;
        frame)
  in
  charge pvm Hw.Cost.Stub_insert;
  (* The charges above are scheduling points: a concurrent writer may
     have saved the original meanwhile, in which case ours is redundant
     (the §4.2.2 "still missing" condition no longer holds). *)
  match
    Install.try_insert_fresh pvm h ~off:h_off frame ~pulled_prot:Hw.Prot.all
      ~cow_protected:(is_covered h ~off:h_off)
  with
  | Some page ->
    page.p_dirty <- true;
    bump pvm.stats.sc_cow_copies
  | None -> ()

(* Resolve a write violation on a read-protected page of a copy
   source (§4.2.2): push the original value into the history object if
   it does not already have its own version, then let the page go
   writable. *)
let resolve_source_write pvm (page : page) =
  (match covered_and_missing pvm page.p_cache ~off:page.p_offset with
  | Some (h, h_off) -> store_original pvm ~src_page:page ~h ~h_off
  | None -> ());
  Pmap.cow_release pvm page;
  page.p_dirty <- true

(* Insert a fresh working cache between [src] and its previous
   history, preserving the shape invariant (§4.2.3, Figure 3.c/3.d). *)
let[@chorus.guarded
     "history-tree surgery: runs only under the copy path on the owning \
      site's serial-class fibres; the parallel fault path reads c_history \
      but never during a live copy on the same cache"] insert_working_cache
    pvm (src : cache) =
  note_structure pvm;
  let w = Install.new_cache pvm ~anonymous:true ~is_history:true () in
  (* nobody holds a handle to a working cache: collect it as soon as
     its last reader detaches *)
  w.c_zombie <- true;
  (match src.c_history with
  | Some old -> Parents.redirect old ~old_parent:src ~new_parent:w
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
  bump pvm.stats.sc_history_created;
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
   [@chorus.guarded
     "history-tree surgery: Cache.copy runs on the owning site's \
      serial-class fibres; the parallel fault path reads c_history but \
      never during a live copy on the same cache"] record_copy pvm
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
    | None -> insert_working_cache pvm src
    | Some h when h == dst ->
      (* Re-copying onto the same destination; the purge has removed
         the old fragments, re-link directly. *)
      src
    | Some _ -> insert_working_cache pvm src
  in
  (* Offsets in a working cache coincide with source offsets. *)
  let parent_off = if parent == src then src_off else src_off in
  Parents.insert dst
    {
      f_off = dst_off;
      f_size = size;
      f_parent = parent;
      f_parent_off = parent_off;
      f_policy = policy;
    };
  protect_source_range pvm src ~off:src_off ~size

(* Called when [child] stops referencing [parent] (destruction or
   purge removed the last fragment).  If the child was the parent's
   history object, the parent no longer needs to save originals: flip
   the copy-protection flags (lazily; hardware entries are refreshed
   at the next fault, costing nothing now — see DESIGN.md). *)
let[@chorus.guarded
     "detach notifications run from topology surgery on the owning site's \
      serial-class fibres or at pool quiescence, never from a parallel \
      slice"] child_detached (parent : cache) (child : cache) =
  note_structure parent.c_pvm;
  let still_references =
    List.exists (fun f -> f.f_parent == parent) child.c_parents
  in
  if not still_references then begin
    match parent.c_history with
    | Some h when h == child ->
      parent.c_history <- None;
      List.iter (fun p -> p.p_cow_protected <- false) parent.c_pages
    | _ -> ()
  end

(* [reachable ~from target]: can a value lookup starting at [from]
   reach [target], through parent fragments or deferred per-page stub
   sources?  Used by Cache.copy to refuse building a cyclic tree when
   a cache is copied onto one of its own ancestors (the paper's Unix
   workloads never do this; we fall back to an eager copy).  Stub
   edges come from each visited cache's own destination index. *)
let[@chorus.noted
     "the check only picks Cache.copy's strategy: the deferred strategies \
      note the topology in purge_range before the slice's next scheduling \
      point, and the eager fallback edits no topology"] reachable
    ~(from : cache) (target : cache) =
  let visited = Hashtbl.create 16 in
  let rec go (c : cache) =
    if c == target then true
    else if Hashtbl.mem visited c.c_id then false
    else begin
      Hashtbl.replace visited c.c_id ();
      List.exists (fun f -> go f.f_parent) c.c_parents
      || Hashtbl.fold
           (fun _ (s : cow_stub) acc ->
             acc
             || s.cs_alive
                &&
                match s.cs_source with
                | Src_cache (sc, _) -> go sc
                | Src_page p -> go p.p_cache)
           c.c_dest_stubs false
    end
  in
  go from

(* --- Introspection ---------------------------------------------- *)

let rec root_of (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  match cache.c_parents with
  | [] -> cache
  | f :: _ -> root_of f.f_parent

let rec depth_to_root (cache : cache) =
  note_structure ~write:false cache.c_pvm;
  match cache.c_parents with
  | [] -> 0
  | f :: _ -> 1 + depth_to_root f.f_parent

(* Structural invariant used by the property tests:
   - fragment lists are well-formed;
   - if [c_history = Some h] then some fragment of [h] names the cache
     as parent;
   - a cache that is not a working history object has at most one
     child; a working one has at most two (binary tree);
   - the parent relation is acyclic. *)
let[@chorus.noted "invariant checks run between slices (property tests, sanitizers)"] check_invariant
    pvm =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun c ->
      if c.c_alive then begin
        if not (Parents.check_invariant c) then
          err "cache %d: bad fragment list" c.c_id;
        (match c.c_history with
        | Some h ->
          if not (List.exists (fun f -> f.f_parent == c) h.c_parents) then
            err "cache %d: history %d has no fragment back" c.c_id h.c_id
        | None -> ());
        let n_children = List.length c.c_children in
        let limit = if c.c_is_history then 2 else 1 in
        if n_children > limit then
          err "cache %d: %d children (limit %d)" c.c_id n_children limit;
        (* acyclicity through every fragment (DFS with an on-stack
           set; the visited set keeps DAGs linear) *)
        let visited = Hashtbl.create 8 in
        let rec climb stack node =
          if List.memq node stack then
            err "cache %d: cycle through %d" c.c_id node.c_id
          else if not (Hashtbl.mem visited node.c_id) then begin
            Hashtbl.replace visited node.c_id ();
            List.iter (fun f -> climb (node :: stack) f.f_parent) node.c_parents
          end
        in
        climb [] c
      end)
    pvm.caches;
  !errors

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
      (List.sort (fun a b -> compare a.c_id b.c_id) c.c_children)
  in
  Format.fprintf ppf "@[<v>%a@]" pp_node ("", root_of cache)
