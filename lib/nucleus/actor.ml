type t = {
  a_id : int;
  a_site : Site.t;
  a_ctx : Core.Pvm.context;
  mutable a_mappings : mapping list;
  mutable a_alive : bool;
}

and mapping = { m_region : Core.Pvm.region; m_origin : origin }

and origin =
  | Temp of Core.Pvm.cache
  | Bound of Seg.Capability.t
  | Shared_temp of Core.Pvm.cache

let create (site : Site.t) =
  let id = site.next_actor_id in
  site.next_actor_id <- id + 1;
  {
    a_id = id;
    a_site = site;
    a_ctx = Core.Context.create site.pvm;
    a_mappings = [];
    a_alive = true;
  }

let check_alive a = if not a.a_alive then invalid_arg "Actor: destroyed"

let spawn_thread a ?name f =
  check_alive a;
  Hw.Engine.spawn a.a_site.engine ?name f

let add a mapping =
  a.a_mappings <- mapping :: a.a_mappings;
  mapping

(* rgnAllocate (§5.1.4): a temporary local cache mapped into the
   actor. *)
let rgn_allocate a ~addr ~size ~prot =
  check_alive a;
  let cache = Seg.Segment_manager.create_temporary a.a_site.segd in
  let region =
    Core.Region.create a.a_site.pvm a.a_ctx ~addr ~size ~prot cache ~offset:0
  in
  add a { m_region = region; m_origin = Temp cache }

(* rgnMap: find (or create) the local cache of the segment and map
   it. *)
let rgn_map a ~addr ~size ~prot cap ~offset =
  check_alive a;
  let cache = Seg.Segment_manager.bind a.a_site.segd cap in
  let region =
    Core.Region.create a.a_site.pvm a.a_ctx ~addr ~size ~prot cache ~offset
  in
  add a { m_region = region; m_origin = Bound cap }

(* rgnInit: a temporary cache initialised as a deferred copy of the
   segment, then mapped.  The destination window keeps the segment's
   offsets so the first copy can serve as the source's history object
   (the fast path of §4.2.2). *)
let rgn_init a ~addr ~size ~prot cap ~offset =
  check_alive a;
  let pvm = a.a_site.pvm in
  let src = Seg.Segment_manager.bind a.a_site.segd cap in
  let cache = Seg.Segment_manager.create_temporary a.a_site.segd in
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:offset ~dst:cache
    ~dst_off:offset ~size ();
  Seg.Segment_manager.unbind a.a_site.segd cap;
  let region = Core.Region.create pvm a.a_ctx ~addr ~size ~prot cache ~offset in
  add a { m_region = region; m_origin = Temp cache }

(* The mapping of [region] among [mappings].
   @raise Not_found if none maps it. *)
let[@chorus.hot] rec mapping_of (region : Core.Pvm.region) = function
  | [] -> raise Not_found
  | m :: rest -> if m.m_region == region then m else mapping_of region rest

let source_window (src : t) ~src_addr ~size =
  match Core.Context.find_region src.a_ctx ~addr:src_addr with
  | None -> invalid_arg "rgn*FromActor: no region at source address"
  | Some region ->
    let st = Core.Region.status region in
    if src_addr + size > st.Core.Region.s_addr + st.s_size then
      invalid_arg "rgn*FromActor: range exceeds source region";
    let mapping = mapping_of region src.a_mappings in
    (st.s_cache, st.s_offset + (src_addr - st.s_addr), mapping)

(* rgnMapFromActor: share the very same local cache (fork's text). *)
let rgn_map_from_actor a ~addr ~src ~src_addr ~size ~prot =
  check_alive a;
  let cache, offset, src_mapping = source_window src ~src_addr ~size in
  let origin =
    match src_mapping.m_origin with
    | Bound cap ->
      (* take our own reference on the binding *)
      ignore (Seg.Segment_manager.bind a.a_site.segd cap);
      Bound cap
    | Temp cache | Shared_temp cache -> Shared_temp cache
  in
  let region =
    Core.Region.create a.a_site.pvm a.a_ctx ~addr ~size ~prot cache ~offset
  in
  add a { m_region = region; m_origin = origin }

(* rgnInitFromActor: a deferred copy of another actor's region
   (fork's data and stack — the history-object workload). *)
let rgn_init_from_actor a ~addr ~src ~src_addr ~size ~prot =
  check_alive a;
  let pvm = a.a_site.pvm in
  let src_cache, offset, _ = source_window src ~src_addr ~size in
  let cache = Seg.Segment_manager.create_temporary a.a_site.segd in
  Core.Cache.copy pvm ~strategy:`History ~src:src_cache ~src_off:offset
    ~dst:cache ~dst_off:offset ~size ();
  let region = Core.Region.create pvm a.a_ctx ~addr ~size ~prot cache ~offset in
  add a { m_region = region; m_origin = Temp cache }

let release_origin a = function
  | Bound cap -> Seg.Segment_manager.unbind a.a_site.segd cap
  | Temp cache | Shared_temp cache ->
    (* last unmapper dismantles the temporary cache *)
    if Core.Cache.is_alive cache && Core.Cache.mapping_count cache = 0 then
      Seg.Segment_manager.destroy_temporary a.a_site.segd cache

(* [mappings] without [mapping], sharing the suffix behind it: only
   the cells in front of it are rebuilt. *)
let[@chorus.hot] rec without_mapping mapping = function
  | [] -> []
  | m :: rest as l ->
    if m == mapping then rest
    else
      let rest' = without_mapping mapping rest in
      if rest' == rest then l
      else
        (m :: rest')
        [@chorus.alloc_ok
          "the cells in front of the removed mapping: the shortened list kept"]

let[@chorus.hot] rgn_free a mapping =
  check_alive a;
  if not (List.memq mapping a.a_mappings) then
    invalid_arg "rgnFree: unknown mapping";
  Core.Region.destroy a.a_site.pvm mapping.m_region;
  release_origin a mapping.m_origin;
  a.a_mappings <- without_mapping mapping a.a_mappings

let[@chorus.hot] rec release_all a = function
  | [] -> ()
  | m :: rest ->
    Core.Region.destroy a.a_site.pvm m.m_region;
    release_origin a m.m_origin;
    release_all a rest

let[@chorus.hot] destroy a =
  check_alive a;
  release_all a a.a_mappings;
  a.a_mappings <- [];
  Core.Context.destroy a.a_site.pvm a.a_ctx;
  a.a_alive <- false

let read a ~addr ~len =
  check_alive a;
  Core.Pvm.read a.a_site.pvm a.a_ctx ~addr ~len

let write a ~addr bytes =
  check_alive a;
  Core.Pvm.write a.a_site.pvm a.a_ctx ~addr bytes

let touch a ~addr ~access =
  check_alive a;
  Core.Pvm.touch a.a_site.pvm a.a_ctx ~addr ~access
