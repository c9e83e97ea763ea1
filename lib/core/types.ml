(* Internal descriptor records of the PVM (paper §4.1.1, Figure 2).

   Everything is one recursive bundle because the structures mirror
   the paper's: contexts point to regions, regions to caches, caches
   to pages and to their copy-tree relatives, pages back to caches.
   The operational modules (Global_map, Parents, History, Fault, ...)
   act on these records; user code only sees the abstract views
   re-exported by Pvm. *)

type pvm = {
  mem : Hw.Phys_mem.t;
  mmu : Hw.Mmu.t;
  cost : Hw.Cost.profile;
  engine : Hw.Engine.t;
  gmap : entry Frag_map.t;
      (* the global map: (cache id, page-aligned offset) -> entry *)
  stub_sources : cow_stub list Frag_map.t;
      (* per-virtual-page stubs whose source page is not resident,
         indexed by source (cache, offset) so that a later pullIn can
         re-thread them onto the incoming page *)
  page_of_frame : page option array; (* frame index -> owning page *)
  mutable newest_context : context option;
  mutable newest_cache : cache option;
      (* the live-context and live-cache registries: doubly linked
         lists threaded through the records ([ctx_older]/[c_older]
         run newest to oldest), so creation links and destruction
         unlinks in O(1) without allocating.  Read them as lists with
         [contexts]/[caches] *)
  mutable current : context option;
  mutable next_id : int;
  reclaim : Reclaim.t;
      (* the FIFO reclaim queue, oldest first: links between the
         frames of resident pages, indexed like [page_of_frame] *)
  mutable stub_sleeps : int;
      (* fibres that parked waiting for a sync stub to resolve *)
  mutable segment_create_hook : (cache -> Gmi.backing option) option;
  mutable zombie_reaper : (cache -> unit) option;
      (* installed by the Cache module: its liveness rule, run on a
         cache that lost a per-page stub reader.  A hook because stub
         death (Pervpage) sits below cache teardown in the module
         graph. *)
  stats : stats_cells;
  obs : Obs.Metrics.t;
      (* always-on aggregates: fault-latency histograms by resolution
         kind and the per-primitive sim-time attribution table *)
  fault_hist : Obs.Metrics.histogram array;
      (* the fault-latency histograms of [obs], pre-resolved by
         resolution kind (index = Fault.hist_index) so the per-fault
         update is handle-direct: no registry lookup *)
}

and entry =
  | Resident of page
  | Sync_stub of Hw.Engine.Cond.t
      (* page in transit (pullIn/pushOut in progress); accesses wait *)
  | Cow_stub of cow_stub (* per-virtual-page deferred copy (§4.3) *)

and cache = {
  c_id : int;
  c_pvm : pvm;
  mutable c_backing : Gmi.backing option;
  c_anonymous : bool;
      (* created without a segment: misses are zero-filled; a backing
         acquired later (swap) only covers offsets in c_backed_offs *)
  mutable c_backed_offs : (int, unit) Hashtbl.t;
      (* offsets an anonymous cache has pushed to its swap backing *)
  mutable c_pages : page list; (* pages currently cached, unordered *)
  mutable c_dest_stubs : (int, cow_stub) Hashtbl.t;
      (* offset -> the per-page stub destined there: exactly the
         Cow_stub rows of [gmap] under our id *)
  mutable c_pending_offs : (int, unit) Hashtbl.t;
      (* offsets of the [stub_sources] rows keyed on us.  Both indexes
         let teardown, the liveness walk and the copy cycle check visit
         only this cache's stubs; Install writes them (see there) *)
  mutable c_parents : frag list; (* sorted, non-overlapping (§4.2.4) *)
  mutable c_history : cache option; (* our single immediate descendant *)
  mutable c_children : cache list; (* caches whose c_parents reference us *)
  mutable c_mappings : region list; (* regions mapping this cache *)
  mutable c_is_history : bool; (* created unilaterally by the MM *)
  mutable c_policy : Gmi.copy_policy; (* policy of copies we source *)
  mutable c_zombie : bool;
      (* a hidden history node: destroyed by its user while
         descendants still read through it, or made by the MM (working
         caches, purge splits); collected once no visible cache reads
         it (Cache's liveness rule) *)
  mutable c_alive : bool;
  mutable c_newer : cache option; (* registry links, see [newest_cache] *)
  mutable c_older : cache option;
}

and frag = {
  f_off : int; (* start offset within the owning (child) cache *)
  f_size : int;
  f_parent : cache;
  f_parent_off : int; (* corresponding offset within the parent *)
  f_policy : Gmi.copy_policy;
}

and page = {
  mutable p_cache : cache;
  mutable p_offset : int; (* byte offset of the page in its segment *)
  p_frame : Hw.Phys_mem.frame;
  mutable p_pulled_prot : Hw.Prot.t; (* access mode granted by pullIn *)
  mutable p_cow_protected : bool; (* read-only because it was copied *)
  mutable p_cow_stubs : cow_stub list; (* stubs reading through us *)
  mutable p_mappings : (region * int) list; (* MMU mappings: region, vpn *)
  mutable p_dirty : bool;
  mutable p_wire_count : int; (* > 0: pinned by lockInMemory *)
  mutable p_alive : bool;
}

and cow_stub = {
  mutable cs_cache : cache; (* destination cache *)
  mutable cs_offset : int; (* page offset in the destination *)
  mutable cs_source : cow_source;
  mutable cs_alive : bool;
}

and cow_source =
  | Src_page of page (* source page resident in real memory *)
  | Src_cache of cache * int (* source cache + offset, page not resident *)

and region = {
  r_id : int;
  r_context : context;
  mutable r_addr : int;
  mutable r_size : int;
  mutable r_prot : Hw.Prot.t;
  r_cache : cache;
  mutable r_offset : int; (* start offset of the window in the cache *)
  mutable r_locked : bool;
  mutable r_alive : bool;
}

and context = {
  ctx_id : int;
  ctx_pvm : pvm;
  ctx_space : Hw.Mmu.space;
  mutable ctx_regions : region list; (* sorted by start address *)
  mutable ctx_alive : bool;
  mutable ctx_newer : context option; (* registry links, see [newest_context] *)
  mutable ctx_older : context option;
}

and stats_cells = int array
(* The live counters, indexed by the [sc_*] constants below.  Readers
   take a [stats] snapshot ({!snapshot_stats}). *)

let sc_faults = 0
let sc_zero_fills = 1
let sc_cow_copies = 2 (* pages really copied on a write fault *)
let sc_pull_ins = 3
let sc_push_outs = 4
let sc_evictions = 5
let sc_tree_lookups = 6 (* copy-tree levels traversed *)
let sc_history_created = 7 (* working caches inserted *)
let sc_stub_resolves = 8 (* per-virtual-page stubs resolved *)
let sc_eager_pages = 9 (* pages copied eagerly *)
let sc_moved_pages = 10 (* pages moved by frame reassignment *)
let n_stat_cells = 11

(* A point-in-time reading of the counters — the plain-int view every
   consumer (reports, benchmarks, examples) works with. *)
type stats = {
  n_faults : int;
  n_zero_fills : int;
  n_cow_copies : int;
  n_pull_ins : int;
  n_push_outs : int;
  n_evictions : int;
  n_tree_lookups : int;
  n_history_created : int;
  n_stub_resolves : int;
  n_eager_pages : int;
  n_moved_pages : int;
}

let fresh_stats () : stats_cells = Array.make n_stat_cells 0

let snapshot_stats (n : stats_cells) : stats =
  {
    n_faults = n.(sc_faults);
    n_zero_fills = n.(sc_zero_fills);
    n_cow_copies = n.(sc_cow_copies);
    n_pull_ins = n.(sc_pull_ins);
    n_push_outs = n.(sc_push_outs);
    n_evictions = n.(sc_evictions);
    n_tree_lookups = n.(sc_tree_lookups);
    n_history_created = n.(sc_history_created);
    n_stub_resolves = n.(sc_stub_resolves);
    n_eager_pages = n.(sc_eager_pages);
    n_moved_pages = n.(sc_moved_pages);
  }

let reset_stats (c : stats_cells) = Array.fill c 0 n_stat_cells 0

(* The one-event bump every operational module uses:
   [bump pvm.stats sc_pull_ins]. *)
let bump (c : stats_cells) i = c.(i) <- c.(i) + 1

let next_id pvm =
  let id = pvm.next_id in
  pvm.next_id <- id + 1;
  id

let page_size pvm = Hw.Phys_mem.page_size pvm.mem

(* --- Registries of live caches and contexts ------------------------ *)

(* A cache's index tables before their first entry, shared: nothing
   may insert into them (the sanitizer checks they stay empty). *)
let no_offsets : (int, unit) Hashtbl.t = Hashtbl.create 1
let no_stubs : (int, cow_stub) Hashtbl.t = Hashtbl.create 1

(* Link a new cache in front of the registry.  The
   one [Some] cell is shared by the registry head and the old head's
   back link. *)
let[@chorus.hot] [@chorus.noted
     "registry edit: callers note the topology before it"] link_cache pvm
    (cache : cache) =
  let cell = Some cache [@chorus.alloc_ok "the registry's link to the cache"] in
  (match pvm.newest_cache with Some c -> c.c_newer <- cell | None -> ());
  cache.c_older <- pvm.newest_cache;
  pvm.newest_cache <- cell

(* Unlink a dying cache: its neighbours take over its links, so no
   cell is allocated.  Unlinking an unlinked cache does nothing (a
   teardown that a cascade re-entered unlinks twice). *)
let[@chorus.hot] [@chorus.noted
     "registry edit: callers note the topology before it"] unlink_cache pvm
    (cache : cache) =
  (match cache.c_newer with
  | Some c -> c.c_older <- cache.c_older
  | None -> (
    match pvm.newest_cache with
    | Some c when c == cache -> pvm.newest_cache <- cache.c_older
    | Some _ | None -> ()));
  (match cache.c_older with Some c -> c.c_newer <- cache.c_newer | None -> ());
  cache.c_newer <- None;
  cache.c_older <- None

let[@chorus.hot] [@chorus.noted
     "registry edit: callers note the topology before it"] link_context pvm
    (ctx : context) =
  let cell = Some ctx [@chorus.alloc_ok "the registry's link to the context"] in
  (match pvm.newest_context with Some c -> c.ctx_newer <- cell | None -> ());
  ctx.ctx_older <- pvm.newest_context;
  pvm.newest_context <- cell

let[@chorus.hot] [@chorus.noted
     "registry edit: callers note the topology before it"] unlink_context pvm
    (ctx : context) =
  (match ctx.ctx_newer with
  | Some c -> c.ctx_older <- ctx.ctx_older
  | None -> (
    match pvm.newest_context with
    | Some c when c == ctx -> pvm.newest_context <- ctx.ctx_older
    | Some _ | None -> ()));
  (match ctx.ctx_older with Some c -> c.ctx_newer <- ctx.ctx_newer | None -> ());
  ctx.ctx_newer <- None;
  ctx.ctx_older <- None

let rec newest_first older acc = function
  | None -> List.rev acc
  | Some x -> newest_first older (x :: acc) (older x)

(* The live caches and contexts, newest first. *)
let[@chorus.noted "registry reader: reporting and checks at quiescence"] caches
    pvm =
  newest_first (fun c -> c.c_older) [] pvm.newest_cache

let[@chorus.noted "registry reader: reporting and checks at quiescence"] contexts
    pvm =
  newest_first (fun c -> c.ctx_older) [] pvm.newest_context

(* Charge [span] of simulated time attributed to [prim]: the
   per-primitive table of the metrics registry always accumulates it
   (integer adds, no clock effect), and an enabled tracer additionally
   records a cost event.  [charge_span] is for call sites that scale a
   primitive's cost themselves (e.g. a partial-page bcopy). *)
let charge_span pvm prim span =
  (if span > 0 then begin
     Obs.Metrics.charge pvm.obs ~idx:(Hw.Cost.prim_index prim) ~ns:span;
     Hw.Cost.charge_traced ~tracer:(Hw.Engine.tracer pvm.engine) ~prim span
   end)
  [@chorus.spanned "the charge primitive itself; L3's subjects are its callers"]

let charge pvm prim =
  (charge_span pvm prim (Hw.Cost.span_of pvm.cost prim))
  [@chorus.spanned "the charge primitive itself; L3's subjects are its callers"]

(* One trace span around a GMI operation: free when tracing is off,
   closed on the way out even on exceptions. *)
let spanned pvm ?(cat = "vm") name body =
  let tr = Hw.Engine.tracer pvm.engine in
  if not (Obs.Trace.enabled tr) then body ()
  else Obs.Trace.with_span tr ~cat name body

(* Close a span opened with [Obs.Trace.span_begin] whose body raised
   [e], as [spanned] closes it: the explicit half for paths that do
   not build a body closure. *)
let span_raise tr e =
  Obs.Trace.span_end tr
    ~args:[ ("exception", Obs.Trace.Str (Printexc.to_string e)) ]
    [@chorus.alloc_ok "trace arguments, built only when tracing is on"]

(* Footprint notes for the schedule explorer ({!Check.Explore}): each
   shared object a slice touches is reported to the engine so the
   model checker can decide which slices commute.  Fragments are keyed
   by (cache id, offset); negative first components name the coarse
   object classes — the frame pool with its FIFO reclaim queue (any
   two allocation/reclaim transitions conflict: the victim choice
   depends on queue order), and the cache/context topology.  No-ops
   unless a scheduler is installed (Engine.note_access checks). *)
let note_frag ?write pvm (cache : cache) ~off =
  Hw.Engine.note_access ?write pvm.engine cache.c_id off

let note_frames ?write pvm = Hw.Engine.note_access ?write pvm.engine (-1) 0

let note_structure ?write pvm =
  Hw.Engine.note_access ?write pvm.engine (-2) 0

let page_align_down pvm off = off - (off mod page_size pvm)

let page_align_up pvm off =
  let ps = page_size pvm in
  (off + ps - 1) / ps * ps

let is_page_aligned pvm off = off mod page_size pvm = 0

(* A cache its user can still name: alive and not hidden.  A
   destroyed cache that descendants still read lingers as a hidden
   node, which the PVM alone works on. *)
let cache_visible c = c.c_alive && not c.c_zombie

let check_cache_alive c =
  if not (cache_visible c) then invalid_arg "GMI: cache destroyed"

let check_region_alive r =
  if not r.r_alive then invalid_arg "GMI: region destroyed"

let check_context_alive ctx =
  if not ctx.ctx_alive then invalid_arg "GMI: context destroyed"

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>faults: %d@ zero-fills: %d@ cow-copies: %d@ pull-ins: %d@ \
     push-outs: %d@ evictions: %d@ tree-lookups: %d@ history-created: %d@ \
     stub-resolves: %d@ eager-pages: %d@ moved-pages: %d@]"
    s.n_faults s.n_zero_fills s.n_cow_copies s.n_pull_ins s.n_push_outs
    s.n_evictions s.n_tree_lookups s.n_history_created s.n_stub_resolves
    s.n_eager_pages s.n_moved_pages
