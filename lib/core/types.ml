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
  gmap : entry Shard_map.t;
      (* the global map: (cache id, page-aligned offset) -> entry,
         split over N independently locked shards (§4.1 scaled out) *)
  stub_sources : cow_stub list Shard_map.t;
      (* per-virtual-page stubs whose source page is not resident,
         indexed by source (cache, offset) so that a later pullIn can
         re-thread them onto the incoming page *)
  page_of_frame : page option array; (* frame index -> owning page *)
  mutable contexts : context list;
  mutable caches : cache list;
  mutable current : context option;
  next_id : int Atomic.t;
  reclaim : page Fifo.t; (* FIFO reclaim queue, oldest first *)
  mm_lock : Mutex.t;
      (* the memory-management lock: frame pool, reclaim queue, page
         lists, frame-to-page index and MMU mappings.  Taken (via
         [with_mm], reentrantly) only inside parallel engine slices;
         on the oracle path it is never touched *)
  mm_owner : int Atomic.t; (* domain holding mm_lock, -1 when free *)
  mutable mm_depth : int; (* reentrancy depth; owner-only *)
  mm_stat : Obs.Lockstat.t;
      (* contention accounting for mm_lock: acquisition/contended
         counts always, wait/hold wall-clock when Lockstat timing is
         enabled.  Only outermost acquisitions go through it;
         reentrant re-entries are owner-local bookkeeping *)
  stub_sleeps : int Atomic.t;
      (* fibres that parked waiting for a sync stub to resolve *)
  mutable segment_create_hook : (cache -> Gmi.backing option) option;
  mutable zombie_reaper : (cache -> unit) option;
      (* installed by the Cache module: collects a hidden history
         cache once its last reader — fragment child or per-page stub
         — is gone.  A hook because stub death (Pervpage) sits below
         cache teardown in the module graph. *)
  stats : stats_cells;
  obs : Obs.Metrics.t;
      (* always-on aggregates: fault-latency histograms by resolution
         kind and the per-primitive sim-time attribution table *)
  fault_hist : Obs.Metrics.histogram array;
      (* the fault-latency histograms of [obs], pre-resolved by
         resolution kind (index = Fault.hist_index) so the per-fault
         update is handle-direct: no registry lookup, domain-safe *)
}

and gkey = int * int (* cache id, byte offset of page start *)

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
  c_backed_offs : (int, unit) Hashtbl.t;
      (* offsets an anonymous cache has pushed to its swap backing *)
  mutable c_pages : page list; (* pages currently cached, unordered *)
  c_dest_stubs : (int, cow_stub) Hashtbl.t;
      (* offset -> the per-page stub destined there: exactly the
         Cow_stub rows of [gmap] under our id *)
  c_pending_offs : (int, unit) Hashtbl.t;
      (* offsets of the [stub_sources] rows keyed on us.  Both indexes
         let teardown, the zombie sweep and the copy cycle check visit
         only this cache's stubs; they are updated next to the rows
         they mirror, never inside Global_map.set/remove (see
         Install) *)
  mutable c_parents : frag list; (* sorted, non-overlapping (§4.2.4) *)
  mutable c_history : cache option; (* our single immediate descendant *)
  mutable c_children : cache list; (* caches whose c_parents reference us *)
  mutable c_mappings : region list; (* regions mapping this cache *)
  mutable c_is_history : bool; (* created unilaterally by the MM *)
  mutable c_policy : Gmi.copy_policy; (* policy of copies we source *)
  mutable c_zombie : bool;
      (* destroyed by its user while descendants still read through
         it; kept alive as a hidden history node and collected once
         the last child detaches *)
  mutable c_alive : bool;
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
}

and stats_cells = {
  (* The live counters.  Atomic cells rather than mutable ints because
     parallel slices on distinct domains bump them concurrently; a
     single [Atomic.incr] per event keeps totals exact at quiescence
     with no lock.  Readers take a [stats] snapshot
     ({!snapshot_stats}). *)
  sc_faults : int Atomic.t;
  sc_zero_fills : int Atomic.t;
  sc_cow_copies : int Atomic.t; (* pages really copied on a write fault *)
  sc_pull_ins : int Atomic.t;
  sc_push_outs : int Atomic.t;
  sc_evictions : int Atomic.t;
  sc_tree_lookups : int Atomic.t; (* copy-tree levels traversed *)
  sc_history_created : int Atomic.t; (* working caches inserted *)
  sc_stub_resolves : int Atomic.t; (* per-virtual-page stubs resolved *)
  sc_eager_pages : int Atomic.t; (* pages copied eagerly *)
  sc_moved_pages : int Atomic.t; (* pages moved by frame reassignment *)
}

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

let fresh_stats () =
  {
    sc_faults = Atomic.make 0;
    sc_zero_fills = Atomic.make 0;
    sc_cow_copies = Atomic.make 0;
    sc_pull_ins = Atomic.make 0;
    sc_push_outs = Atomic.make 0;
    sc_evictions = Atomic.make 0;
    sc_tree_lookups = Atomic.make 0;
    sc_history_created = Atomic.make 0;
    sc_stub_resolves = Atomic.make 0;
    sc_eager_pages = Atomic.make 0;
    sc_moved_pages = Atomic.make 0;
  }

let snapshot_stats (c : stats_cells) : stats =
  {
    n_faults = Atomic.get c.sc_faults;
    n_zero_fills = Atomic.get c.sc_zero_fills;
    n_cow_copies = Atomic.get c.sc_cow_copies;
    n_pull_ins = Atomic.get c.sc_pull_ins;
    n_push_outs = Atomic.get c.sc_push_outs;
    n_evictions = Atomic.get c.sc_evictions;
    n_tree_lookups = Atomic.get c.sc_tree_lookups;
    n_history_created = Atomic.get c.sc_history_created;
    n_stub_resolves = Atomic.get c.sc_stub_resolves;
    n_eager_pages = Atomic.get c.sc_eager_pages;
    n_moved_pages = Atomic.get c.sc_moved_pages;
  }

let reset_stats (c : stats_cells) =
  Atomic.set c.sc_faults 0;
  Atomic.set c.sc_zero_fills 0;
  Atomic.set c.sc_cow_copies 0;
  Atomic.set c.sc_pull_ins 0;
  Atomic.set c.sc_push_outs 0;
  Atomic.set c.sc_evictions 0;
  Atomic.set c.sc_tree_lookups 0;
  Atomic.set c.sc_history_created 0;
  Atomic.set c.sc_stub_resolves 0;
  Atomic.set c.sc_eager_pages 0;
  Atomic.set c.sc_moved_pages 0

(* The one-event bump every operational module uses.  A name, not bare
   [Atomic.incr], so the counting sites read as what they count:
   [bump pvm.stats.sc_pull_ins]. *)
let bump (c : int Atomic.t) = Atomic.incr c

let next_id pvm = Atomic.fetch_and_add pvm.next_id 1

(* Run [f] under the memory-management lock — but only inside a
   parallel engine slice, where another domain may genuinely race us;
   on the sequential engine and the parallel coordinator this is just
   [f ()], keeping the oracle path free of locking artefacts.  The
   lock is reentrant (owner + depth) so compound operations
   (eviction -> page removal -> frame free) can layer their critical
   sections without a self-deadlock.  Holders must not park: the
   domain would carry the mutex away with it.

   The lock hierarchy (pool before mm before shard before cond) is
   not prose any more: it is declared in [Lint.Lock_order], enforced
   statically by chorus-lint rules L6–L9 over every engine-facing
   library, and cross-checked at runtime against the order witnesses
   [Obs.Lockstat] records under [chorus crossval].

   [mm_enter]/[mm_exit] are the explicit halves for hot paths where
   the closure argument would itself be a per-call allocation; a
   section written with the halves must not raise between them. *)
let[@chorus.noted
     "mm_depth is owner-only bookkeeping guarded by mm_lock itself; it is \
      never part of a slice's shared footprint"]
   [@chorus.balanced
     "this IS the acquire half of the mm-lock primitive: it deliberately \
      returns holding the lock (or one level deeper); L9 audits its \
      callers, which must pair it with mm_exit on every path"] mm_enter pvm
    =
  if Hw.Engine.in_parallel_slice () then begin
    let me = (Domain.self () :> int) in
    if Atomic.get pvm.mm_owner = me then pvm.mm_depth <- pvm.mm_depth + 1
    else begin
      Obs.Lockstat.lock pvm.mm_stat pvm.mm_lock;
      Atomic.set pvm.mm_owner me;
      pvm.mm_depth <- 1
    end
  end

let[@chorus.noted
     "mm_depth is owner-only bookkeeping guarded by mm_lock itself; it is \
      never part of a slice's shared footprint"]
   [@chorus.balanced
     "this IS the release half of the mm-lock primitive: it is entered \
      holding the lock and deliberately returns one level shallower"] mm_exit
    pvm =
  if Hw.Engine.in_parallel_slice () then begin
    (* Unpaired exits corrupt mm_depth silently and surface much later
       as a mutex held (or released) by the wrong domain; fail at the
       misuse site instead. *)
    if Atomic.get pvm.mm_owner <> (Domain.self () :> int) then
      invalid_arg "Types.mm_exit: mm_exit without matching mm_enter";
    pvm.mm_depth <- pvm.mm_depth - 1;
    if pvm.mm_depth = 0 then begin
      Atomic.set pvm.mm_owner (-1);
      Obs.Lockstat.unlock pvm.mm_stat pvm.mm_lock
    end
  end

let with_mm pvm f =
  if not (Hw.Engine.in_parallel_slice ()) then f ()
  else begin
    mm_enter pvm;
    match f () with
    | v ->
      mm_exit pvm;
      v
    | exception e ->
      mm_exit pvm;
      raise e
  end

let page_size pvm = Hw.Phys_mem.page_size pvm.mem

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

let check_cache_alive c =
  if not c.c_alive then invalid_arg "GMI: cache destroyed"

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
